"""Seeded structure generators for the benchmark.

Three families, each a pure function of ``seed``:

* ``planar_grid(n, seed)``: the n x n grid truss.  Vertex (i, j) sits at
  ``(j, i + bend*j**2 + jitter)``; members are horizontal, vertical and
  one diagonal (i, j) -> (i+1, j+1) in each cell with i + j even.
  Seed 0 is the fixed grid with ``bend = 1/97`` and no jitter.
* ``spatial_lattice(k, seed)``: a k x k x k lattice in R^3 with every
  axis member plus face diagonals on a seeded choice of unit squares.
* ``loaded_grid(n, seed)``: the planar grid inside a 4-vertex exterior
  loading loop joined to the grid corners by 4 connectors, with every
  face cycle and the exterior written out.

Every seed keeps x integral and puts all of its perturbation over the
denominator 97 the fixed grid already uses.  The size of the coordinates,
and with it the cost of exact elimination, then does not depend on the
seed, so runs with different seeds measure the same amount of work.

The bend is at most 3/97 and the jitter at most 9/97 < 1/10.  Every grid
cell then has two vertical sides of length > 0.8 at x = j and x = j+1, so
it stays a convex quadrilateral and its diagonal stays inside it: the
planar families never cross.  The loading loop lies at x = -2 and
x = n + 1, outside the grid's x-range [0, n - 1], and at y = -3 and
y = n + 5, below and above every grid vertex.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

Q = Fraction
DEN = 97


@dataclass(frozen=True)
class Structure:
    """A generated truss with its own exact coordinates.

    ``edges`` are (tail, head) vertex indices; ``faces`` are cycles of
    (edge index, sign) with interior faces counterclockwise and the
    exterior clockwise, as the document format prescribes.
    """

    name: str
    dim: int
    points: tuple[tuple[Fraction, ...], ...]
    edges: tuple[tuple[int, int], ...]
    vertex_ids: tuple[str, ...]
    edge_ids: tuple[str, ...]
    faces: Optional[tuple[tuple[tuple[int, int], ...], ...]] = None
    exterior: Optional[int] = None
    loop_vertices: tuple[int, ...] = ()
    loop_edges: tuple[int, ...] = ()
    connectors: tuple[int, ...] = ()

    def document(self) -> dict:
        doc = {
            "version": 1,
            "dim": self.dim,
            "vertices": [
                {"id": vid, "pos": [str(c) for c in p]}
                for vid, p in zip(self.vertex_ids, self.points)
            ],
            "edges": [
                {"id": eid, "tail": self.vertex_ids[t], "head": self.vertex_ids[h]}
                for eid, (t, h) in zip(self.edge_ids, self.edges)
            ],
        }
        if self.faces is not None:
            doc["faces"] = [
                {"id": f"f{k}", "cycle": [[self.edge_ids[e], s] for e, s in cyc]}
                for k, cyc in enumerate(self.faces)
            ]
            doc["exterior"] = f"f{self.exterior}"
        if self.loop_vertices:
            doc["boundary"] = {
                "loop_vertices": [self.vertex_ids[v] for v in self.loop_vertices],
                "loop_edges": [self.edge_ids[e] for e in self.loop_edges],
                "connectors": [self.edge_ids[e] for e in self.connectors],
            }
        return doc


def _rng(family: str, seed: int) -> random.Random:
    return random.Random(f"{family}:{seed}")


def _grid_geometry(n: int, seed: int):
    """Positions of the n x n grid vertices, keyed by (i, j)."""
    if seed == 0:
        bend, jitter = 1, {}
    else:
        rng = _rng("grid", seed)
        bend = rng.randint(1, 3)
        jitter = {(i, j): rng.randint(-9, 9) for i in range(n) for j in range(n)}
    return {
        (i, j): (Q(j), Q(DEN * i + bend * j * j + jitter.get((i, j), 0), DEN))
        for i in range(n)
        for j in range(n)
    }


class _Builder:
    def __init__(self):
        self.points, self.vids, self.index = [], [], {}
        self.edges, self.eids, self.edge_of = [], [], {}

    def vertex(self, key, vid, pos):
        self.index[key] = len(self.points)
        self.points.append(pos)
        self.vids.append(vid)

    def edge(self, eid, a, b):
        t, h = self.index[a], self.index[b]
        self.edge_of[(t, h)] = (len(self.edges), +1)
        self.edge_of[(h, t)] = (len(self.edges), -1)
        self.edges.append((t, h))
        self.eids.append(eid)
        return len(self.edges) - 1

    def cycle(self, keys):
        """Face cycle through the vertices ``keys`` in order."""
        idx = [self.index[k] for k in keys]
        return tuple(self.edge_of[(a, b)] for a, b in zip(idx, idx[1:] + idx[:1]))


def _add_grid(b: _Builder, n: int, seed: int) -> None:
    pos = _grid_geometry(n, seed)
    for i in range(n):
        for j in range(n):
            b.vertex((i, j), f"v{i}_{j}", pos[(i, j)])
    for i in range(n):
        for j in range(n - 1):
            b.edge(f"h{i}_{j}", (i, j), (i, j + 1))
    for i in range(n - 1):
        for j in range(n):
            b.edge(f"u{i}_{j}", (i, j), (i + 1, j))
    for i in range(n - 1):
        for j in range(n - 1):
            if (i + j) % 2 == 0:
                b.edge(f"d{i}_{j}", (i, j), (i + 1, j + 1))


def _grid_faces(n: int):
    """Counterclockwise vertex cycles of the grid's cells."""
    out = []
    for i in range(n - 1):
        for j in range(n - 1):
            a, bb, c, d = (i, j), (i, j + 1), (i + 1, j + 1), (i + 1, j)
            if (i + j) % 2 == 0:
                out += [[a, bb, c], [a, c, d]]
            else:
                out.append([a, bb, c, d])
    return out


def planar_grid(n: int, seed: int) -> Structure:
    b = _Builder()
    _add_grid(b, n, seed)
    return Structure(
        f"grid{n}", 2, tuple(b.points), tuple(b.edges), tuple(b.vids), tuple(b.eids)
    )


def loaded_grid(n: int, seed: int) -> Structure:
    b = _Builder()
    _add_grid(b, n, seed)
    m = n - 1
    loop = [("L", 0), ("L", 1), ("L", 2), ("L", 3)]
    corners = [(0, 0), (0, m), (m, m), (m, 0)]
    loop_pos = [(-2, -3), (n + 1, -3), (n + 1, n + 5), (-2, n + 5)]
    for k, (x, y) in enumerate(loop_pos):
        b.vertex(loop[k], f"y{k}", (Q(x), Q(y)))
    loop_edges = tuple(
        b.edge(f"y{k}{(k + 1) % 4}", loop[k], loop[(k + 1) % 4]) for k in range(4)
    )
    connectors = tuple(b.edge(f"c{k}", loop[k], corners[k]) for k in range(4))

    cycles = [b.cycle(c) for c in _grid_faces(n)]
    bottom = [(0, j) for j in range(m, -1, -1)]
    right = [(i, m) for i in range(m, -1, -1)]
    top = [(m, j) for j in range(m + 1)]
    left = [(i, 0) for i in range(m + 1)]
    # the four regions between the grid and the loop, counterclockwise
    cycles.append(b.cycle([loop[0], loop[1]] + bottom))
    cycles.append(b.cycle([loop[1], loop[2]] + right))
    cycles.append(b.cycle([loop[2], loop[3]] + top))
    cycles.append(b.cycle([loop[3], loop[0]] + left))
    cycles.append(b.cycle([loop[0], loop[3], loop[2], loop[1]]))  # exterior
    return Structure(
        f"loaded{n}", 2, tuple(b.points), tuple(b.edges), tuple(b.vids), tuple(b.eids),
        faces=tuple(cycles), exterior=len(cycles) - 1,
        loop_vertices=tuple(b.index[v] for v in loop),
        loop_edges=loop_edges, connectors=connectors,
    )


def spatial_lattice(k: int, seed: int) -> Structure:
    """k^3 joints, 3k^2(k-1) axis members and 2k(k-1)^2 face diagonals.

    Two thirds of the lattice's 3k(k-1)^2 unit squares get one diagonal.
    The seed picks which of a square's two diagonals, and (except seed 0)
    a jitter of z over 97.  The coordinates carry the grid's bend over 97
    in two axes so that the members are not all parallel to three
    directions.
    """
    rng = _rng("lattice", seed)
    b = _Builder()
    for i in range(k):
        for j in range(k):
            for l in range(k):
                off = rng.randint(-9, 9) if seed else 0
                pos = (Q(i), Q(DEN * j + i * i, DEN), Q(DEN * l + j * j + off, DEN))
                b.vertex((i, j, l), f"p{i}_{j}_{l}", pos)
    axes = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for a, d in enumerate(axes):
        for p in sorted(b.index):
            q = tuple(x + y for x, y in zip(p, d))
            if q in b.index:
                b.edge(f"{'xyz'[a]}{p[0]}_{p[1]}_{p[2]}", p, q)
    squares = []
    for a in range(3):
        d1, d2 = axes[(a + 1) % 3], axes[(a + 2) % 3]
        for p in sorted(b.index):
            c = tuple(x + y + z for x, y, z in zip(p, d1, d2))
            if c in b.index:
                squares.append((p, d1, d2))
    # which squares carry a diagonal is fixed, so that the fill-in of the
    # elimination, and with it the cost, does not depend on the seed
    picked = sorted(_rng("lattice", 0).sample(range(len(squares)), len(squares) * 2 // 3))
    for s in picked:
        p, d1, d2 = squares[s]
        u = tuple(x + y for x, y in zip(p, d1))
        w = tuple(x + y for x, y in zip(p, d2))
        c = tuple(x + y for x, y in zip(u, d2))
        a, bb = (p, c) if rng.random() < 0.5 else (u, w)
        b.edge(f"s{s}", a, bb)
    return Structure(
        f"lattice{k}", 3, tuple(b.points), tuple(b.edges), tuple(b.vids), tuple(b.eids)
    )
