"""Regular cell complexes of dimension <= 2 with signed incidences.

A complex is combinatorial: vertices are indices, edges are ordered pairs
(tail, head), faces are closed signed edge cycles.  Geometry enters only
through an Embedding (rational coordinates), used for planar face tracing
and the statics built on top.

Orientation conventions used throughout the package:
  * the boundary of edge t->h is head - tail (+1 at the head);
  * a face cycle entry (e, +1) traverses e from tail to head;
  * interior faces of a planar complex are counterclockwise, the exterior
    face is the unique clockwise one;
  * the dual of edge e is oriented from the face using e with sign +1
    (its left face) to the face using it with sign -1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import NamedTuple, Optional, Sequence

from .errors import InputError, InternalCheckError, PreconditionError

Q = Fraction


class CellId(NamedTuple):
    dim: int
    index: int


def vcell(i: int) -> CellId:
    return CellId(0, i)


def ecell(i: int) -> CellId:
    return CellId(1, i)


def fcell(i: int) -> CellId:
    return CellId(2, i)


FaceCycle = tuple[tuple[int, int], ...]  # ((edge index, sign), ...)


@dataclass(frozen=True)
class CellComplex:
    """Validated cell complex; construct through build_complex."""

    nverts: int
    edges: tuple[tuple[int, int], ...]
    faces: tuple[FaceCycle, ...] = ()
    exterior_face: Optional[int] = None

    @property
    def nedges(self) -> int:
        return len(self.edges)

    @property
    def nfaces(self) -> int:
        return len(self.faces)

    @property
    def dim(self) -> int:
        if self.faces:
            return 2
        return 1 if self.edges else 0

    def vertex_ids(self):
        return [vcell(i) for i in range(self.nverts)]

    def edge_ids(self):
        return [ecell(i) for i in range(self.nedges)]

    def face_ids(self):
        return [fcell(i) for i in range(self.nfaces)]

    def cells(self):
        return self.vertex_ids() + self.edge_ids() + self.face_ids()

    def cells_of_dim(self, k: int):
        return (self.vertex_ids(), self.edge_ids(), self.face_ids())[k] if k <= 2 else []

    def edge_vertex_incidences(self):
        """(edge, vertex, sign) triples; -1 at the tail, +1 at the head."""
        out = []
        for i, (t, h) in enumerate(self.edges):
            out.append((ecell(i), vcell(t), -1))
            out.append((ecell(i), vcell(h), +1))
        return out

    def face_edge_incidences(self):
        """(face, edge, sign) triples from the stored boundary cycles."""
        out = []
        for i, cycle in enumerate(self.faces):
            for e, s in cycle:
                out.append((fcell(i), ecell(e), s))
        return out

    def edge_face_signs(self) -> dict[int, list[tuple[int, int]]]:
        """edge index -> [(face index, sign), ...]."""
        inc: dict[int, list[tuple[int, int]]] = {e: [] for e in range(self.nedges)}
        for f, cycle in enumerate(self.faces):
            for e, s in cycle:
                inc[e].append((f, s))
        return inc

    def is_closed_surface(self) -> bool:
        """Every edge lies in exactly two faces with opposite signs."""
        for uses in self.edge_face_signs().values():
            if len(uses) != 2 or uses[0][1] + uses[1][1] != 0:
                return False
        return True

    def left_right_faces(self, e: int) -> tuple[int, int]:
        """(left, right) face of edge e; left uses it with sign +1."""
        return self.left_right_table([e])[e]

    def left_right_table(self, edges) -> dict[int, tuple[int, int]]:
        """edge -> (left, right) face for each of ``edges``, from one scan
        of the face cycles."""
        inc = self.edge_face_signs()
        table = {}
        for e in edges:
            uses = inc[e]
            if len(uses) != 2 or uses[0][1] + uses[1][1] != 0:
                raise PreconditionError(f"edge {e} does not bound exactly two faces")
            (f1, s1), (f2, _) = uses
            table[e] = (f1, f2) if s1 == +1 else (f2, f1)
        return table

    def is_connected(self) -> bool:
        if self.nverts == 0:
            return True
        seen = {0}
        stack = [0]
        adj: dict[int, list[int]] = {}
        for t, h in self.edges:
            adj.setdefault(t, []).append(h)
            adj.setdefault(h, []).append(t)
        while stack:
            v = stack.pop()
            for w in adj.get(v, ()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.nverts


def _cycle_endpoints(edges, e, s):
    t, h = edges[e]
    return (t, h) if s == +1 else (h, t)


def build_complex(
    nverts: int,
    edges: Sequence[tuple[int, int]],
    faces: Sequence[Sequence[tuple[int, int]]] = (),
    exterior_face: Optional[int] = None,
) -> CellComplex:
    """Validate and freeze a cell complex.

    Checks: indices in range, no self-loop edges, every face cycle closes
    (consecutive oriented edges chain head-to-tail and the walk returns to
    its start), no edge repeated within a face.
    """
    if nverts < 0:
        raise InputError("negative vertex count")
    edges = tuple((int(t), int(h)) for t, h in edges)
    for i, (t, h) in enumerate(edges):
        if not (0 <= t < nverts and 0 <= h < nverts):
            raise InputError(f"edge {i} references a missing vertex: ({t}, {h})")
        if t == h:
            raise InputError(f"edge {i} is a self-loop at vertex {t}")

    cycles = []
    for fi, cyc in enumerate(faces):
        cyc = tuple((int(e), int(s)) for e, s in cyc)
        if not cyc:
            raise InputError(f"face {fi} has an empty boundary cycle")
        seen_edges = set()
        for e, s in cyc:
            if not 0 <= e < len(edges):
                raise InputError(f"face {fi} references a missing edge {e}")
            if s not in (-1, 1):
                raise InputError(f"face {fi} has incidence sign {s}, expected +/-1")
            if e in seen_edges:
                raise InputError(f"face {fi} repeats edge {e}")
            seen_edges.add(e)
        for k in range(len(cyc)):
            e, s = cyc[k]
            e2, s2 = cyc[(k + 1) % len(cyc)]
            if _cycle_endpoints(edges, e, s)[1] != _cycle_endpoints(edges, e2, s2)[0]:
                raise InputError(f"face {fi} boundary does not close at position {k}")
        cycles.append(cyc)

    if exterior_face is not None and not 0 <= exterior_face < len(cycles):
        raise InputError(f"exterior face id {exterior_face} out of range")
    return CellComplex(nverts, edges, tuple(cycles), exterior_face)


def euler_char(x: CellComplex) -> int:
    return x.nverts - x.nedges + x.nfaces


# ---------------------------------------------------------------------------
# Embeddings and exact planar geometry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Embedding:
    """Rational vertex positions in R^n; ``dim`` is n, even with no vertices."""

    positions: tuple[tuple[Fraction, ...], ...]
    dim: int

    def p(self, v: int) -> tuple[Fraction, ...]:
        return self.positions[v]

    @classmethod
    def from_points(cls, points, dim: Optional[int] = None) -> "Embedding":
        """Embedding of ``points``; ``dim`` may be omitted when there is at
        least one point, and is then the length of the first."""
        rows = tuple(tuple(Q(c) for c in pt) for pt in points)
        if dim is None:
            if not rows:
                raise InputError("an embedding without points needs an explicit dimension")
            dim = len(rows[0])
        if any(len(r) != dim for r in rows):
            raise InputError("inconsistent coordinate dimensions")
        return cls(rows, dim)


def validate_embedding(x: CellComplex, emb: Embedding) -> None:
    if len(emb.positions) != x.nverts:
        raise InputError(
            f"embedding has {len(emb.positions)} positions for {x.nverts} vertices"
        )
    for i, (t, h) in enumerate(x.edges):
        if emb.p(t) == emb.p(h):
            raise InputError(f"edge {i} has coincident endpoint positions")


def edge_vector(x: CellComplex, emb: Embedding, e: int) -> tuple[Fraction, ...]:
    t, h = x.edges[e]
    return tuple(hc - tc for hc, tc in zip(emb.p(h), emb.p(t)))


def _orient(a, b, c) -> Fraction:
    """Twice the signed area of triangle abc (positive = counterclockwise)."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _on_segment(p, a, b) -> bool:
    """p collinear with ab assumed; is p within the closed segment?"""
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def segments_conflict(a, b, c, d) -> bool:
    """True when closed segments ab and cd share any point that is not a
    common endpoint.  Exact rational arithmetic, no tolerances."""
    o1 = _orient(a, b, c)
    o2 = _orient(a, b, d)
    o3 = _orient(c, d, a)
    o4 = _orient(c, d, b)

    if o1 == 0 and o2 == 0:
        # collinear: overlap of more than a single point is a conflict;
        # a single touching point is necessarily a shared endpoint
        axis = 0 if a[0] != b[0] else 1
        lo1, hi1 = sorted((a[axis], b[axis]))
        lo2, hi2 = sorted((c[axis], d[axis]))
        lo, hi = max(lo1, lo2), min(hi1, hi2)
        return lo < hi

    if (o1 > 0) != (o2 > 0) and o1 and o2 and (o3 > 0) != (o4 > 0) and o3 and o4:
        return True

    for p, u, v, pu, pv in ((c, a, b, c == a, c == b), (d, a, b, d == a, d == b),
                            (a, c, d, a == c, a == d), (b, c, d, b == c, b == d)):
        if _orient(u, v, p) == 0 and _on_segment(p, u, v) and not (pu or pv):
            return True
    return False


def check_noncrossing(x: CellComplex, emb: Embedding) -> None:
    """O(E^2) exact pairwise segment check; also requires injective
    positions so that geometric coincidence means combinatorial identity."""
    seen = {}
    for v in range(x.nverts):
        pos = emb.p(v)
        if pos in seen:
            raise PreconditionError(
                f"vertices {seen[pos]} and {v} occupy the same position"
            )
        seen[pos] = v
    for i in range(x.nedges):
        a, b = (emb.p(v) for v in x.edges[i])
        for j in range(i + 1, x.nedges):
            c, d = (emb.p(v) for v in x.edges[j])
            if segments_conflict(a, b, c, d):
                raise PreconditionError(f"edges {i} and {j} cross or overlap")


def _angle_cmp(u, v) -> int:
    """Compare two nonzero direction vectors by angle in [0, 2*pi)."""

    def half(w):
        return 0 if (w[1] > 0 or (w[1] == 0 and w[0] > 0)) else 1

    hu, hv = half(u), half(v)
    if hu != hv:
        return -1 if hu < hv else 1
    cr = u[0] * v[1] - u[1] * v[0]
    if cr > 0:
        return -1
    if cr < 0:
        return 1
    return 0


def planar_faces(x: CellComplex, emb: Embedding) -> CellComplex:
    """Extend a planar straight-line graph to a spherical 2-complex.

    Faces are the orbits of the rotation-system walk (at each vertex,
    darts sorted counterclockwise by exact angle); the unique face with
    negative signed area is designated exterior.  The result always
    satisfies V - E + F = 2, which is asserted.
    """
    if x.faces:
        raise InputError("complex already has faces")
    if emb.dim != 2:
        raise PreconditionError("planar face tracing needs a 2D embedding")
    validate_embedding(x, emb)
    if not x.is_connected():
        raise PreconditionError("graph must be connected to trace faces")
    if x.nedges == 0:
        raise PreconditionError("graph has no edges")
    check_noncrossing(x, emb)

    # darts: (edge, +1) = tail->head, (edge, -1) = head->tail
    out_darts: dict[int, list[tuple[int, int]]] = {v: [] for v in range(x.nverts)}
    for e, (t, h) in enumerate(x.edges):
        out_darts[t].append((e, +1))
        out_darts[h].append((e, -1))

    def dart_vec(d):
        e, s = d
        vec = edge_vector(x, emb, e)
        return vec if s == +1 else (-vec[0], -vec[1])

    prev_in_rotation: dict[tuple[int, int], tuple[int, int]] = {}
    for v, darts in out_darts.items():
        darts.sort(key=cmp_to_key(lambda p, q: _angle_cmp(dart_vec(p), dart_vec(q))))
        for k, d in enumerate(darts):
            prev_in_rotation[d] = darts[k - 1]

    def rev(d):
        return (d[0], -d[1])

    def dart_head(d):
        e, s = d
        t, h = x.edges[e]
        return h if s == +1 else t

    unused = {(e, s) for e in range(x.nedges) for s in (+1, -1)}
    cycles: list[FaceCycle] = []
    areas: list[Fraction] = []
    while unused:
        start = min(unused)
        walk = []
        d = start
        while True:
            walk.append(d)
            unused.discard(d)
            d = prev_in_rotation[rev(d)]
            if d == start:
                break
        if len({e for e, _ in walk}) != len(walk):
            raise PreconditionError(
                "graph has a bridge edge; faces of the embedding are not regular cells"
            )
        cycles.append(tuple(walk))
        area = Q(0)
        for dd in walk:
            e, s = dd
            t, h = x.edges[e]
            a, b = (emb.p(t), emb.p(h)) if s == +1 else (emb.p(h), emb.p(t))
            area += a[0] * b[1] - a[1] * b[0]
        areas.append(area / 2)

    negatives = [i for i, ar in enumerate(areas) if ar < 0]
    if len(negatives) != 1 or any(ar == 0 for ar in areas):
        raise InternalCheckError(
            f"face tracing produced signed areas {areas}; expected exactly one negative"
        )
    result = build_complex(x.nverts, x.edges, cycles, exterior_face=negatives[0])
    if euler_char(result) != 2:
        raise InternalCheckError(
            f"traced complex has Euler characteristic {euler_char(result)}, expected 2"
        )
    return result


# ---------------------------------------------------------------------------
# Poincare dual
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DualCorrespondence:
    """Label bijections between a spherical complex and its dual:
    primal vertex <-> dual face, primal edge <-> dual edge,
    primal face <-> dual vertex (all index-to-index)."""

    vertex_to_dual_face: tuple[int, ...]
    edge_to_dual_edge: tuple[int, ...]
    face_to_dual_vertex: tuple[int, ...]


def _umbrella(x: CellComplex, v: int) -> list[tuple[int, int]]:
    """Coherently oriented (face, next edge) cycle around vertex v.

    Each incident edge arrives at v inside exactly one of its two faces
    and leaves v inside the other, so following arrive -> leave walks the
    link of v in the rotation sense induced by the face orientations
    themselves; all umbrellas of the complex then rotate coherently.
    Returns [(f_0, e_1), (f_1, e_2), ...]: e_{k+1} is the edge crossed
    when stepping from face f_k to face f_{k+1}.
    """
    incident = {e for e, (t, h) in enumerate(x.edges) if v in (t, h)}
    if not incident:
        raise PreconditionError(f"vertex {v} has no incident edges")
    arriving_face: dict[int, int] = {}   # edge -> face where it arrives at v
    leaving_edge: dict[int, int] = {}    # face -> edge leaving v in it
    for f, cycle in enumerate(x.faces):
        for k in range(len(cycle)):
            e, s = cycle[k]
            if _cycle_endpoints(x.edges, e, s)[1] == v:
                if e in arriving_face or f in leaving_edge:
                    raise PreconditionError(
                        f"face {f} passes vertex {v} twice; complex is not regular"
                    )
                arriving_face[e] = f
                leaving_edge[f] = cycle[(k + 1) % len(cycle)][0]
    if set(arriving_face) != incident:
        raise PreconditionError(f"link of vertex {v} is incomplete")
    e0 = min(incident)
    walk = []
    e = e0
    while True:
        f = arriving_face[e]
        e_next = leaving_edge[f]
        walk.append((f, e_next))
        e = e_next
        if e == e0:
            break
        if len(walk) > len(incident):
            raise PreconditionError(f"link of vertex {v} is not a single circle")
    if len(walk) != len(incident):
        raise PreconditionError(f"link of vertex {v} is not a single circle")
    return walk


def poincare_dual(x: CellComplex) -> tuple[CellComplex, DualCorrespondence]:
    """Dual of a closed spherical 2-complex.

    Dual vertices <- faces, dual edges <- edges (oriented left face ->
    right face), dual faces <- vertices (boundary cycles from the
    coherent umbrella walks).  chi is preserved and the dual validates
    like any other complex, including boundary-of-boundary vanishing.
    """
    if not x.faces:
        raise PreconditionError("dual needs a 2-complex")
    if not x.is_closed_surface():
        raise PreconditionError(
            "complex is not closed: some edge lacks two opposite-sign faces"
        )
    dual_edges = []
    for e in range(x.nedges):
        fl, fr = x.left_right_faces(e)
        dual_edges.append((fl, fr))

    dual_faces = []
    for v in range(x.nverts):
        walk = _umbrella(x, v)
        cycle = []
        for f, e_next in walk:
            fl, _ = x.left_right_faces(e_next)
            # the dual edge of e_next is oriented left -> right; we cross
            # it leaving dual vertex f
            cycle.append((e_next, +1 if f == fl else -1))
        dual_faces.append(cycle)

    dual = build_complex(x.nfaces, dual_edges, dual_faces)
    corr = DualCorrespondence(
        vertex_to_dual_face=tuple(range(x.nverts)),
        edge_to_dual_edge=tuple(range(x.nedges)),
        face_to_dual_vertex=tuple(range(x.nfaces)),
    )
    return dual, corr
