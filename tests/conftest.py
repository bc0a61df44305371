"""Shared test utilities: independent oracles and randomized generators.

The dense elimination oracle here is intentionally naive and separate
from the package's sparse engine; tests that cross-check results use it
as the second route.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from trusshom.complexes import (
    CellComplex,
    Embedding,
    build_complex,
    planar_faces,
    segments_conflict,
)
from trusshom.errors import PreconditionError
from trusshom.statics import Truss

Q = Fraction

REPO = Path(__file__).resolve().parent.parent


def run_cli(*args, timeout=None):
    """Run ``python -m trusshom`` from the repository root, with the
    checkout's ``src`` on the path so no install is needed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "trusshom", *args],
        capture_output=True, text=True, cwd=str(REPO), env=env, timeout=timeout,
    )


# ---------------------------------------------------------------------------
# independent dense oracle (fraction Gauss-Jordan, no package code)
# ---------------------------------------------------------------------------


def dense_rank(rows) -> int:
    rows = [list(r) for r in rows]
    if not rows or not rows[0]:
        return 0
    m, n = len(rows), len(rows[0])
    rank = 0
    pr = 0
    for c in range(n):
        piv = next((r for r in range(pr, m) if rows[r][c] != 0), None)
        if piv is None:
            continue
        rows[pr], rows[piv] = rows[piv], rows[pr]
        for r in range(m):
            if r != pr and rows[r][c]:
                f = rows[r][c] / rows[pr][c]
                for j in range(n):
                    rows[r][j] -= f * rows[pr][j]
        pr += 1
        rank += 1
    return rank


def dense_nullity(rows) -> int:
    if not rows:
        return 0
    return len(rows[0]) - dense_rank(rows)


def matrix_rows(m):
    """Dense rows of a SparseMatrix without using its helpers."""
    out = [[Q(0)] * m.cols for _ in range(m.rows)]
    for (i, j), v in m.entries.items():
        out[i][j] = v
    return out


# ---------------------------------------------------------------------------
# all-pairs crossing oracle
# ---------------------------------------------------------------------------


def all_pairs_noncrossing(x: CellComplex, emb: Embedding) -> None:
    """Reference crossing test: every pair of edges, in (i, j) order, on
    the rational coordinates; raises on the first conflict."""
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


# ---------------------------------------------------------------------------
# randomized structures
# ---------------------------------------------------------------------------


def random_truss(rng: random.Random, n: int, nverts=None) -> Truss:
    """Connected truss with rational coordinates in R^n."""
    nv = nverts if nverts is not None else rng.randrange(5, 31)
    pts = set()
    while len(pts) < nv:
        pts.add(
            tuple(
                Q(rng.randrange(-12, 13), rng.choice([1, 1, 2, 3]))
                for _ in range(n)
            )
        )
    pts = sorted(pts)
    rng.shuffle(pts)
    edges = set()
    order = list(range(nv))
    rng.shuffle(order)
    for i in range(1, nv):  # random spanning tree
        a = order[i]
        b = order[rng.randrange(0, i)]
        edges.add((min(a, b), max(a, b)))
    extra = rng.randrange(0, nv)
    tries = 0
    while extra and tries < 10 * nv:
        a, b = rng.randrange(nv), rng.randrange(nv)
        tries += 1
        if a != b and (min(a, b), max(a, b)) not in edges:
            edges.add((min(a, b), max(a, b)))
            extra -= 1
    return Truss(build_complex(nv, sorted(edges)), Embedding.from_points(pts))


def random_form_truss(rng: random.Random) -> Truss:
    """Random planar spherical form: a strictly convex rim (points on a
    parabola) triangulated as a fan, either from an interior hub or from
    a rim vertex."""
    k = rng.randrange(3, 9)
    ts = sorted(rng.sample(range(-12, 13), k))
    c = Q(rng.choice([2, 3, 4]))
    rim = [(Q(t), Q(t) * t / c) for t in ts]
    # close convexity: parabola points are convex; polygon = chain + base edge
    if rng.random() < 0.5 and k >= 3:
        # interior hub at the centroid
        cx = sum(p[0] for p in rim) / k
        cy = sum(p[1] for p in rim) / k
        # centroid of a convex polygon's vertices may land on the hull for
        # k = 3 collinear-ish data; parabola points are strictly convex so
        # the vertex centroid is strictly inside
        pts = rim + [(cx, cy)]
        hub = k
        edges = [(i, (i + 1) % k) for i in range(k)]
        edges += [(hub, i) for i in range(k)]
    else:
        pts = rim
        edges = [(i, (i + 1) % k) for i in range(k)]
        edges += [(0, i) for i in range(2, k - 1)]
    x = build_complex(len(pts), edges)
    emb = Embedding.from_points(pts)
    return Truss(planar_faces(x, emb), emb)


# ---------------------------------------------------------------------------
# orientation flips
# ---------------------------------------------------------------------------


def flip_edge(x: CellComplex, e: int) -> CellComplex:
    """Reverse one edge's orientation, updating face cycle signs."""
    t, h = x.edges[e]
    edges = list(x.edges)
    edges[e] = (h, t)
    faces = [
        [(ei, -s if ei == e else s) for ei, s in cyc] for cyc in x.faces
    ]
    return build_complex(x.nverts, edges, faces, x.exterior_face)


def flip_face(x: CellComplex, f: int) -> CellComplex:
    """Reverse one face's traversal orientation."""
    faces = [list(cyc) for cyc in x.faces]
    faces[f] = [(e, -s) for e, s in reversed(faces[f])]
    return build_complex(x.nverts, x.edges, faces, x.exterior_face)


@pytest.fixture
def rng():
    return random.Random(20240817)
