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
    edge_vector,
    planar_faces,
    poincare_dual,
    segments_conflict,
)
from trusshom.cosheaves import (
    Cosheaf,
    CosheafMap,
    QuotientPresentation,
    check_cosheaf_map,
    incidence_pairs,
)
from trusshom.errors import InputError, InternalCheckError, PreconditionError
from trusshom.sparse import (
    SparseMatrix,
    echelon,
    kernel_basis,
    rank,
    solve_particular,
)
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


def _rebind(monkeypatch, module, name, wrap):
    """Replace function ``name`` of the module named ``module`` by
    ``wrap(function)`` in every trusshom module that aliases it."""
    orig = getattr(sys.modules[module], name)
    wrapper = wrap(orig)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "trusshom" and getattr(mod, name, None) is orig:
            monkeypatch.setattr(mod, name, wrapper)


def count_calls(monkeypatch, module, name):
    """Count the calls of function ``name`` of the module named ``module``:
    the function is wrapped and every trusshom module attribute that
    aliases it is rebound to the wrapper.  Returns a one-item list
    holding the running count."""
    calls = [0]

    def wrap(orig):
        def counted(*args, **kwargs):
            calls[0] += 1
            return orig(*args, **kwargs)

        return counted

    _rebind(monkeypatch, module, name, wrap)
    return calls


def record_calls(monkeypatch, module, name):
    """Like ``count_calls``, but returns the list to which each call
    appends its ``(args, result)``."""
    calls = []

    def wrap(orig):
        def recorded(*args, **kwargs):
            result = orig(*args, **kwargs)
            calls.append((args, result))
            return result

        return recorded

    _rebind(monkeypatch, module, name, wrap)
    return calls


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


def dense_homology(c) -> dict:
    """Reference homology of a ChainComplex, by the dense route the
    package once took: the full kernel basis in every degree (all unit
    vectors where d_k = 0), each vector reduced against a re-eliminated
    image of d_{k+1}, and the residues echelonised again.  Returns
    ``{k: (betti, image basis, representatives)}``; the complex's own
    kept eliminations are not read."""
    out = {}
    for k in range(c.top_degree + 1):
        n = c.dims.get(k, 0)
        kern = kernel_basis(c.boundary(k))
        img = echelon(c.boundary(k + 1))
        residues = [r for v in kern if any(r := img.reduce(v))]
        reps = echelon(SparseMatrix.from_columns(residues, n)).basis()
        assert len(reps) == len(kern) - img.rank
        out[k] = (len(reps), img.basis(), reps)
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
# general quotient oracle (orthogonal complements, Gram solves)
# ---------------------------------------------------------------------------


def _orthogonal_presentation(phi: SparseMatrix):
    """(projection, section) for the quotient of the target of ``phi`` by
    its image: the section's columns span ker(phi^T), the orthogonal
    complement; the projection solves the Gram system, so projection .
    section = identity and projection . phi = 0 exactly."""
    complement = kernel_basis(phi.transpose())
    w = SparseMatrix.from_columns(complement, phi.rows)
    gram = w.transpose() @ w
    proj_rows = []
    wt = w.transpose()
    for col in range(phi.rows):
        rhs = [wt.get(i, col) for i in range(wt.rows)]
        sol = solve_particular(gram, rhs)
        if sol is None:
            raise InternalCheckError("Gram system unsolvable for quotient projection")
        proj_rows.append(sol)
    entries = {
        (i, j): proj_rows[j][i]
        for j in range(phi.rows)
        for i in range(w.cols)
        if proj_rows[j][i]
    }
    projection = SparseMatrix(w.cols, phi.rows, entries)
    return projection, w


def quotient_cosheaf(incl: CosheafMap) -> QuotientPresentation:
    """Quotient of the target cosheaf by any stalkwise-injective inclusion.

    Checks injectivity of every stalk component and the commuting
    squares, then builds quotient stalks of dimension dim G - dim F with
    induced maps (verified to kill the included image).  The package
    quotients only by subcomplexes; this general construction is the
    second route the tests compare it against."""
    bad = check_cosheaf_map(incl)
    if bad:
        raise PreconditionError(
            f"inclusion is not a cosheaf map; {len(bad)} commuting squares fail"
        )
    f, g = incl.source, incl.target
    projections = {}
    sections = {}
    qdims = {}
    for c in g.base.cells():
        phi = incl.component(c)
        if rank(phi) != phi.cols:
            raise PreconditionError(f"inclusion is not injective at {c}")
        proj, sect = _orthogonal_presentation(phi)
        if not (proj @ phi).is_zero():
            raise InternalCheckError(f"projection does not kill the image at {c}")
        if proj @ sect != SparseMatrix.identity(proj.rows):
            raise InternalCheckError(f"projection . section != identity at {c}")
        projections[c] = proj
        sections[c] = sect
        qdims[c] = g.stalk_dims[c] - f.stalk_dims[c]
    qmaps = {}
    for hi, lo, _ in incidence_pairs(g.base):
        induced = projections[lo] @ g.maps[(hi, lo)] @ sections[hi]
        killed = projections[lo] @ g.maps[(hi, lo)] @ incl.component(hi)
        if not killed.is_zero():
            raise InternalCheckError(f"induced map at {hi} > {lo} is not well-defined")
        qmaps[(hi, lo)] = induced
    quotient = Cosheaf(g.base, qdims, qmaps)
    qp = QuotientPresentation(incl, quotient, projections, sections)
    if check_cosheaf_map(qp.projection_map()):
        raise InternalCheckError("quotient projection is not a cosheaf map")
    return qp


# ---------------------------------------------------------------------------
# per-stress force-diagram oracle (one stress at a time, no kept tables)
# ---------------------------------------------------------------------------


def _oracle_selfstress(x, emb, stress):
    if len(stress) != x.nedges:
        raise InputError(f"stress has {len(stress)} entries for {x.nedges} edges")
    s = [Q(v) for v in stress]
    net = [Q(0)] * (2 * x.nverts)
    for e, (t, h) in enumerate(x.edges):
        vec = edge_vector(x, emb, e)
        for i in range(2):
            net[h * 2 + i] += s[e] * vec[i]
            net[t * 2 + i] -= s[e] * vec[i]
    if any(net):
        raise PreconditionError("stress is not a self-stress: nonzero joint forces")
    return s


def oracle_dual_tree(t: Truss, faces, edges, anchor, s) -> dict:
    """Dual-vertex positions of ``faces`` integrated from the stress ``s``
    along a depth-first spanning tree built for this one stress, with
    the closure over every dual edge checked exactly."""
    x = t.complex
    sides = {e: x.left_right_faces(e) for e in edges}
    steps = {}
    adj = {f: [] for f in faces}
    for e, (fl, fr) in sides.items():
        if fl not in adj or fr not in adj:
            raise InternalCheckError(f"edge {e} touches a face outside the dual region")
        vec = edge_vector(x, t.embedding, e)
        steps[e] = step = (s[e] * vec[0], s[e] * vec[1])
        adj[fl].append((fr, (-step[0], -step[1])))
        adj[fr].append((fl, step))
    q = {anchor: (Q(0), Q(0))}
    stack = [anchor]
    while stack:
        cur = stack.pop()
        for nxt, step in adj[cur]:
            if nxt not in q:
                q[nxt] = (q[cur][0] + step[0], q[cur][1] + step[1])
                stack.append(nxt)
    if len(q) != len(adj):
        raise InternalCheckError("dual graph is disconnected")
    for e, (fl, fr) in sides.items():
        if (q[fl][0] - q[fr][0], q[fl][1] - q[fr][1]) != steps[e]:
            raise InternalCheckError(f"dual tree integration failed to close at edge {e}")
    return q


def oracle_force_positions(t: Truss, stress) -> tuple:
    """Force-diagram positions of one self-stress, anchored at the
    exterior face, building the dual and every edge vector afresh."""
    x = t.complex
    s = _oracle_selfstress(x, t.embedding, stress)
    poincare_dual(x)
    q = oracle_dual_tree(t, range(x.nfaces), range(x.nedges), x.exterior_face, s)
    return tuple(q[f] for f in range(x.nfaces))


def oracle_stress_from_positions(t: Truss, positions) -> list:
    """The stress read back from one parallel dual realization."""
    x = t.complex
    if len(positions) != x.nfaces:
        raise InputError(f"{len(positions)} dual positions for {x.nfaces} faces")
    pos = [(Q(p[0]), Q(p[1])) for p in positions]
    s = []
    for e in range(x.nedges):
        fl, fr = x.left_right_faces(e)
        d = (pos[fl][0] - pos[fr][0], pos[fl][1] - pos[fr][1])
        vec = edge_vector(x, t.embedding, e)
        if d[0] * vec[1] - d[1] * vec[0] != 0:
            raise PreconditionError(f"dual positions are not parallel to primal edge {e}")
        s.append((d[0] * vec[0] + d[1] * vec[1]) / (vec[0] * vec[0] + vec[1] * vec[1]))
    _oracle_selfstress(x, t.embedding, s)
    return s


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
