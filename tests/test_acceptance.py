"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is zero: all arithmetic is exact rational, so equalities
are asserted with ==, never approximately.
"""

import functools
import random
import re
from fractions import Fraction

from trusshom.complexes import build_complex
from trusshom.cosheaves import (
    Cosheaf,
    boundary_matrices,
    constant_cosheaf,
    force_cosheaf,
    incidence_pairs,
    quotient_cosheaf,
    restrict_to_subcomplex,
    spline_cosheaf,
    Subcomplex,
)
from trusshom.duality import (
    FormDiagram,
    check_form_finding_safety,
    force_diagram_from_stress,
    form_diagram,
    impossible_rotation_basis,
    motion_to_rotation_class,
    position_cosheaf,
    rot90,
    stress_from_force_diagram,
)
from trusshom.homology import betti_numbers, check_euler_identity, homology, les_dimension_check
from trusshom.samples import collinear3, loaded_triangle, square4, tri3_spherical, wheel5
from trusshom.sparse import SparseMatrix, image_basis, kernel_basis, rank, rank_modulo
from trusshom.statics import analyze, force_chain_complex, maxwell_report

from conftest import dense_nullity, flip_edge, flip_face, random_form_truss, random_truss, run_cli

Q = Fraction


def criterion(num, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE FAIL criterion {num}: {title}")
                raise
            print(f"\nACCEPTANCE PASS criterion {num}: {title}")

        return wrapper

    return deco


def form_corpus(seed=424242, count=20):
    rng = random.Random(seed)
    forms = [form_diagram(wheel5()), form_diagram(square4()), FormDiagram(tri3_spherical())]
    while len(forms) < count + 3:
        forms.append(FormDiagram(random_form_truss(rng)))
    return forms


@criterion(1, "wheel5 boundary matrix is 10x8 with nullity 1 and three freedoms")
def test_c01_wheel5_reproduction():
    t = wheel5()
    cc = force_chain_complex(t)
    assert cc.boundary(1).shape == (10, 8)
    b = betti_numbers(cc)
    assert b[1] == 1  # nullity of the equilibrium matrix
    assert b[0] == 3  # two translational and one rotational freedom
    assert len(kernel_basis(cc.boundary(1))) == 1


@criterion(2, "Maxwell identity exact on 100 random trusses in each of R^2 and R^3")
def test_c02_maxwell_randomized():
    rng = random.Random(31415)
    for n in (2, 3):
        for _ in range(100):
            t = random_truss(rng, n)
            assert 5 <= t.complex.nverts <= 30
            b = betti_numbers(force_chain_complex(t))
            assert n * t.complex.nverts - t.complex.nedges - (b[0] - b[1]) == 0


def random_cosheaf(rng, x):
    """Random stalk dims <= 4 with fully random rational matrices.

    Face stalks come from a constant-cosheaf summand (identity maps);
    vertex/edge stalks additionally carry a free random summand.  The
    direct sum is assembled by hand as block-diagonal matrices."""
    m = rng.randrange(0, 3)
    stalks = {}
    for c in x.cells():
        extra = rng.randrange(0, 3 - (1 if c.dim < 2 else 2)) if c.dim < 2 else 0
        stalks[c] = m + (extra if c.dim < 2 else 0)
    maps = {}
    for hi, lo, _ in incidence_pairs(x):
        entries = {}
        for i in range(m):  # constant summand: identity block
            entries[(i, i)] = Q(1)
        for i in range(stalks[lo]):  # random block, may overlap rows below m
            for j in range(m, stalks[hi]):
                if rng.random() < 0.7:
                    entries[(i, j)] = Q(rng.randrange(-4, 5), rng.choice([1, 1, 2, 3]))
        maps[(hi, lo)] = SparseMatrix(stalks[lo], stalks[hi], entries)
    return Cosheaf(x, stalks, maps)


@criterion(3, "chain and homology Euler characteristics agree on 100 random cosheaves")
def test_c03_euler_identity_random_cosheaves():
    rng = random.Random(27182)
    checked = 0
    while checked < 100:
        base = random_form_truss(rng).complex
        f = random_cosheaf(rng, base)
        cc = boundary_matrices(f)
        chk = check_euler_identity(cc)
        assert chk.chain_euler == chk.homology_euler
        checked += 1


@criterion(4, "boundary compositions vanish and Betti numbers survive orientation flips")
def test_c04_chain_soundness_and_flip_invariance():
    rng = random.Random(16180)
    corpus = []
    for t in (wheel5(with_faces=True), square4(with_faces=True), tri3_spherical()):
        corpus.append((t.complex, force_cosheaf(t.complex, t.embedding)))
        corpus.append((t.complex, constant_cosheaf(t.complex, 2)))
    for _ in range(6):
        t = random_form_truss(rng)
        corpus.append((t.complex, force_cosheaf(t.complex, t.embedding)))
        corpus.append((t.complex, random_cosheaf(rng, t.complex)))
    for x, f in corpus:
        cc = boundary_matrices(f)
        if 2 in cc.boundaries:
            assert (cc.boundary(1) @ cc.boundary(2)).is_zero()

    # orientation flips: every edge and every face, on two spherical fixtures
    for t in (wheel5(with_faces=True), square4(with_faces=True)):
        base = betti_numbers(boundary_matrices(force_cosheaf(t.complex, t.embedding)))
        base_c = betti_numbers(boundary_matrices(constant_cosheaf(t.complex, 2)))
        for e in range(t.complex.nedges):
            y = flip_edge(t.complex, e)
            assert betti_numbers(boundary_matrices(force_cosheaf(y, t.embedding))) == base
            assert betti_numbers(boundary_matrices(constant_cosheaf(y, 2))) == base_c
        for fidx in range(t.complex.nfaces):
            y = flip_face(t.complex, fidx)
            assert betti_numbers(boundary_matrices(force_cosheaf(y, t.embedding))) == base
            assert betti_numbers(boundary_matrices(constant_cosheaf(y, 2))) == base_c


@criterion(5, "dual realizations: dimension split and exact roundtrips on 20+ forms")
def test_c05_dual_realizations():
    for fd in form_corpus():
        pc = position_cosheaf(fd)
        bf = betti_numbers(pc.force_chain)
        h2g = pc.chain.dims[2] - rank(pc.boundary2())
        assert h2g == bf[1] + 2

        rep = analyze(fd.truss)
        for s in rep.self_stress_basis:
            diag = force_diagram_from_stress(fd, s)
            assert stress_from_force_diagram(fd, diag.positions) == list(s)

        # diagram -> stress -> diagram, after translating the anchor
        x = fd.complex
        for vec in kernel_basis(pc.boundary2()):
            q = [(vec[2 * i], vec[2 * i + 1]) for i in range(x.nfaces)]
            s = stress_from_force_diagram(fd, q)
            diag = force_diagram_from_stress(fd, s)
            anchor = q[x.exterior_face]
            assert [
                (p[0] - anchor[0], p[1] - anchor[1]) for p in q
            ] == list(diag.positions)


@criterion(6, "impossible rotations: dimension split, wheel rotation spans, square shear independent")
def test_c06_impossible_rotations():
    for fd in form_corpus():
        pc = position_cosheaf(fd)
        bf = betti_numbers(pc.force_chain)
        assert impossible_rotation_basis(pc).dim == bf[0] - 2

    fd = form_diagram(wheel5())
    pc = position_cosheaf(fd)
    assert impossible_rotation_basis(pc).dim == 1
    u = [rot90(fd.embedding.p(v)) for v in range(5)]
    mc = motion_to_rotation_class(pc, u)
    assert not mc.is_zero
    img = image_basis(pc.boundary2())
    assert rank_modulo([mc.chain], img, 8) == 1  # spans the 1-dimensional space

    fs = form_diagram(square4())
    ps = position_cosheaf(fs)
    shear = [(Q(0), Q(0)), (Q(0), Q(0)), (Q(1), Q(0)), (Q(1), Q(0))]
    rot = [rot90(fs.embedding.p(v)) for v in range(4)]
    m_shear = motion_to_rotation_class(ps, shear)
    m_rot = motion_to_rotation_class(ps, rot)
    assert not m_shear.is_zero and not m_rot.is_zero
    imgs = image_basis(ps.boundary2())
    assert rank_modulo([m_shear.chain, m_rot.chain], imgs, 4) == 2


@criterion(7, "dual repositionings never induce motion: 100 random checks per fixture")
def test_c07_form_finding_safety():
    rng = random.Random(57721)
    fixtures = [
        form_diagram(wheel5()),
        form_diagram(square4()),
        FormDiagram(tri3_spherical()),
        FormDiagram(loaded_triangle(with_faces=True)[0]),
    ]
    for fd in fixtures:
        pc = position_cosheaf(fd)
        nf = fd.complex.nfaces
        for _ in range(100):
            zeta = [
                (
                    Q(rng.randrange(-20, 21), rng.choice([1, 2, 3, 5])),
                    Q(rng.randrange(-20, 21), rng.choice([1, 2, 3, 5])),
                )
                for _ in range(nf)
            ]
            assert check_form_finding_safety(pc, zeta)


@criterion(8, "boundary sequence: alternating sum zero and self-stresses inject into equilibria")
def test_c08_boundary_conditions():
    t, lv, le = loaded_triangle(with_faces=False)
    f = force_cosheaf(t.complex, t.embedding)
    y = Subcomplex.of(t.complex, lv, le)
    _, incl = restrict_to_subcomplex(f, y)
    qp = quotient_cosheaf(incl)
    rep = les_dimension_check(incl, qp)
    # five nonzero terms: H1(X), H1(X-Y), H0(Y), H0(X), H0(X-Y)
    d_sub, d_tot, d_quo = rep.dims_sub, rep.dims_total, rep.dims_quotient
    assert d_sub[1] == 0  # the loop carries no self-stress
    five_term = d_tot[1] - d_quo[1] + d_sub[0] - d_tot[0] + d_quo[0]
    assert five_term == 0
    assert rep.alternating_sum == 0
    assert rep.rank_h1_projection == d_tot[1]  # injectivity at full rank


@criterion(9, "spline space on the triangle cycle matches brute-force enumeration")
def test_c09_spline_cosheaf():
    x = build_complex(3, [(0, 1), (1, 2), (2, 0)])
    k = spline_cosheaf(x, 1, 0)
    cc = boundary_matrices(k)
    h = homology(cc)

    # independent oracle: enumerate the coefficient constraints directly.
    # Unknowns (a_e, b_e) per edge, polynomial a + b t; at each vertex the
    # incoming edge's value at its endpoint equals the outgoing edge's.
    # Edge e=(t,h) evaluates to a at t (parameter 0) and a+b at h (1).
    rows = []
    def val_coeffs(eidx, at_head):
        row = [Q(0)] * 6
        row[2 * eidx] = Q(1)
        if at_head:
            row[2 * eidx + 1] = Q(1)
        return row

    for v in range(3):
        incoming = [e for e, (a, b) in enumerate(x.edges) if b == v]
        outgoing = [e for e, (a, b) in enumerate(x.edges) if a == v]
        r_in = val_coeffs(incoming[0], True)
        r_out = val_coeffs(outgoing[0], False)
        rows.append([ri - ro for ri, ro in zip(r_in, r_out)])
    oracle_dim = dense_nullity(rows)
    assert h.betti(1) == oracle_dim == 3

    # decoded representatives match in value at every vertex, exactly
    for vec in h.degrees[1].representatives:
        polys = [(vec[2 * e], vec[2 * e + 1]) for e in range(3)]
        for v in range(3):
            vals = []
            for e, (tl, hd) in enumerate(x.edges):
                a, b = polys[e]
                if tl == v:
                    vals.append(a)
                if hd == v:
                    vals.append(a + b)
            assert vals[0] == vals[1]


@criterion(10, "collinear members classified exactly: one self-stress, four freedoms")
def test_c10_degenerate_geometry():
    t = collinear3()
    rep = analyze(t)
    assert rep.betti1 == 1
    assert rep.betti0 == 4
    b = betti_numbers(force_chain_complex(t))
    assert 2 * 3 - 3 - (b[0] - b[1]) == 0  # Maxwell identity still exact
    mr = maxwell_report(t)
    assert mr.degenerate_span  # flagged, not misclassified


@criterion(11, "CLI byte-determinism and exact dual/primal parallelism in the SVGs")
def test_c11_cli_end_to_end(tmp_path):
    a1 = run_cli("analyze", "fixtures/wheel5.json")
    a2 = run_cli("analyze", "fixtures/wheel5.json")
    assert a1.returncode == a2.returncode == 0
    assert a1.stdout == a2.stdout

    svg1 = tmp_path / "one.svg"
    svg2 = tmp_path / "two.svg"
    d1 = run_cli("dual", "fixtures/wheel5.json", "--stress", "0", "--svg", str(svg1))
    d2 = run_cli("dual", "fixtures/wheel5.json", "--stress", "0", "--svg", str(svg2))
    assert d1.returncode == d2.returncode == 0
    assert d1.stdout == d2.stdout
    assert svg1.read_bytes() == svg2.read_bytes()

    form_svg = tmp_path / "form.svg"
    f1 = run_cli("analyze", "fixtures/wheel5.json", "--svg", str(form_svg))
    assert f1.returncode == 0

    def exact_segments(text):
        segs = {}
        for m in re.finditer(r'data-edge="([^"]+)" data-exact="([^"]+)"', text):
            a, b, c, d = (Q(v) for v in m.group(2).split())
            segs[m.group(1)] = ((a, b), (c, d))
        return segs

    prim = exact_segments(form_svg.read_text())
    dual = exact_segments(svg1.read_text())
    assert set(prim) == set(dual) and len(prim) == 8
    for tag in prim:
        (a1p, b1p), (a2p, b2p) = prim[tag], dual[tag]
        v1 = (b1p[0] - a1p[0], b1p[1] - a1p[1])
        v2 = (b2p[0] - a2p[0], b2p[1] - a2p[1])
        assert v1[0] * v2[1] - v1[1] * v2[0] == 0  # rational cross product zero
