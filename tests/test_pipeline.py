"""Randomized end-to-end cross-validations.

Each test drives a whole pipeline on randomized structures and verifies
the outcome against a naive, machinery-free recomputation: shoelace
counts for faces, per-joint force sums, cross products for parallelism,
rank arguments for representative independence.
"""

from fractions import Fraction

from trusshom.complexes import euler_char, planar_faces, poincare_dual
from trusshom.cosheaves import (
    Subcomplex,
    boundary_matrices,
    force_cosheaf,
    quotient_by_subcomplex,
)
from trusshom.duality import (
    FormDiagram,
    force_diagram_from_stress,
    form_diagram,
    position_cosheaf,
    stress_from_force_diagram,
)
from trusshom.homology import betti_numbers, homology, les_dimension_check
from trusshom.samples import wheel5
from trusshom.sparse import SparseMatrix, rank
from trusshom.statics import (
    Truss,
    analyze,
    decompose_boundary,
    equilibrium_stresses,
    force_chain_complex,
)

from conftest import quotient_cosheaf, random_form_truss, random_truss

Q = Fraction


def test_random_forms_face_count_matches_euler(rng):
    for _ in range(15):
        t = random_form_truss(rng)
        x = t.complex
        assert x.nfaces == 2 - x.nverts + x.nedges
        # exactly one clockwise (exterior) face; shoelace recomputed here
        areas = []
        for cyc in x.faces:
            area = Q(0)
            for e, s in cyc:
                a, b = x.edges[e]
                p, q = t.embedding.p(a), t.embedding.p(b)
                if s < 0:
                    p, q = q, p
                area += p[0] * q[1] - p[1] * q[0]
            areas.append(area)
        assert sum(areas) == 0
        assert sum(1 for a in areas if a < 0) == 1
        assert areas[x.exterior_face] < 0


def test_random_forms_dual_roundtrip_and_validity(rng):
    for _ in range(12):
        t = random_form_truss(rng)
        dual = poincare_dual(t.complex)
        assert dual.is_closed_surface()
        assert euler_char(dual) == 2
        ddual = poincare_dual(dual)
        assert (ddual.nverts, ddual.nedges, ddual.nfaces) == (
            t.complex.nverts,
            t.complex.nedges,
            t.complex.nfaces,
        )
        assert ddual.edges == t.complex.edges


def test_random_forms_selfstress_diagrams_close_and_parallel(rng):
    built = 0
    for _ in range(30):
        t = random_form_truss(rng)
        fd = FormDiagram(t)
        rep = analyze(t)
        for s in rep.self_stress_basis:
            diag = force_diagram_from_stress(fd, s)
            x = fd.complex
            for e in range(x.nedges):
                fl, fr = x.left_right_faces(e)
                d = (
                    diag.positions[fl][0] - diag.positions[fr][0],
                    diag.positions[fl][1] - diag.positions[fr][1],
                )
                vec = fd.edge_vec(e)
                assert d[0] * vec[1] - d[1] * vec[0] == 0  # exact parallelism
            assert stress_from_force_diagram(fd, diag.positions) == list(s)
            built += 1
    assert built >= 10  # hub fans always carry at least one self-stress


def test_random_trusses_dof_reps_independent_of_image(rng):
    for n in (2, 3):
        for _ in range(6):
            t = random_truss(rng, n, nverts=rng.randrange(5, 10))
            cc = force_chain_complex(t)
            h = homology(cc)
            reps = h.degrees[0].representatives
            img = h.degrees[0].image
            assert len(reps) == h.betti(0)
            joint = rank(SparseMatrix.from_columns(reps + img, cc.dims[0]))
            assert joint == len(reps) + len(img)


def test_random_subcomplex_triples_are_dimension_exact(rng):
    # restriction to ANY closed subcomplex (induced edges on a random
    # vertex subset) gives a triple whose homology dimensions telescope
    for n in (2, 3):
        for _ in range(8):
            t = random_truss(rng, n, nverts=rng.randrange(6, 12))
            x = t.complex
            keep = {
                v for v in range(x.nverts) if rng.random() < 0.5
            }
            edges = {
                e for e, (a, b) in enumerate(x.edges) if a in keep and b in keep
            }
            f = force_cosheaf(x, t.embedding)
            y = Subcomplex.of(x, keep, edges)
            rep = les_dimension_check(quotient_by_subcomplex(f, y))
            assert rep.alternating_sum == 0


def make_loaded_wheel_faced():
    inner = wheel5()
    pts = list(inner.embedding.positions) + [
        (Q(3), Q(3)), (Q(-3), Q(3)), (Q(-3), Q(-3)), (Q(3), Q(-3))
    ]
    edges = list(inner.complex.edges) + [
        (5, 6), (6, 7), (7, 8), (8, 5),
        (5, 1), (6, 2), (7, 3), (8, 4),
    ]
    emb_pts = pts
    from trusshom.complexes import build_complex, Embedding

    x = build_complex(9, edges)
    emb = Embedding.from_points(emb_pts)
    t = Truss(planar_faces(x, emb), emb)
    return t, (5, 6, 7, 8), (8, 9, 10, 11)


def test_loaded_wheel_relative_diagram_full_pipeline():
    # four connector lines of action all pass through the hub, so the
    # decomposed wheel keeps a rotation freedom and a 3-dimensional
    # equilibrium space (chi: 10 - 12 = -2 = b0 - b1 with b0 = 1)
    from trusshom.duality import relative_force_diagram

    t, lv, le = make_loaded_wheel_faced()
    dec = decompose_boundary(t, lv, le)
    basis = equilibrium_stresses(dec)
    rel_cc = boundary_matrices(dec.relative_cosheaf)
    b = betti_numbers(rel_cc)
    assert (b[0], b[1]) == (1, 3)
    assert len(basis) == 3
    for s in basis:
        rel = relative_force_diagram(dec, s)
        x = t.complex
        for e in range(x.nedges):
            if e in dec.loop.edges:
                continue
            fl, fr = x.left_right_faces(e)
            d = (
                rel.positions[fl][0] - rel.positions[fr][0],
                rel.positions[fl][1] - rel.positions[fr][1],
            )
            tl, hd = x.edges[e]
            vec = (
                t.embedding.p(hd)[0] - t.embedding.p(tl)[0],
                t.embedding.p(hd)[1] - t.embedding.p(tl)[1],
            )
            assert d == (s[e] * vec[0], s[e] * vec[1])


def test_position_quotient_consistent_with_generic_machinery(rng):
    # the hand-built perpendicular presentation and the generic orthogonal
    # quotient agree on all homology dimensions
    for _ in range(6):
        t = random_form_truss(rng)
        fd = form_diagram(t)
        pc = position_cosheaf(fd)
        generic = quotient_cosheaf(pc.presentation.inclusion)
        assert betti_numbers(boundary_matrices(generic.quotient)) == betti_numbers(
            pc.chain
        )
