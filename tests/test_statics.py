from fractions import Fraction

import pytest

from trusshom.complexes import Embedding, build_complex
from trusshom.cosheaves import Subcomplex, boundary_matrices, force_cosheaf, quotient_by_subcomplex
from trusshom.documents import document_to_form_diagram, document_to_truss, parse_truss_document
from trusshom.errors import PreconditionError
from trusshom.homology import betti_numbers, les_dimension_check
from trusshom.samples import (
    collinear3,
    loaded_triangle,
    single_edge,
    square4,
    tri3,
    wheel5,
)
from trusshom.statics import (
    Truss,
    analyze,
    decompose_boundary,
    equilibrium_stresses,
    force_chain_complex,
    maxwell_report,
    rigid_motion_basis,
)

from conftest import REPO, count_calls, dense_nullity, matrix_rows, random_truss

Q = Fraction


def normalize_by_first(vec):
    lead = next(v for v in vec if v)
    return [v / lead for v in vec]


def test_analyze_wheel5():
    rep = analyze(wheel5())
    assert rep.betti == (3, 1)
    (s,) = rep.self_stress_basis
    s = normalize_by_first(s)
    assert s[:4] == [Q(1)] * 4 and s[4:] == [Q(-1, 2)] * 4


def test_analyze_tri3():
    rep = analyze(tri3())
    assert rep.betti == (3, 0)
    assert rep.self_stress_basis == []


def test_analyze_collinear3_exact():
    rep = analyze(collinear3())
    assert rep.betti == (4, 1)
    (s,) = rep.self_stress_basis
    assert normalize_by_first(s) == [Q(1), Q(1), Q(-1, 2)]


def test_self_stresses_balance_every_joint():
    for t in (wheel5(), collinear3()):
        cc = force_chain_complex(t)
        for s in analyze(t).self_stress_basis:
            assert not any(cc.boundary(1).apply(s))


def test_maxwell_wheel5():
    mr = maxwell_report(wheel5())
    assert (mr.mechanisms, mr.self_stresses) == (0, 1)
    assert mr.residual == 0
    assert mr.identity_line == "2*5 - 8 = 2 = 3 + 0 - 1"


def test_maxwell_square_shear():
    mr = maxwell_report(square4())
    assert (mr.mechanisms, mr.self_stresses) == (1, 0)
    assert mr.residual == 0
    # oracle: rank of the 8x4 matrix is 4
    cc = force_chain_complex(square4())
    assert dense_nullity(matrix_rows(cc.boundary(1))) == 0


def test_maxwell_single_edge_r3_degenerate():
    mr = maxwell_report(single_edge(3))
    assert mr.degenerate_span
    assert mr.mechanisms is None
    assert (mr.betti0, mr.betti1) == (5, 0)
    assert 3 * 2 - 1 == 5 == mr.betti0 - mr.betti1


def test_maxwell_randomized_small(rng):
    for n in (2, 3):
        for _ in range(10):
            t = random_truss(rng, n, nverts=rng.randrange(5, 12))
            mr = maxwell_report(t)
            lhs = n * t.complex.nverts - t.complex.nedges
            assert lhs == mr.betti0 - mr.betti1
            if not mr.degenerate_span:
                assert mr.residual == 0


def test_rigid_motions_annihilate_edge_pairings(rng):
    for n in (2, 3):
        t = random_truss(rng, n, nverts=8)
        for u in rigid_motion_basis(t):
            for (a, b) in t.complex.edges:
                du = [u[b * n + i] - u[a * n + i] for i in range(n)]
                vec = [
                    t.embedding.p(b)[i] - t.embedding.p(a)[i] for i in range(n)
                ]
                assert sum(d * v for d, v in zip(du, vec)) == 0


def test_decompose_loaded_triangle_support():
    (t, lv, le) = loaded_triangle(with_faces=False)
    dec = decompose_boundary(t, lv, le)
    assert dec.connector_edges == (7, 8, 9)
    cc = boundary_matrices(dec.relative_cosheaf)
    assert cc.dims[0] == 6  # three interior vertices
    assert cc.dims[1] == 6  # three members plus three connectors


def test_decompose_empty_loop_is_trivial():
    t = wheel5()
    dec = decompose_boundary(t, (), ())
    assert dec.connector_edges == ()
    assert betti_numbers(boundary_matrices(dec.relative_cosheaf)) == betti_numbers(
        force_chain_complex(t)
    )
    assert len(equilibrium_stresses(dec)) == 1  # reduces to the self-stress count


def test_decompose_rejects_dangling_loop_edge():
    (t, lv, le) = loaded_triangle(with_faces=False)
    with pytest.raises(PreconditionError, match="degree exactly 2"):
        decompose_boundary(t, lv + (0,), le + (7,))  # attach a path edge


def test_decompose_rejects_self_stressed_loop():
    # collinear loop would be rejected as not-a-cycle first; build a loop
    # with a chord-free cycle but collinear geometry to trip the
    # self-stress check is impossible for a plain cycle, so check the
    # cycle validation instead: two disjoint duals
    x = build_complex(
        6,
        [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)],
    )
    emb = Embedding.from_points(
        [(0, 0), (4, 0), (2, 3), (10, 0), (14, 0), (12, 3)]
    )
    t = Truss(x, emb)
    with pytest.raises(PreconditionError, match="single cycle"):
        decompose_boundary(t, (0, 1, 2, 3, 4, 5), (0, 1, 2, 3, 4, 5))


def test_equilibrium_loaded_triangle_dimension_and_balance():
    (t, lv, le) = loaded_triangle(with_faces=False)
    dec = decompose_boundary(t, lv, le)
    basis = equilibrium_stresses(dec)
    assert len(basis) == 1
    (s,) = basis
    assert all(s[e] == 0 for e in le)  # supported off the loop
    # restricted to interior joints, the load state balances exactly
    emb = t.embedding
    for v in (0, 1, 2):
        net = [Q(0), Q(0)]
        for e, (a, b) in enumerate(t.complex.edges):
            vec = [emb.p(b)[i] - emb.p(a)[i] for i in range(2)]
            if b == v:
                net = [net[i] + s[e] * vec[i] for i in range(2)]
            if a == v:
                net = [net[i] - s[e] * vec[i] for i in range(2)]
        assert net == [0, 0]


def test_equilibrium_isostatic_no_connectors_dim_zero():
    dec = decompose_boundary(tri3(), (), ())
    assert equilibrium_stresses(dec) == []


def make_loaded_wheel():
    """wheel5 inside a square loop, one connector per rim vertex: the
    full structure keeps its internal self-stress."""
    inner = wheel5()
    pts = list(inner.embedding.positions) + [
        (Q(3), Q(3)), (Q(-3), Q(3)), (Q(-3), Q(-3)), (Q(3), Q(-3))
    ]
    edges = list(inner.complex.edges) + [
        (5, 6), (6, 7), (7, 8), (8, 5),
        (5, 1), (6, 2), (7, 3), (8, 4),
    ]
    t = Truss(build_complex(9, edges), Embedding.from_points(pts))
    return t, (5, 6, 7, 8), (8, 9, 10, 11)


def test_loaded_wheel_h1_injectivity_with_nonzero_selfstress():
    t, lv, le = make_loaded_wheel()
    f = force_cosheaf(t.complex, t.embedding)
    rep = les_dimension_check(quotient_by_subcomplex(f, Subcomplex.of(t.complex, lv, le)))
    assert rep.alternating_sum == 0
    assert rep.dims_total[1] >= 1  # the wheel's self-stress survives in X
    assert rep.h1_projection_injective
    assert rep.rank_h1_projection == rep.dims_total[1]


def test_restriction_plus_quotient_dimensions_add():
    (t, lv, le) = loaded_triangle(with_faces=False)
    f = force_cosheaf(t.complex, t.embedding)
    y = Subcomplex.of(t.complex, lv, le)
    qp = quotient_by_subcomplex(f, y)
    cf = boundary_matrices(f)
    cy = boundary_matrices(qp.inclusion.source)
    cq = boundary_matrices(qp.quotient)
    for k in (0, 1):
        assert cy.dims[k] + cq.dims[k] == cf.dims[k]


def test_decompose_boundary_eliminates_only_the_loop_betti_numbers(monkeypatch):
    # the quotient by the loop is built without elimination; what remains
    # is one rank per degree of the loop's own complex (3 as a graph, 4
    # with its traced faces)
    doc = parse_truss_document((REPO / "fixtures" / "loaded1.json").read_text())
    for loaded in (document_to_truss(doc), document_to_form_diagram(doc)[1]):
        calls = count_calls(monkeypatch, "trusshom.sparse", "_eliminate")
        loaded.boundary_decomposition()
        assert calls[0] <= 4
        monkeypatch.undo()
