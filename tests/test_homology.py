from fractions import Fraction

import pytest

from trusshom.complexes import build_complex
from trusshom.cosheaves import (
    Cosheaf,
    Subcomplex,
    boundary_matrices,
    constant_cosheaf,
    force_cosheaf,
    QuotientPresentation,
    incidence_pairs,
    quotient_by_subcomplex,
)
from trusshom.errors import InternalCheckError
from trusshom.homology import (
    ChainComplex,
    betti_numbers,
    check_euler_identity,
    euler_characteristic,
    homology,
    les_dimension_check,
)
from trusshom.samples import loaded_triangle, square4, wheel5
from trusshom.sparse import SparseMatrix, rank_modulo
from trusshom.statics import Truss, force_chain_complex

from conftest import flip_edge, flip_face, random_form_truss

Q = Fraction


def test_unit_constant_on_square_counts_components_and_cycles():
    cc = boundary_matrices(constant_cosheaf(square4().complex, 1))
    h = homology(cc)
    assert (h.betti(0), h.betti(1)) == (1, 1)


def test_force_wheel5_betti():
    h = homology(force_chain_complex(wheel5()))
    assert (h.betti(0), h.betti(1)) == (3, 1)


def test_constant_r2_wheel5_sphere():
    cc = boundary_matrices(constant_cosheaf(wheel5(with_faces=True).complex, 2))
    assert betti_numbers(cc) == (2, 0, 2)


def test_euler_wheel5_force():
    cc = force_chain_complex(wheel5())
    assert euler_characteristic(cc) == 10 - 8 == 2
    chk = check_euler_identity(cc)
    assert chk.chain_euler == chk.homology_euler == 2  # 3 - 1


def test_euler_zero_complex():
    cc = ChainComplex({0: 0, 1: 0}, {})
    assert euler_characteristic(cc) == 0
    assert check_euler_identity(cc).ok


def test_euler_two_disjoint_triangles():
    x = build_complex(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    cc = boundary_matrices(constant_cosheaf(x, 1))
    assert euler_characteristic(cc) == 0
    b = betti_numbers(cc)
    assert b == (2, 2)  # two components, two independent cycles
    assert b[0] - b[1] == 0


def test_homology_representatives_lie_in_kernel_mod_image():
    cc = boundary_matrices(constant_cosheaf(wheel5(with_faces=True).complex, 2))
    h = homology(cc)
    for k, deg in h.degrees.items():
        dk = cc.boundary(k)
        for rep in deg.representatives:
            assert not any(dk.apply(rep))
        if deg.representatives:
            assert (
                rank_modulo(deg.representatives, deg.image, cc.dims[k])
                == deg.betti
            )


def test_rejects_nonzero_boundary_composition():
    d2 = SparseMatrix.from_rows([[1], [0]])
    d1 = SparseMatrix.from_rows([[1, 1]])
    with pytest.raises(InternalCheckError, match="nonzero"):
        ChainComplex({0: 1, 1: 2, 2: 1}, {1: d1, 2: d2})


def test_betti_invariant_under_orientation_flips(rng):
    t = wheel5(with_faces=True)
    base = betti_numbers(boundary_matrices(force_cosheaf(t.complex, t.embedding)))
    for e in range(t.complex.nedges):
        y = flip_edge(t.complex, e)
        assert (
            betti_numbers(boundary_matrices(force_cosheaf(y, t.embedding))) == base
        )
    for f in range(t.complex.nfaces):
        y = flip_face(t.complex, f)
        assert (
            betti_numbers(boundary_matrices(force_cosheaf(y, t.embedding))) == base
        )


def random_graph_cosheaf(rng, x, max_dim=4):
    """Fully random stalks and matrices; faces (if any) carry zero stalks
    so the two composite routes through any corner are both empty."""
    stalks = {}
    for v in x.vertex_ids():
        stalks[v] = rng.randrange(0, max_dim + 1)
    for e in x.edge_ids():
        stalks[e] = rng.randrange(0, max_dim + 1)
    for f in x.face_ids():
        stalks[f] = 0
    maps = {}
    for hi, lo, _ in incidence_pairs(x):
        entries = {}
        for i in range(stalks[lo]):
            for j in range(stalks[hi]):
                if rng.random() < 0.6:
                    entries[(i, j)] = Q(rng.randrange(-4, 5), rng.choice([1, 1, 2]))
        maps[(hi, lo)] = SparseMatrix(stalks[lo], stalks[hi], entries)
    return Cosheaf(x, stalks, maps)


def test_euler_identity_on_random_cosheaves(rng):
    for _ in range(25):
        t = random_form_truss(rng)
        f = random_graph_cosheaf(rng, t.complex)
        cc = boundary_matrices(f)
        assert check_euler_identity(cc).ok


def test_les_with_zero_subcosheaf_degenerates():
    t = wheel5()
    f = force_cosheaf(t.complex, t.embedding)
    rep = les_dimension_check(quotient_by_subcomplex(f, Subcomplex.of(t.complex)))
    assert rep.exactness_consistent
    assert rep.dims_sub == (0, 0)
    assert rep.dims_quotient == rep.dims_total  # H_k(B) isomorphic H_k(B/A)


def test_les_loaded_triangle_alternating_sum_and_injectivity():
    (t, lv, le) = loaded_triangle(with_faces=False)
    f = force_cosheaf(t.complex, t.embedding)
    rep = les_dimension_check(quotient_by_subcomplex(f, Subcomplex.of(t.complex, lv, le)))
    assert rep.alternating_sum == 0
    # self-stresses of the whole structure embed into the equilibrium states
    assert rep.h1_projection_injective


def test_les_rejects_a_projection_that_is_not_a_chain_map():
    # doubling one quotient map off the loop keeps d∘d = 0 but breaks
    # P_0 d_1 == d_1^Q P_1 at that incidence
    (t, lv, le) = loaded_triangle(with_faces=False)
    f = force_cosheaf(t.complex, t.embedding)
    y = Subcomplex.of(t.complex, lv, le)
    qp = quotient_by_subcomplex(f, y)
    assert les_dimension_check(qp).exactness_consistent
    q = qp.quotient
    key, m = next((k, m) for k, m in q.maps.items() if not m.is_zero())
    maps = dict(q.maps)
    maps[key] = SparseMatrix(m.rows, m.cols, {ij: 2 * v for ij, v in m.entries.items()})
    broken = QuotientPresentation(
        qp.inclusion, Cosheaf(q.base, q.stalk_dims, maps), qp.projections, qp.sections
    )
    with pytest.raises(InternalCheckError, match="does not commute with the degree-1"):
        les_dimension_check(broken)


def test_les_wheel5_position_triple_satisfies_both_splits():
    x = wheel5(with_faces=True).complex
    emb = wheel5().embedding
    from trusshom.duality import FormDiagram, position_cosheaf

    pc = position_cosheaf(FormDiagram(Truss(x, emb)))
    rep = les_dimension_check(pc.presentation)
    assert rep.alternating_sum == 0
    d_f, d_r2, d_g = rep.dims_sub, rep.dims_total, rep.dims_quotient
    assert d_g[2] == d_f[1] + d_r2[2]          # dual realizations split
    assert d_g[1] == d_f[0] - d_r2[0]          # impossible rotations split
    assert (d_r2[0], d_r2[1], d_r2[2]) == (2, 0, 2)
