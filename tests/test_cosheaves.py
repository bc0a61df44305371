from fractions import Fraction

import pytest

from trusshom.complexes import Embedding, build_complex, ecell, vcell
from trusshom.cosheaves import (
    CosheafMap,
    Subcomplex,
    boundary_matrices,
    check_cosheaf_map,
    constant_cosheaf,
    force_cosheaf,
    identity_map,
    quotient_by_subcomplex,
    restrict_to_subcomplex,
    spline_cosheaf,
)
from trusshom.documents import document_to_form_diagram, parse_truss_document
from trusshom.duality import FormDiagram, position_cosheaf
from trusshom.errors import PreconditionError
from trusshom.homology import betti_numbers
from trusshom.samples import loaded_triangle, square4, tri3, wheel5
from trusshom.sparse import SparseMatrix, rank
from trusshom.statics import Truss

from conftest import REPO, dense_rank, matrix_rows, quotient_cosheaf, random_form_truss

Q = Fraction


def test_constant_cosheaf_unit_and_zero():
    x = wheel5(with_faces=True).complex
    one = constant_cosheaf(x, 1)
    assert all(d == 1 for d in one.stalk_dims.values())
    zero = constant_cosheaf(x, 0)
    assert betti_numbers(boundary_matrices(zero)) == (0, 0, 0)


def test_constant_r2_betti_on_sphere():
    x = wheel5(with_faces=True).complex
    cc = boundary_matrices(constant_cosheaf(x, 2))
    assert betti_numbers(cc) == (2, 0, 2)


def test_force_cosheaf_single_edge():
    t = Truss(build_complex(2, [(0, 1)]), Embedding.from_points([(0, 0), (1, 0)]))
    cc = boundary_matrices(force_cosheaf(t.complex, t.embedding))
    d1 = cc.boundary(1)
    assert d1.shape == (4, 1)
    col = [d1.get(i, 0) for i in range(4)]
    assert col == [Q(-1), Q(0), Q(1), Q(0)]  # -vec at tail, +vec at head
    assert rank(d1) == 1


def test_force_cosheaf_wheel5_and_tri3_shapes():
    t = wheel5()
    d1 = boundary_matrices(force_cosheaf(t.complex, t.embedding)).boundary(1)
    assert d1.shape == (10, 8)
    s = tri3()
    d1 = boundary_matrices(force_cosheaf(s.complex, s.embedding)).boundary(1)
    assert d1.shape == (6, 3)
    assert rank(d1) == 3


def test_force_boundary_matches_naive_net_force():
    t = wheel5()
    x, emb = t.complex, t.embedding
    cc = boundary_matrices(force_cosheaf(x, emb))
    stress = [Q(k + 1, 3) for k in range(x.nedges)]
    net = [Q(0)] * (2 * x.nverts)  # naive per-vertex sum, no cosheaf machinery
    for e, (tl, hd) in enumerate(x.edges):
        vec = (emb.p(hd)[0] - emb.p(tl)[0], emb.p(hd)[1] - emb.p(tl)[1])
        for i in range(2):
            net[2 * hd + i] += stress[e] * vec[i]
            net[2 * tl + i] -= stress[e] * vec[i]
    assert cc.boundary(1).apply(stress) == net


def test_spline_cycle_m1_r0():
    x = build_complex(3, [(0, 1), (1, 2), (2, 0)])
    cc = boundary_matrices(spline_cosheaf(x, 1, 0))
    assert cc.dims == {0: 3, 1: 6}
    b = betti_numbers(cc)
    assert b[1] == 3  # six coefficients minus three value matchings


def test_spline_tree_m0_r0():
    x = build_complex(4, [(0, 1), (1, 2), (1, 3)])
    b = betti_numbers(boundary_matrices(spline_cosheaf(x, 0, 0)))
    assert b[1] == 0


def test_spline_single_edge_m1_r0():
    x = build_complex(2, [(0, 1)])
    b = betti_numbers(boundary_matrices(spline_cosheaf(x, 1, 0)))
    assert b[1] == 0  # a linear polynomial vanishing at both ends is zero


def test_spline_star_sums_the_signed_jets_at_each_vertex():
    # every edge leaves the centre, so its value there enters the sum at
    # the centre with the same sign: the values sum to zero, they do not
    # match, and each leaf value vanishes
    x = build_complex(4, [(0, 1), (0, 2), (0, 3)])
    reps = boundary_matrices(spline_cosheaf(x, 1, 0)).representatives(1)
    assert len(reps) == 2
    # edge e carries a + b t, with the centre at t = 0 and its leaf at t = 1
    at_centre = [[vec[2 * e] for e in range(3)] for vec in reps]
    at_leaves = [[vec[2 * e] + vec[2 * e + 1] for e in range(3)] for vec in reps]
    assert at_centre[0] == [1, 0, -1]
    assert all(sum(values) == 0 for values in at_centre)
    assert not any(any(values) for values in at_leaves)


def test_spline_kernel_elements_match_at_vertices():
    # decoded spline representatives agree in value at every vertex
    x = build_complex(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    k = spline_cosheaf(x, 2, 0)
    cc = boundary_matrices(k)
    from trusshom.sparse import kernel_basis

    for vec in kernel_basis(cc.boundary(1)):
        polys = [vec[3 * e : 3 * e + 3] for e in range(4)]

        def value(e, t0):
            return sum(c * t0**k2 for k2, c in enumerate(polys[e]))

        for v in range(4):
            vals = []
            for e, (tl, hd) in enumerate(x.edges):
                if tl == v:
                    vals.append(value(e, 0))
                if hd == v:
                    vals.append(value(e, 1))
            assert len(set(vals)) == 1


def test_spline_first_derivatives_match_for_smoothness_one():
    x = build_complex(3, [(0, 1), (1, 2), (2, 0)])
    k = spline_cosheaf(x, 3, 1)
    cc = boundary_matrices(k)
    assert cc.dims == {0: 6, 1: 12}
    from trusshom.sparse import kernel_basis

    kern = kernel_basis(cc.boundary(1))
    assert kern  # cubic splines with one matched derivative do exist
    for vec in kern:
        polys = [vec[4 * e : 4 * e + 4] for e in range(3)]

        def jet(e, t0):
            cs = polys[e]
            value = sum(c * t0**j for j, c in enumerate(cs))
            deriv = sum(j * c * t0 ** (j - 1) for j, c in enumerate(cs) if j)
            return (value, deriv)

        for v in range(3):
            jets = []
            for e, (tl, hd) in enumerate(x.edges):
                if tl == v:
                    jets.append(jet(e, 0))
                if hd == v:
                    jets.append(jet(e, 1))
            assert jets[0] == jets[1]


def test_spline_smoothness_above_degree_forces_zero():
    # jets of higher order than the polynomial degree just add zero rows;
    # constants matched to first order around a cycle still give the
    # one-dimensional space of global constants
    x = build_complex(3, [(0, 1), (1, 2), (2, 0)])
    b = betti_numbers(boundary_matrices(spline_cosheaf(x, 0, 1)))
    assert b[1] == 1


def test_restrict_whole_and_empty():
    t = wheel5()
    f = force_cosheaf(t.complex, t.embedding)
    whole = Subcomplex.of(t.complex, range(5), range(8))
    fy, incl = restrict_to_subcomplex(f, whole)
    assert fy.stalk_dims == f.stalk_dims
    assert not check_cosheaf_map(incl)
    empty = Subcomplex.of(t.complex)
    fz, _ = restrict_to_subcomplex(f, empty)
    assert all(d == 0 for d in fz.stalk_dims.values())


def test_restrict_loaded_loop_stalk_count():
    (t, lv, le) = loaded_triangle(with_faces=False)
    f = force_cosheaf(t.complex, t.embedding)
    y = Subcomplex.of(t.complex, lv, le)
    fy, _ = restrict_to_subcomplex(f, y)
    # four loop vertices contribute 2 each, four loop edges 1 each
    assert sum(fy.stalk_dims[vcell(v)] for v in range(7)) == 8
    assert sum(fy.stalk_dims[ecell(e)] for e in range(10)) == 4


def test_restrict_rejects_unclosed():
    t = wheel5()
    with pytest.raises(PreconditionError, match="not closed"):
        Subcomplex.of(t.complex, [0], [0])  # edge 0 needs both endpoints


def test_quotient_by_zero_is_isomorphic():
    t = tri3()
    f = force_cosheaf(t.complex, t.embedding)
    empty = Subcomplex.of(t.complex)
    fz, incl = restrict_to_subcomplex(f, empty)
    for qp in (quotient_cosheaf(incl), quotient_by_subcomplex(f, empty)):
        assert qp.quotient.stalk_dims == f.stalk_dims
        assert betti_numbers(boundary_matrices(qp.quotient)) == betti_numbers(
            boundary_matrices(f)
        )


def test_quotient_by_identity_is_zero():
    t = tri3()
    f = force_cosheaf(t.complex, t.embedding)
    whole = _whole(t.complex)
    for qp in (quotient_cosheaf(identity_map(f)), quotient_by_subcomplex(f, whole)):
        assert all(d == 0 for d in qp.quotient.stalk_dims.values())


def _whole(x):
    return Subcomplex.of(x, range(x.nverts), range(x.nedges), range(x.nfaces))


def _random_subcomplex(rng, x):
    """A random downward-closed selection: vertices, then edges on them,
    then faces whose boundary edges were all kept."""
    verts = {v for v in range(x.nverts) if rng.random() < 0.7}
    edges = {
        e for e, (t, h) in enumerate(x.edges)
        if t in verts and h in verts and rng.random() < 0.7
    }
    faces = {
        f for f, cyc in enumerate(x.faces)
        if all(e in edges for e, _ in cyc) and rng.random() < 0.7
    }
    return Subcomplex.of(x, verts, edges, faces)


def _assert_matches_oracle(f, y):
    qp = quotient_by_subcomplex(f, y)
    oracle = quotient_cosheaf(restrict_to_subcomplex(f, y)[1])
    assert qp.inclusion.components == oracle.inclusion.components
    assert qp.quotient.stalk_dims == oracle.quotient.stalk_dims
    assert qp.quotient.maps == oracle.quotient.maps
    assert qp.projections == oracle.projections
    assert qp.sections == oracle.sections


def test_quotient_by_subcomplex_matches_general_quotient(rng):
    def cosheaves(fd):
        x = fd.complex
        return (
            force_cosheaf(x, fd.embedding),
            constant_cosheaf(x, 2),
            position_cosheaf(fd).cosheaf,
        )

    loops = 0
    for path in sorted((REPO / "fixtures").glob("*.json")):
        doc = parse_truss_document(path.read_text())
        if doc.boundary is None:
            continue
        fd, loaded = document_to_form_diagram(doc)
        y = loaded.boundary_decomposition().loop
        assert y.faces  # the loop bounds the exterior face
        for f in cosheaves(fd):
            _assert_matches_oracle(f, y)
        loops += 1
    t, lv, le = loaded_triangle(with_faces=True)
    fd = FormDiagram(t)
    y = Subcomplex.of(t.complex, lv, le, {t.complex.exterior_face})
    for f in cosheaves(fd):
        _assert_matches_oracle(f, y)
    assert loops >= 1

    shapes = set()
    for _ in range(20):
        fd = FormDiagram(random_form_truss(rng))
        x = fd.complex
        drawn = [_random_subcomplex(rng, x) for _ in range(3)]
        shapes |= {(bool(y.vertices), bool(y.edges), bool(y.faces)) for y in drawn}
        for y in [Subcomplex.of(x), _whole(x)] + drawn:
            for f in cosheaves(fd):
                _assert_matches_oracle(f, y)
    # the random draws reach vertices only, edges, and proper faced subcomplexes
    assert {(True, False, False), (True, True, False), (True, True, True)} <= shapes


def test_quotient_force_in_constant_gives_position_stalks():
    x = wheel5(with_faces=True).complex
    emb = wheel5().embedding
    f = force_cosheaf(x, emb)
    g = constant_cosheaf(x, 2)
    comps = {}
    for v in x.vertex_ids():
        comps[v] = SparseMatrix.identity(2)
    for e in x.edge_ids():
        t, h = x.edges[e.index]
        vec = (emb.p(h)[0] - emb.p(t)[0], emb.p(h)[1] - emb.p(t)[1])
        comps[e] = SparseMatrix(2, 1, {(i, 0): c for i, c in enumerate(vec) if c})
    for fc in x.face_ids():
        comps[fc] = SparseMatrix(2, 0)
    incl = CosheafMap(f, g, comps)
    assert not check_cosheaf_map(incl)
    qp = quotient_cosheaf(incl)
    q = qp.quotient
    assert all(q.stalk_dims[v] == 0 for v in x.vertex_ids())
    assert all(q.stalk_dims[e] == 1 for e in x.edge_ids())
    assert all(q.stalk_dims[fc] == 2 for fc in x.face_ids())
    # dimension additivity at every cell
    for c in x.cells():
        assert f.stalk_dims[c] + q.stalk_dims[c] == g.stalk_dims[c]


def test_check_cosheaf_map_reports_negated_vertex():
    t = tri3()
    f = force_cosheaf(t.complex, t.embedding)
    ident = identity_map(f)
    assert check_cosheaf_map(ident) == []
    comps = dict(ident.components)
    v0 = vcell(0)
    comps[v0] = SparseMatrix(2, 2, {(0, 0): Q(-1), (1, 1): Q(-1)})
    broken = CosheafMap(f, f, comps)
    bad = check_cosheaf_map(broken)
    assert bad and all(viol.lower == v0 for viol in bad)
    assert len(bad) == sum(1 for v in (0,) for e, (a, b) in enumerate(t.complex.edges) if v in (a, b))


def test_boundary_matrix_c4_unit_constant():
    t = square4()
    cc = boundary_matrices(constant_cosheaf(t.complex, 1))
    d1 = cc.boundary(1)
    assert d1.shape == (4, 4)
    assert rank(d1) == 3  # spanning tree: |V| - 1
    assert dense_rank(matrix_rows(d1)) == 3


def test_boundary_composition_zero_with_face_stalks():
    x = square4(with_faces=True).complex
    cc = boundary_matrices(constant_cosheaf(x, 3))
    assert (cc.boundary(1) @ cc.boundary(2)).is_zero()


def test_constant_homology_scales_with_stalk_dimension(rng):
    from conftest import random_form_truss

    for _ in range(5):
        x = random_form_truss(rng).complex
        unit = betti_numbers(boundary_matrices(constant_cosheaf(x, 1)))
        for m in (2, 3):
            scaled = betti_numbers(boundary_matrices(constant_cosheaf(x, m)))
            assert scaled == tuple(m * b for b in unit)
