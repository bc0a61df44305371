import json
import random
import tracemalloc
from fractions import Fraction

import pytest

from trusshom.cli import main
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
    spline_cosheaf,
)
from trusshom.documents import (
    document_to_form_diagram,
    document_to_truss,
    parse_truss_document,
)
from trusshom.duality import FormDiagram, position_cosheaf
from trusshom.errors import InternalCheckError, PreconditionError
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

from conftest import (
    REPO,
    dense_homology,
    flip_edge,
    flip_face,
    random_form_truss,
    random_truss,
    record_calls,
)

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
                rank_modulo(deg.representatives, cc.echelon(k + 1))
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
    pc = position_cosheaf(FormDiagram(Truss(x, emb)))
    rep = les_dimension_check(pc.presentation)
    assert rep.alternating_sum == 0
    d_f, d_r2, d_g = rep.dims_sub, rep.dims_total, rep.dims_quotient
    assert d_g[2] == d_f[1] + d_r2[2]          # dual realizations split
    assert d_g[1] == d_f[0] - d_r2[0]          # impossible rotations split
    assert (d_r2[0], d_r2[1], d_r2[2]) == (2, 0, 2)


# ---------------------------------------------------------------------------
# the kept eliminations against the dense oracle
# ---------------------------------------------------------------------------


def assert_matches_dense_oracle(f: Cosheaf) -> tuple[int, ...]:
    """Betti numbers, image bases and representatives of the cosheaf's
    complex equal the dense oracle's exactly, whether the ranks or the
    bases are asked for first.  Returns the Betti numbers."""
    expected = dense_homology(boundary_matrices(f))
    betti = tuple(b for b, _, _ in expected.values())
    rank_first = boundary_matrices(f)
    assert betti_numbers(rank_first) == betti
    for cc in (rank_first, boundary_matrices(f)):
        h = homology(cc)
        for k, (b, image, reps) in expected.items():
            assert h.degrees[k].betti == b
            assert h.degrees[k].image == image
            assert h.degrees[k].representatives == reps
        assert betti_numbers(cc) == betti
    return betti


def fixture_cosheaves():
    """Force cosheaves of every fixture, of its form diagram and of its
    boundary split where those exist, plus the position cosheaf."""
    for path in sorted((REPO / "fixtures").glob("*.json")):
        doc = parse_truss_document(path.read_text())
        loaded = document_to_truss(doc)
        yield path.stem, loaded.truss.cosheaf
        if doc.boundary is not None:
            dec = loaded.boundary_decomposition()
            yield path.stem, dec.presentation.inclusion.source
            yield path.stem, dec.relative_cosheaf
        try:
            fd, _ = document_to_form_diagram(doc)
        except PreconditionError:
            continue
        yield path.stem, fd.truss.cosheaf
        yield path.stem, position_cosheaf(fd).cosheaf


def test_homology_matches_dense_oracle_on_every_fixture():
    stems = set()
    for stem, f in fixture_cosheaves():
        assert_matches_dense_oracle(f)
        stems.add(stem)
    assert len(stems) == len(list((REPO / "fixtures").glob("*.json")))


def test_grid6_fixture_has_the_larger_bases():
    doc = parse_truss_document((REPO / "fixtures" / "grid6.json").read_text())
    assert assert_matches_dense_oracle(document_to_truss(doc).truss.cosheaf) == (4, 5)


def test_homology_matches_dense_oracle_on_random_form_trusses():
    rng = random.Random(71)
    for _ in range(40):
        t = random_form_truss(rng)
        assert_matches_dense_oracle(force_cosheaf(t.complex, t.embedding))
        assert_matches_dense_oracle(position_cosheaf(FormDiagram(t)).cosheaf)


def test_homology_matches_dense_oracle_on_closed_spheres():
    # both d1 and d2 are nonzero, so degree 1 reduces kernel rows against
    # image rows; on a sphere every residue vanishes
    rng = random.Random(72)
    spheres = [wheel5(with_faces=True).complex] + [
        random_form_truss(rng).complex for _ in range(10)
    ]
    for x in spheres:
        for m in (1, 2):
            cc = boundary_matrices(constant_cosheaf(x, m))
            assert not cc.boundary(1).is_zero() and not cc.boundary(2).is_zero()
            assert assert_matches_dense_oracle(constant_cosheaf(x, m)) == (m, 0, m)


def test_homology_matches_dense_oracle_on_punctured_spheres():
    # a sphere without two of its faces is an annulus: degree 1 keeps m
    # residues of the kernel rows after the reduction against the image
    rng = random.Random(73)
    for _ in range(10):
        x = random_form_truss(rng).complex
        hole = 1 if x.exterior_face == 0 else 0
        keep = [f for i, f in enumerate(x.faces) if i not in (hole, x.exterior_face)]
        annulus = build_complex(x.nverts, x.edges, keep)
        for m in (1, 2):
            assert assert_matches_dense_oracle(constant_cosheaf(annulus, m)) == (m, m, 0)


def test_homology_matches_dense_oracle_on_spline_complexes():
    rng = random.Random(74)
    graphs = [wheel5().complex, square4().complex] + [
        random_truss(rng, 2).complex for _ in range(6)
    ]
    for x in graphs:
        for degree, smoothness in ((0, 0), (1, 0), (2, 1), (3, 1)):
            assert_matches_dense_oracle(spline_cosheaf(x, degree, smoothness))


# ---------------------------------------------------------------------------
# one assembly of the force complex, no elimination repeated
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fixture", ["grid6", "loaded1"])
@pytest.mark.parametrize("command", ["analyze", "maxwell", "check", "selfstress", "dual"])
def test_commands_assemble_and_eliminate_once(fixture, command, monkeypatch, capsys):
    path = REPO / "fixtures" / f"{fixture}.json"
    t = document_to_truss(parse_truss_document(path.read_text())).truss
    equilibrium = boundary_matrices(force_cosheaf(t.complex, t.embedding)).boundary(1)
    assembled = record_calls(monkeypatch, "trusshom.cosheaves", "boundary_matrices")
    eliminated = record_calls(monkeypatch, "trusshom.sparse", "_eliminate")
    assert main([command, str(path)]) == 0
    capsys.readouterr()
    force = [cc for _, cc in assembled if cc.boundary(1) == equilibrium]
    assert len(force) == 1
    matrices = [args[0] for args, _ in eliminated]
    assert matrices and len(set(matrices)) == len(matrices)


@pytest.mark.parametrize("fixture", ["grid6", "loaded1"])
@pytest.mark.parametrize("command", ["analyze", "check", "selfstress", "dual"])
def test_commands_read_each_rank_off_the_kept_basis(fixture, command, monkeypatch, capsys):
    # a matrix whose basis a command needs is eliminated once, for the
    # basis, and its rank is read from there: no matrix reaches both the
    # forward-only rank and a basis elimination
    path = REPO / "fixtures" / f"{fixture}.json"
    ranked = record_calls(monkeypatch, "trusshom.sparse", "rank")
    bases = [
        record_calls(monkeypatch, "trusshom.sparse", name)
        for name in ("kernel_basis", "echelon", "cokernel_reps")
    ]
    assert main([command, str(path)]) == 0
    capsys.readouterr()
    reduced = [args[0] for calls in bases for args, _ in calls]
    assert reduced and not [args[0] for args, _ in ranked if args[0] in reduced]


def works_on(m, d):
    """Whether the eliminated matrix ``m`` is ``d``, ``d`` with its
    columns reversed, the transpose of ``d``, or ``d`` with more columns
    appended: an elimination that works on the matrix ``d``."""
    if m.shape == (d.cols, d.rows) and m.transpose() == d:
        return True
    if m.rows != d.rows or m.cols < d.cols:
        return False
    last = m.cols - 1
    reversed_ = SparseMatrix(m.rows, m.cols, {(i, last - j): v for (i, j), v in m.entries.items()})
    head = SparseMatrix(d.rows, d.cols, {(i, j): v for (i, j), v in m.entries.items() if j < d.cols})
    return reversed_ == d or head == d


def equilibrium_matrix(fixture):
    path = REPO / "fixtures" / f"{fixture}.json"
    t = document_to_truss(parse_truss_document(path.read_text())).truss
    return path, boundary_matrices(force_cosheaf(t.complex, t.embedding)).boundary(1)


@pytest.mark.parametrize("fixture", ["grid6", "loaded1"])
@pytest.mark.parametrize("command", ["analyze", "maxwell", "check"])
def test_rigid_motions_are_checked_without_widening_d1(fixture, command, monkeypatch, capsys):
    # the rigid motions are checked by virtual work, d1^T R = 0, so no
    # elimination sees the equilibrium matrix with their columns appended
    path, d1 = equilibrium_matrix(fixture)
    eliminated = record_calls(monkeypatch, "trusshom.sparse", "_eliminate")
    assert main([command, str(path)]) == 0
    capsys.readouterr()
    wide = [m.shape for (m, *_), _ in eliminated if m.rows == d1.rows and m.cols > d1.cols]
    assert eliminated and not wide


@pytest.mark.parametrize("fixture", ["grid6", "loaded1"])
def test_analyze_eliminates_d1_once_for_its_kernel_and_once_for_its_image(
    fixture, monkeypatch, capsys
):
    path, d1 = equilibrium_matrix(fixture)
    eliminated = record_calls(monkeypatch, "trusshom.sparse", "_eliminate")
    assert main(["analyze", str(path)]) == 0
    capsys.readouterr()
    on_d1 = [m for (m, *_), _ in eliminated if works_on(m, d1)]
    # the kernel eliminates d1 with its columns reversed, the echelon d1^T
    assert [m.shape for m in on_d1] == [d1.shape, (d1.cols, d1.rows)]


def test_selfstress_on_isolated_vertices_stays_small(tmp_path, capsys):
    # 2,000 vertices and no members: no chain of degree 1, so nothing
    # may build the 4,000 unit vectors of degree 0
    doc = {
        "version": 1,
        "dim": 2,
        "vertices": [{"id": f"v{i}", "pos": [str(i), "0"]} for i in range(2000)],
        "edges": [],
    }
    path = tmp_path / "isolated.json"
    path.write_text(json.dumps(doc))
    tracemalloc.start()
    try:
        assert main(["selfstress", str(path)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert json.loads(capsys.readouterr().out)["dimension"] == 0
    assert peak < 50 * 2**20
