import random
from fractions import Fraction

import pytest

from trusshom.cli import main
from trusshom.complexes import CellComplex, Embedding, build_complex
from trusshom.cosheaves import Subcomplex, quotient_by_subcomplex
from trusshom.documents import (
    LoadedTruss,
    document_to_form_diagram,
    document_to_truss,
    force_diagram_document,
    parse_truss_document,
)
from trusshom.errors import InputError, InternalCheckError, PreconditionError
from trusshom.homology import ChainComplex, betti_numbers
from trusshom.samples import loaded_triangle, square4, tri3_spherical, wheel5
from trusshom.sparse import echelon, rank, rank_modulo
from trusshom.statics import (
    Truss,
    analyze,
    decompose_boundary,
    equilibrium_stresses,
    force_chain_complex,
)
from trusshom.duality import (
    FormDiagram,
    _dual_tree,
    _integrate_dual_tree,
    check_form_finding_safety,
    force_diagram_from_stress,
    force_diagrams_from_stresses,
    form_diagram,
    impossible_rotation_basis,
    motion_to_rotation_class,
    position_cosheaf,
    relative_force_diagram,
    rot90,
    stress_from_force_diagram,
    stresses_from_force_diagrams,
)

from conftest import (
    REPO,
    count_calls,
    record_calls,
    oracle_dual_tree,
    oracle_force_positions,
    oracle_stress_from_positions,
    random_form_truss,
)

Q = Fraction


@pytest.fixture(scope="module")
def wheel():
    fd = form_diagram(wheel5())
    return fd, position_cosheaf(fd)


def test_position_cosheaf_stalks_and_dims(wheel):
    fd, pc = wheel
    q = pc.cosheaf
    x = fd.complex
    assert all(q.stalk_dims[v] == 0 for v in x.vertex_ids())
    assert all(q.stalk_dims[e] == 1 for e in x.edge_ids())
    assert all(q.stalk_dims[f] == 2 for f in x.face_ids())
    assert pc.chain.dims == {0: 0, 1: 8, 2: 10}


def test_position_cosheaf_rejects_zero_length_edge():
    x = build_complex(2, [(0, 1)])
    with pytest.raises(InputError, match="coincident"):
        Truss(x, Embedding.from_points([(1, 1), (1, 1)]))


def test_perp_covectors_are_rot90(wheel):
    fd, pc = wheel
    for e in range(fd.complex.nedges):
        assert pc.perp[e] == rot90(fd.edge_vec(e))


def test_force_diagram_wheel5_hand_integration(wheel):
    fd, _ = wheel
    (s,) = analyze(fd.truss).self_stress_basis
    diag = force_diagram_from_stress(fd, s)
    x = fd.complex
    # anchor: exterior dual vertex at the origin
    assert diag.positions[x.exterior_face] == (Q(0), Q(0))
    # hand integration oracle: across every dual edge the displacement is
    # the stress times the primal edge vector
    for e in range(x.nedges):
        fl, fr = x.left_right_faces(e)
        vec = fd.edge_vec(e)
        ql, qr = diag.positions[fl], diag.positions[fr]
        assert (ql[0] - qr[0], ql[1] - qr[1]) == (s[e] * vec[0], s[e] * vec[1])
    # spoke displacement has the advertised magnitude: stress 1 on the
    # spoke from (0,0) to (1,1) moves the dual vertex by exactly (1,1)
    spoke = 0
    assert s[spoke] == 1 and fd.edge_vec(spoke) == (Q(1), Q(1))
    fl, fr = x.left_right_faces(spoke)
    d = (
        diag.positions[fl][0] - diag.positions[fr][0],
        diag.positions[fl][1] - diag.positions[fr][1],
    )
    assert d == (Q(1), Q(1))


def test_force_diagram_zero_stress_collapses(wheel):
    fd, _ = wheel
    diag = force_diagram_from_stress(fd, [Q(0)] * 8)
    assert all(p == (Q(0), Q(0)) for p in diag.positions)


def test_force_diagram_scaling_linearity(wheel):
    fd, _ = wheel
    (s,) = analyze(fd.truss).self_stress_basis
    d1 = force_diagram_from_stress(fd, s)
    d3 = force_diagram_from_stress(fd, [3 * v for v in s])
    assert all(
        p3 == (3 * p1[0], 3 * p1[1]) for p3, p1 in zip(d3.positions, d1.positions)
    )


def test_force_diagram_rejects_non_selfstress(wheel):
    fd, _ = wheel
    bad = [Q(1)] + [Q(0)] * 7
    with pytest.raises(PreconditionError, match="not a self-stress"):
        force_diagram_from_stress(fd, bad)


def test_dual_tree_integration_keeps_its_checks(wheel):
    fd, _ = wheel
    x = fd.complex
    vecs = fd.integer_edge_vectors
    faces, edges, ext = range(x.nfaces), range(x.nedges), x.exterior_face
    (s,) = analyze(fd.truss).self_stress_basis
    tree = _dual_tree(x, faces, edges, ext)
    (q,) = _integrate_dual_tree(tree, vecs, [s])
    assert q[ext] == (Q(0), Q(0)) and len(q) == x.nfaces
    assert _integrate_dual_tree(tree, vecs, [s, [3 * v for v in s]])[0] == q
    with pytest.raises(InternalCheckError, match="close"):
        _integrate_dual_tree(tree, vecs, [[Q(1)] * x.nedges])
    with pytest.raises(InternalCheckError, match="close at edge"):
        _integrate_dual_tree(tree, vecs, [s, s, [Q(1)] * x.nedges])
    with pytest.raises(InternalCheckError, match="disconnected"):
        _dual_tree(x, faces, [], ext)
    interior = [f for f in faces if f != ext]
    with pytest.raises(InternalCheckError, match="outside the dual region"):
        _dual_tree(x, interior, edges, interior[0])
    bare = Truss(build_complex(2, [(0, 1)]), Embedding.from_points([(0, 0), (1, 0)]))
    with pytest.raises(PreconditionError, match="exactly two faces"):
        _dual_tree(bare.complex, [], [0], 0)
    # the batched entry points: a fault in the last member of a batch
    # still raises, with the one-stress message
    bad = [Q(1)] + [Q(0)] * 7
    with pytest.raises(PreconditionError, match="stress is not a self-stress"):
        force_diagrams_from_stresses(fd, [s, s, bad])
    good = force_diagram_from_stress(fd, s).positions
    off = list(good)
    off[0] = (off[0][0] + 1, off[0][1])
    with pytest.raises(PreconditionError, match="not parallel to primal edge"):
        stresses_from_force_diagrams(fd, [good, good, off])
    assert stresses_from_force_diagrams(fd, [good, good]) == [list(s), list(s)]


def test_face_table_is_built_once_per_complex(rng, monkeypatch):
    built = []
    build = CellComplex.edge_face_signs

    def counting_build(x):
        built.append(x)
        return build(x)

    monkeypatch.setattr(CellComplex, "edge_face_signs", counting_build)
    diagrams = 0
    for _ in range(6):
        t = random_form_truss(rng)
        fd = FormDiagram(t)
        x = fd.complex
        ids = tuple(f"e{e}" for e in range(x.nedges))
        loaded = LoadedTruss(None, t, tuple(f"v{v}" for v in range(x.nverts)), ids, None)
        for s in analyze(t).self_stress_basis:
            diag = force_diagram_from_stress(fd, s)
            assert stress_from_force_diagram(fd, diag.positions) == list(s)
            force_diagram_document(diag, loaded, s)
            diagrams += 1
    assert diagrams >= 2
    builds, complexes = len(built), len({id(x) for x in built})
    assert builds == complexes


def test_stress_roundtrip_exact(wheel):
    fd, _ = wheel
    (s,) = analyze(fd.truss).self_stress_basis
    diag = force_diagram_from_stress(fd, s)
    assert stress_from_force_diagram(fd, diag.positions) == list(s)


def assert_roundtrip_matches_oracle(fd: FormDiagram) -> int:
    """The batched and the one-stress round trips equal the per-stress
    oracle exactly on the whole self-stress basis, also on translated
    positions; returns the basis size."""
    t = fd.truss
    cc = force_chain_complex(t)
    assert fd.equilibrium == cc.boundary(1)
    basis = cc.representatives(1)
    oracle = [oracle_force_positions(t, s) for s in basis]
    assert [d.positions for d in force_diagrams_from_stresses(fd, basis)] == oracle
    assert [force_diagram_from_stress(fd, s).positions for s in basis] == oracle
    shift = (Q(7, 3), Q(-2))
    moved = [tuple((p[0] + shift[0], p[1] + shift[1]) for p in q) for q in oracle]
    for positions in (oracle, moved):
        recovered = [oracle_stress_from_positions(t, q) for q in positions]
        assert recovered == basis
        assert stresses_from_force_diagrams(fd, positions) == recovered
        assert [stress_from_force_diagram(fd, q) for q in positions] == recovered
    return len(basis)


def test_roundtrip_matches_the_per_stress_oracle_on_every_fixture():
    checked = []
    for path in sorted((REPO / "fixtures").glob("*.json")):
        try:
            fd, _ = document_to_form_diagram(parse_truss_document(path.read_text()))
            fd.dual
        except PreconditionError:
            continue
        checked.append((path.stem, assert_roundtrip_matches_oracle(fd)))
    assert {stem for stem, _ in checked} >= {"grid6", "loaded1", "wheel5", "square4"}
    assert sum(n for _, n in checked) >= 6


def test_roundtrip_matches_the_per_stress_oracle_on_random_forms():
    # each draw also under an orientation-preserving linear map whose
    # entries have distinct prime denominators, so the edge vectors, the
    # stresses and the positions carry mixed denominators
    rng = random.Random(808)
    stresses = 0
    for _ in range(40):
        t = random_form_truss(rng)
        pts = [t.embedding.p(v) for v in range(t.complex.nverts)]
        sheared = [(px / 7 + py / 13, py / 11) for px, py in pts]
        for emb in (t.embedding, Embedding.from_points(sheared)):
            stresses += assert_roundtrip_matches_oracle(FormDiagram(Truss(t.complex, emb)))
    assert stresses >= 30


def test_relative_diagram_matches_the_per_stress_oracle():
    _, loaded = document_to_form_diagram(
        parse_truss_document((REPO / "fixtures" / "loaded1.json").read_text())
    )
    dec = loaded.boundary_decomposition()
    t = dec.truss
    x = t.complex
    faces = [f for f in range(x.nfaces) if f != x.exterior_face]
    edges = [e for e in range(x.nedges) if e not in dec.loop.edges]
    basis = equilibrium_stresses(dec)
    assert basis
    for s in basis + [[2 * v - w for v, w in zip(basis[0], basis[-1])]]:
        rel = relative_force_diagram(dec, s)
        oracle = oracle_dual_tree(t, faces, edges, min(faces), [Q(v) for v in s])
        assert list(rel.positions.items()) == list(oracle.items())


@pytest.mark.parametrize("fixture", ["grid6", "loaded1"])
def test_check_keeps_one_dual_and_one_set_of_edge_vectors(fixture, monkeypatch, capsys):
    # one form diagram per command: its dual is built once, and each
    # edge vector is computed once for it, once for face tracing and once
    # per force cosheaf, however many stresses go round the trip
    path = REPO / "fixtures" / f"{fixture}.json"
    nedges = document_to_truss(parse_truss_document(path.read_text())).truss.complex.nedges
    duals = count_calls(monkeypatch, "trusshom.complexes", "poincare_dual")
    vectors = count_calls(monkeypatch, "trusshom.complexes", "edge_vector")
    cosheaves = count_calls(monkeypatch, "trusshom.cosheaves", "force_cosheaf")
    tracings = count_calls(monkeypatch, "trusshom.complexes", "planar_faces")
    assert main(["check", str(path)]) == 0
    assert '"stress_diagram_roundtrip"' in capsys.readouterr().out
    assert duals[0] == 1
    assert vectors[0] <= nedges * (1 + tracings[0] + cosheaves[0])


def test_check_reports_a_broken_stress_basis_as_internal(monkeypatch, capsys):
    # a basis vector that is not a self-stress is a fault of the program,
    # not a skipped precondition
    representatives = ChainComplex.representatives

    def off_by_one(cc, k):
        reps = [list(v) for v in representatives(cc, k)]
        if k == 1 and reps:
            reps[0][0] += 1
        return reps

    monkeypatch.setattr(ChainComplex, "representatives", off_by_one)
    assert main(["check", str(REPO / "fixtures" / "wheel5.json")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "stress roundtrip failed: stress is not a self-stress" in captured.err


def test_diagram_roundtrip_up_to_translation(wheel):
    fd, _ = wheel
    (s,) = analyze(fd.truss).self_stress_basis
    diag = force_diagram_from_stress(fd, s)
    shift = (Q(7, 3), Q(-2))
    moved = [(p[0] + shift[0], p[1] + shift[1]) for p in diag.positions]
    s2 = stress_from_force_diagram(fd, moved)
    diag2 = force_diagram_from_stress(fd, s2)
    anchor = moved[fd.complex.exterior_face]
    assert [
        (p[0] - anchor[0], p[1] - anchor[1]) for p in moved
    ] == list(diag2.positions)


def test_translation_reads_as_zero_stress(wheel):
    fd, _ = wheel
    q = [(Q(5), Q(-3))] * fd.complex.nfaces
    assert stress_from_force_diagram(fd, q) == [Q(0)] * 8


def test_offparallel_dual_position_names_edge(wheel):
    fd, _ = wheel
    (s,) = analyze(fd.truss).self_stress_basis
    diag = force_diagram_from_stress(fd, s)
    q = list(diag.positions)
    q[0] = (q[0][0] + 1, q[0][1])
    with pytest.raises(PreconditionError, match="edge"):
        stress_from_force_diagram(fd, q)


def test_impossible_rotations_wheel5(wheel):
    _, pc = wheel
    assert impossible_rotation_basis(pc).dim == 1


def test_impossible_rotations_square_and_triangle():
    ps = position_cosheaf(form_diagram(square4()))
    assert impossible_rotation_basis(ps).dim == 4 - 2  # oracle: 4 - rank d2
    assert rank(ps.boundary2()) == 2
    pt = position_cosheaf(FormDiagram(tri3_spherical()))
    assert impossible_rotation_basis(pt).dim == 1
    assert rank(pt.boundary2()) == 2  # oracle: 3 - rank = 1


def test_motion_translation_maps_to_zero(wheel):
    _, pc = wheel
    mc = motion_to_rotation_class(pc, [(Q(2), Q(-1))] * 5)
    assert mc.is_zero


def test_motion_rotation_spans_wheel5_class(wheel):
    fd, pc = wheel
    u = [rot90(fd.embedding.p(v)) for v in range(5)]
    mc = motion_to_rotation_class(pc, u)
    assert not mc.is_zero
    # membership oracle: the class together with the realizable rotations
    # spans everything the 1-dimensional obstruction space allows
    assert rank_modulo([mc.chain], echelon(pc.boundary2())) == 1


def test_motion_square_shear_independent_of_rotation():
    fs = form_diagram(square4())
    ps = position_cosheaf(fs)
    shear = [(Q(0), Q(0)), (Q(0), Q(0)), (Q(1), Q(0)), (Q(1), Q(0))]
    rot = [rot90(fs.embedding.p(v)) for v in range(4)]
    m1 = motion_to_rotation_class(ps, shear)
    m2 = motion_to_rotation_class(ps, rot)
    assert not m1.is_zero and not m2.is_zero
    assert rank_modulo([m1.chain, m2.chain], echelon(ps.boundary2())) == 2


def test_motion_is_linear(wheel):
    fd, pc = wheel
    u1 = [rot90(fd.embedding.p(v)) for v in range(5)]
    u2 = [(Q(v), Q(v * v, 3)) for v in range(5)]
    lin = [
        (2 * a[0] + 3 * b[0], 2 * a[1] + 3 * b[1]) for a, b in zip(u1, u2)
    ]
    m1 = motion_to_rotation_class(pc, u1)
    m2 = motion_to_rotation_class(pc, u2)
    mlin = motion_to_rotation_class(pc, lin)
    combo = [2 * a + 3 * b for a, b in zip(m1.residue, m2.residue)]
    assert mlin.residue == combo


def test_boundary_motions_map_to_zero(wheel):
    # a vertex motion that is itself a net-force pattern of some stress
    # lies in the zero class
    fd, pc = wheel
    cc = pc.force_chain
    stress = [Q(1), Q(-2), Q(3), Q(0), Q(1), Q(1), Q(0), Q(2)]
    u = cc.boundary(1).apply(stress)
    mc = motion_to_rotation_class(pc, u)
    assert mc.is_zero


def test_rotation_class_kernel_is_exactly_the_resisted_motions(wheel):
    # on mean-zero inputs, the class vanishes exactly when the motion is
    # a net-force pattern (lies in the image of the equilibrium matrix)
    fd, pc = wheel
    cc = pc.force_chain
    d1 = cc.boundary(1)
    membership = echelon(d1).reduce
    rng = random.Random(2718)
    zero_seen = nonzero_seen = 0
    for _ in range(30):
        u = [Q(rng.randrange(-6, 7), rng.choice([1, 2])) for _ in range(10)]
        mean = (sum(u[0::2]) / 5, sum(u[1::2]) / 5)
        for v in range(5):
            u[2 * v] -= mean[0]
            u[2 * v + 1] -= mean[1]
        mc = motion_to_rotation_class(pc, u)
        in_image = not any(membership(u))
        assert mc.is_zero == in_image
        zero_seen += in_image
        nonzero_seen += not in_image
    assert nonzero_seen  # random motions generically carry a rotation class
    # and force at least one exact-zero case through a constructed boundary
    u = d1.apply([Q(1)] * 8)
    assert motion_to_rotation_class(pc, u).is_zero


def test_form_finding_safety_zero_and_random(wheel):
    _, pc = wheel
    assert check_form_finding_safety(pc, [(Q(0), Q(0))] * 5)
    rng = random.Random(11)
    for _ in range(20):
        zeta = [
            (Q(rng.randrange(-9, 10), rng.choice([1, 2, 3])), Q(rng.randrange(-9, 10)))
            for _ in range(5)
        ]
        assert check_form_finding_safety(pc, zeta)


def test_rotation_classes_read_the_kept_echelon(monkeypatch):
    # once the impossible rotations are known, a rotation class costs
    # only the lift of its motion: the residue modulo im d2 reads the
    # position complex's kept echelon
    fd = form_diagram(wheel5())
    pc = position_cosheaf(fd)
    impossible_rotation_basis(pc)
    eliminated = record_calls(monkeypatch, "trusshom.sparse", "_eliminate")
    assert not motion_to_rotation_class(pc, [rot90(fd.embedding.p(v)) for v in range(5)]).is_zero
    assert motion_to_rotation_class(pc, [(Q(2), Q(-1))] * 5).is_zero
    assert check_form_finding_safety(pc, [(Q(v), Q(1 - v)) for v in range(fd.complex.nfaces)])
    # only the two lifts through the constant cosheaf's d1
    lift = pc.presentation.inclusion.target.chain_complex.boundary(1)
    assert [args[0] for args, _ in eliminated] == [lift, lift]


def test_single_dual_vertex_move_gives_incidence_column(wheel):
    fd, pc = wheel
    x = fd.complex
    target_face = 0
    zeta = [(Q(0), Q(0))] * x.nfaces
    zeta[target_face] = (Q(1), Q(0))
    flat = [c for pt in zeta for c in pt]
    rho = pc.boundary2().apply(flat)
    # oracle: the x-column of d2 at that face, i.e. sign * perp_x on the
    # face's boundary edges and zero elsewhere
    expected = [Q(0)] * x.nedges
    for e, sign in x.faces[target_face]:
        expected[e] = sign * pc.perp[e][0]
    assert rho == expected
    assert check_form_finding_safety(pc, zeta)


def test_eq12_eq13_identities_random_corpus(rng):
    forms = [form_diagram(wheel5()), form_diagram(square4()), FormDiagram(tri3_spherical())]
    for _ in range(9):
        forms.append(FormDiagram(random_form_truss(rng)))
    for fd in forms:
        pc = position_cosheaf(fd)
        bf = betti_numbers(pc.force_chain)
        h2g = pc.chain.dims[2] - rank(pc.boundary2())
        h1g = impossible_rotation_basis(pc).dim
        assert h2g == bf[1] + 2
        assert h1g == bf[0] - 2


def test_relative_diagram_loaded_triangle():
    t, lv, le = loaded_triangle(with_faces=True)
    dec = decompose_boundary(t, lv, le)
    rel = relative_force_diagram(dec)
    x = t.complex
    interior = [f for f in range(x.nfaces) if f != x.exterior_face]
    assert set(rel.positions) == set(interior)
    # every dual-disk segment is parallel to its primal edge, including
    # the connector (load-line) ones
    for e in range(x.nedges):
        if e in dec.loop.edges:
            continue
        a, b = rel.dual_segment(e)
        vec = (
            t.embedding.p(x.edges[e][1])[0] - t.embedding.p(x.edges[e][0])[0],
            t.embedding.p(x.edges[e][1])[1] - t.embedding.p(x.edges[e][0])[1],
        )
        assert (a[0] - b[0]) * vec[1] == (a[1] - b[1]) * vec[0]
    # tree-integration oracle: dual displacement equals stress * edge vector
    for e in range(x.nedges):
        if e in dec.loop.edges:
            continue
        fl, fr = x.left_right_faces(e)
        vec = (
            t.embedding.p(x.edges[e][1])[0] - t.embedding.p(x.edges[e][0])[0],
            t.embedding.p(x.edges[e][1])[1] - t.embedding.p(x.edges[e][0])[1],
        )
        d = (
            rel.positions[fl][0] - rel.positions[fr][0],
            rel.positions[fl][1] - rel.positions[fr][1],
        )
        assert d == (rel.stress[e] * vec[0], rel.stress[e] * vec[1])


def test_relative_diagram_zero_stress_collapses():
    t, lv, le = loaded_triangle(with_faces=True)
    dec = decompose_boundary(t, lv, le)
    rel = relative_force_diagram(dec, [Q(0)] * t.complex.nedges)
    assert all(p == (Q(0), Q(0)) for p in rel.positions.values())


def test_relative_computes_the_equilibrium_homology_once(monkeypatch, capsys):
    # the command selects the stress from its own basis and passes it on,
    # so the diagram does not recompute the basis: the relative complex's
    # kernel is eliminated once, and its rank is read from that kernel
    calls = count_calls(monkeypatch, "trusshom.sparse", "kernel_basis")
    assert main(["relative", str(REPO / "fixtures" / "loaded1.json")]) == 0
    assert calls[0] == 1
    capsys.readouterr()


def test_relative_diagram_rejects_disconnected_interior():
    # picture frame: inner square entirely inside the outer loop; taking
    # BOTH loops as the boundary leaves the inner face isolated, which is
    # exactly the interior-hole situation that gets rejected
    outer = [(Q(-4), Q(-4)), (Q(4), Q(-4)), (Q(4), Q(4)), (Q(-4), Q(4))]
    inner = [(Q(-1), Q(-1)), (Q(1), Q(-1)), (Q(1), Q(1)), (Q(-1), Q(1))]
    pts = outer + inner
    edges = [(0, 1), (1, 2), (2, 3), (3, 0),
             (4, 5), (5, 6), (6, 7), (7, 4),
             (0, 4), (1, 5), (2, 6), (3, 7)]
    from trusshom.complexes import planar_faces

    x0 = build_complex(8, edges)
    emb = Embedding.from_points(pts)
    x = planar_faces(x0, emb)
    t = Truss(x, emb)
    from trusshom.cosheaves import force_cosheaf
    from trusshom.statics import BoundaryDecomposition

    both_loops = Subcomplex.of(
        x, range(8), range(8), {x.exterior_face}
    )
    f = force_cosheaf(x, emb)
    qp = quotient_by_subcomplex(f, both_loops)
    dec = BoundaryDecomposition(t, both_loops, tuple(range(8, 12)), qp)
    with pytest.raises(PreconditionError, match="open disk"):
        relative_force_diagram(dec)


def test_decompose_rejects_inner_loop_on_faced_complex():
    # a loop that does not bound the exterior face is refused up front
    outer = [(Q(-4), Q(-4)), (Q(4), Q(-4)), (Q(4), Q(4)), (Q(-4), Q(4))]
    inner = [(Q(-1), Q(-1)), (Q(1), Q(-1)), (Q(1), Q(1)), (Q(-1), Q(1))]
    pts = outer + inner
    edges = [(0, 1), (1, 2), (2, 3), (3, 0),
             (4, 5), (5, 6), (6, 7), (7, 4),
             (0, 4), (1, 5), (2, 6), (3, 7)]
    from trusshom.complexes import planar_faces

    x0 = build_complex(8, edges)
    emb = Embedding.from_points(pts)
    t = Truss(planar_faces(x0, emb), emb)
    with pytest.raises(PreconditionError, match="exterior"):
        decompose_boundary(t, (4, 5, 6, 7), (4, 5, 6, 7))


def test_graph_reciprocity_wheel5(wheel):
    # the impossible-rotation class, represented orthogonally to the
    # realizable rotations and converted to stress values by dividing by
    # the primal stress (the tension/compression flip), is a self-stress
    # of the realized force diagram
    from trusshom.sparse import kernel_basis
    from trusshom.statics import force_chain_complex

    fd, pc = wheel
    (s,) = analyze(fd.truss).self_stress_basis
    diag = force_diagram_from_stress(fd, s)
    x = fd.complex
    (sigma,) = kernel_basis(pc.boundary2().transpose())
    # same class as the canonical representative
    img = echelon(pc.boundary2())
    (canon,) = impossible_rotation_basis(pc).chains
    assert rank_modulo([sigma], img) == 1
    assert rank_modulo([sigma, canon], img) == 1
    converted = [sigma[e] / s[e] for e in range(x.nedges)]
    dual_truss = Truss(
        build_complex(x.nfaces, [x.left_right_faces(e) for e in range(x.nedges)]),
        Embedding.from_points(diag.positions),
    )
    dcc = force_chain_complex(dual_truss)
    assert not any(dcc.boundary(1).apply(converted))
    assert len(kernel_basis(dcc.boundary(1))) == 1  # reciprocity: dims match
