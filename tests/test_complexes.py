from fractions import Fraction

import pytest

from trusshom.complexes import (
    Embedding,
    build_complex,
    euler_char,
    planar_faces,
    poincare_dual,
    segments_conflict,
)
from trusshom.cosheaves import boundary_matrices, constant_cosheaf
from trusshom.errors import InputError, PreconditionError
from trusshom.homology import betti_numbers
from trusshom.samples import square4, wheel5

from conftest import flip_edge, flip_face

Q = Fraction


def test_build_minimal_1_complex():
    x = build_complex(2, [(0, 1)])
    assert x.dim == 1 and x.nedges == 1
    assert euler_char(x) == 1


def test_build_rejects_self_loop_and_dangling():
    with pytest.raises(InputError, match="self-loop"):
        build_complex(2, [(1, 1)])
    with pytest.raises(InputError, match="missing vertex"):
        build_complex(2, [(0, 5)])


def test_build_rejects_open_face_cycle():
    # two edges sharing only one endpoint do not close up
    with pytest.raises(InputError, match="does not close"):
        build_complex(3, [(0, 1), (1, 2)], [[(0, 1), (1, 1)]])


def test_wheel5_spec_is_valid_spherical():
    x = wheel5(with_faces=True).complex
    assert (x.nverts, x.nedges, x.nfaces) == (5, 8, 5)
    assert x.is_closed_surface()
    assert euler_char(x) == 2
    assert x.exterior_face is not None


def test_planar_faces_square():
    t = square4()
    x = planar_faces(t.complex, t.embedding)
    assert x.nfaces == 2  # interior plus exterior
    assert euler_char(x) == 2


def test_planar_faces_wheel5_euler_oracle():
    t = wheel5()
    x = planar_faces(t.complex, t.embedding)
    # Euler: |F| = 2 - |V| + |E| = 2 - 5 + 8
    assert x.nfaces == 2 - 5 + 8 == 5
    interior = [f for f in range(x.nfaces) if f != x.exterior_face]
    assert all(len(x.faces[f]) == 3 for f in interior)  # four triangles


def test_planar_faces_rejects_crossings():
    x = build_complex(4, [(0, 1), (2, 3), (0, 2), (1, 3)])
    emb = Embedding.from_points([(0, 0), (1, 1), (1, 0), (0, 1)])
    with pytest.raises(PreconditionError, match="cross"):
        planar_faces(x, emb)


def test_planar_faces_rejects_disconnected():
    x = build_complex(4, [(0, 1), (2, 3)])
    emb = Embedding.from_points([(0, 0), (1, 0), (0, 1), (1, 1)])
    with pytest.raises(PreconditionError, match="connected"):
        planar_faces(x, emb)


def test_planar_faces_rejects_bridge():
    x = build_complex(3, [(0, 1), (1, 2)])
    emb = Embedding.from_points([(0, 0), (1, 0), (2, 1)])
    with pytest.raises(PreconditionError, match="bridge"):
        planar_faces(x, emb)


def test_euler_char_examples():
    assert euler_char(wheel5(with_faces=True).complex) == 2
    assert euler_char(square4().complex) == 0  # 4 - 4, no faces
    assert euler_char(build_complex(1, [])) == 1


def test_poincare_dual_tetrahedron_counts():
    # K4 drawn as a triangle with an interior vertex: (4, 6, 4) complex
    x = build_complex(4, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3)])
    emb = Embedding.from_points([(0, 0), (4, 0), (2, 4), (2, 1)])
    sph = planar_faces(x, emb)
    assert (sph.nverts, sph.nedges, sph.nfaces) == (4, 6, 4)
    dual = poincare_dual(sph)
    assert (dual.nverts, dual.nedges, dual.nfaces) == (4, 6, 4)
    assert euler_char(dual) == 2


def test_poincare_dual_wheel5_count_swap():
    x = wheel5(with_faces=True).complex
    dual = poincare_dual(x)
    assert (dual.nverts, dual.nedges, dual.nfaces) == (x.nfaces, x.nedges, x.nverts)
    assert dual.is_closed_surface()


def test_poincare_dual_rejects_open_disk():
    # a triangle with a single interior face (no exterior): edge has 1 face
    x = build_complex(3, [(0, 1), (1, 2), (2, 0)], [[(0, 1), (1, 1), (2, 1)]])
    with pytest.raises(PreconditionError, match="not closed"):
        poincare_dual(x)


def test_poincare_dual_rejects_pinched_sphere():
    # two tetrahedra glued at vertex 0: a closed surface whose link at the
    # shared vertex is two circles
    edges, faces = [], []
    for a, b, c, d in ((0, 1, 2, 3), (0, 4, 5, 6)):
        for tri in ((b, c, d), (a, d, c), (a, b, d), (a, c, b)):
            cycle = []
            for t, h in zip(tri, tri[1:] + tri[:1]):
                if (h, t) in edges:
                    cycle.append((edges.index((h, t)), -1))
                    continue
                if (t, h) not in edges:
                    edges.append((t, h))
                cycle.append((edges.index((t, h)), 1))
            faces.append(cycle)
    x = build_complex(7, edges, faces)
    assert x.is_closed_surface()
    with pytest.raises(PreconditionError, match="not a single circle"):
        poincare_dual(x)


def test_dual_of_dual_identity_on_labels():
    x = wheel5(with_faces=True).complex
    ddual = poincare_dual(poincare_dual(x))
    assert (ddual.nverts, ddual.nedges, ddual.nfaces) == (x.nverts, x.nedges, x.nfaces)
    # dual cells keep their primal indices, and dualizing twice restores
    # every edge with its orientation
    assert ddual.edges == x.edges


def test_boundary_of_boundary_vanishes_on_spheres():
    for t in (wheel5(with_faces=True), square4(with_faces=True)):
        cc = boundary_matrices(constant_cosheaf(t.complex, 1))
        assert (cc.boundary(1) @ cc.boundary(2)).is_zero()


def test_sphere_cellular_betti():
    for t in (wheel5(with_faces=True), square4(with_faces=True)):
        assert betti_numbers(boundary_matrices(constant_cosheaf(t.complex, 1))) == (1, 0, 1)


def test_orientation_flips_preserve_betti():
    # edge flips keep the coherent surface structure; face flips break the
    # left/right bookkeeping but can never change homology
    x = wheel5(with_faces=True).complex
    base = betti_numbers(boundary_matrices(constant_cosheaf(x, 1)))
    for e in range(x.nedges):
        y = flip_edge(x, e)
        assert y.is_closed_surface()
        assert betti_numbers(boundary_matrices(constant_cosheaf(y, 1))) == base
    for f in range(x.nfaces):
        y = flip_face(x, f)
        assert betti_numbers(boundary_matrices(constant_cosheaf(y, 1))) == base


def test_segment_conflicts():
    a, b = (Q(0), Q(0)), (Q(2), Q(0))
    # proper crossing
    assert segments_conflict(a, b, (Q(1), Q(-1)), (Q(1), Q(1)))
    # T-junction: endpoint inside the other segment
    assert segments_conflict(a, b, (Q(1), Q(0)), (Q(1), Q(2)))
    # collinear overlap
    assert segments_conflict(a, b, (Q(1), Q(0)), (Q(3), Q(0)))
    # shared endpoint only: fine
    assert not segments_conflict(a, b, b, (Q(3), Q(1)))
    # collinear but disjoint: fine
    assert not segments_conflict(a, b, (Q(3), Q(0)), (Q(4), Q(0)))
    # collinear touching at one endpoint: fine
    assert not segments_conflict(a, b, (Q(2), Q(0)), (Q(4), Q(0)))
    # no contact at all
    assert not segments_conflict(a, b, (Q(0), Q(1)), (Q(2), Q(1)))


def test_embedding_rejects_coincident_edge_endpoints():
    x = build_complex(2, [(0, 1)])
    emb = Embedding.from_points([(0, 0), (0, 0)])
    with pytest.raises(InputError, match="coincident"):
        from trusshom.complexes import validate_embedding

        validate_embedding(x, emb)


def test_exact_rational_coordinates_survive():
    emb = Embedding.from_points([(Q(1, 3), Q(2, 7)), (1, 0)])
    assert emb.p(0) == (Q(1, 3), Q(2, 7))
