import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from trusshom import complexes
from trusshom.complexes import (
    Embedding,
    _orient,
    build_complex,
    check_noncrossing,
    euler_char,
    planar_faces,
    poincare_dual,
    segments_conflict,
)
from trusshom.cosheaves import boundary_matrices, constant_cosheaf
from trusshom.errors import InputError, PreconditionError
from trusshom.homology import betti_numbers
from trusshom.samples import square4, wheel5

from conftest import all_pairs_noncrossing, flip_edge, flip_face

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


def crossing_verdict(check, x, emb):
    """None when ``check`` accepts the embedding, else its message."""
    try:
        check(x, emb)
    except PreconditionError as exc:
        return str(exc)
    return None


def _random_drawing(rng: random.Random):
    """A small straight-line drawing rich in degenerate contacts.

    Coordinates mix the coprime denominators 1, 2, 3, 5 and 7.  A few
    random members are drawn, then one of: nothing more, a vertex on an
    existing position, a T-junction (a member starting inside another), a
    member on the line of another (overlapping, touching or disjoint), or
    a member between two existing vertices (sharing their endpoints)."""
    pts = [
        (Q(rng.randrange(-6, 7), rng.choice((1, 2, 3, 5, 7))),
         Q(rng.randrange(-6, 7), rng.choice((1, 2, 3, 5, 7))))
        for _ in range(rng.randrange(3, 7))
    ]
    edges = [(0, 1)] + [
        tuple(rng.sample(range(len(pts)), 2)) for _ in range(rng.randrange(0, 4))
    ]

    def along(e, t):
        (ax, ay), (bx, by) = (pts[v] for v in edges[e])
        pts.append((ax + t * (bx - ax), ay + t * (by - ay)))
        return len(pts) - 1

    feature = rng.randrange(5)
    e = rng.randrange(len(edges))
    if feature == 1:
        pts.append(rng.choice(pts))
    elif feature == 2:
        foot = along(e, Q(rng.randrange(1, 5), 5))
        edges.append((foot, rng.randrange(len(pts) - 1)))
    elif feature == 3:
        ts = [Q(rng.randrange(-5, 11), d) for d in rng.sample((2, 3, 5), 2)]
        edges.append((along(e, ts[0]), along(e, ts[1])))
    elif feature == 4:
        edges.append(tuple(rng.sample(range(len(pts)), 2)))
    edges = list({frozenset(m): m for m in edges if m[0] != m[1]}.values())
    rng.shuffle(edges)
    return build_complex(len(pts), edges), Embedding.from_points(pts)


def _verdict_kind(x, emb, verdict):
    if verdict is None:
        return "accepted"
    if "same position" in verdict:
        return "same position"
    i, j = map(int, re.findall(r"\d+", verdict))
    a, b, c, d = (emb.p(v) for v in x.edges[i] + x.edges[j])
    signs = [_orient(a, b, c), _orient(a, b, d), _orient(c, d, a), _orient(c, d, b)]
    if signs[0] == signs[1] == 0:
        return "collinear overlap"
    return "T-junction" if 0 in signs else "proper crossing"


def test_pruned_crossing_check_matches_all_pairs_oracle():
    rng = random.Random(5)
    kinds = Counter()
    for _ in range(3000):
        x, emb = _random_drawing(rng)
        got = crossing_verdict(check_noncrossing, x, emb)
        assert got == crossing_verdict(all_pairs_noncrossing, x, emb), (x, emb)
        kinds[_verdict_kind(x, emb, got)] += 1
    assert len(kinds) == 5 and min(kinds.values()) >= 150, kinds


def _comb(slope, gaps, shift):
    """100 vertical teeth above the member y = slope*x + shift from
    x = -1 to x = 100; tooth k starts gaps[k] above the line at x = k.
    The teeth are edges 0..99 and the long member is edge 100."""
    line = [(Q(-1), -slope + shift), (Q(100), 100 * slope + shift)]
    pts = []
    for k in range(100):
        base = k * slope + gaps[k]
        pts += [(Q(k), base), (Q(k), base + 1)]
    edges = [(2 * k, 2 * k + 1) for k in range(100)] + [(200, 201)]
    return build_complex(202, edges), Embedding.from_points(pts + line)


@pytest.mark.parametrize("slope", [Q(0), Q(37, 101)])
def test_comb_of_near_touching_members(slope):
    gap = Q(1, 10**9)
    gaps = [gap if k in (41, 77) else 2 * gap for k in range(100)]
    x, emb = _comb(slope, gaps, Q(0))
    check_noncrossing(x, emb)
    # raised by exactly the gap, the long member passes through the lower
    # endpoints of teeth 41 and 77
    x, emb = _comb(slope, gaps, gap)
    with pytest.raises(PreconditionError, match="^edges 41 and 100 cross or overlap$"):
        check_noncrossing(x, emb)


def test_collinear_chain_shares_only_endpoints():
    pts = [(Q(k, 3), Q(2 * k, 7)) for k in range(21)]
    chain = [(k, k + 1) for k in range(20)]
    emb = Embedding.from_points(pts)
    check_noncrossing(build_complex(21, chain), emb)
    # a member from vertex 5 to vertex 7 overlaps members 5 and 6
    with pytest.raises(PreconditionError, match="^edges 5 and 20 cross or overlap$"):
        check_noncrossing(build_complex(21, chain + [(5, 7)]), emb)


def _grid(n, y):
    """n x n grid truss: vertex (i, j) at (j, y(i, j)); horizontal and
    vertical members and the diagonal (i, j) -> (i+1, j+1) in every cell
    with i + j even."""
    index = {(i, j): i * n + j for i in range(n) for j in range(n)}
    pts = [(Q(j), y(i, j)) for i in range(n) for j in range(n)]
    edges = [(index[i, j], index[i, j + 1]) for i in range(n) for j in range(n - 1)]
    edges += [(index[i, j], index[i + 1, j]) for i in range(n - 1) for j in range(n)]
    edges += [
        (index[i, j], index[i + 1, j + 1])
        for i in range(n - 1) for j in range(n - 1) if (i + j) % 2 == 0
    ]
    return build_complex(n * n, edges), Embedding.from_points(pts)


def _count_segment_tests(monkeypatch):
    """Record every ``segments_conflict`` call made through ``complexes``."""
    calls = []
    real = complexes.segments_conflict

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(complexes, "segments_conflict", counting)
    return calls


def test_crossing_check_tests_only_nearby_pairs(monkeypatch):
    calls = _count_segment_tests(monkeypatch)
    x, emb = _grid(12, lambda i, j: i + Q(j * j, 97))
    planar_faces(x, emb)
    assert 0 < len(calls) <= 6 * x.nedges  # all pairs would be E(E-1)/2


def _primes_from(start, count):
    out, p = [], start
    while len(out) < count:
        if all(p % d for d in range(2, int(p**0.5) + 1)):
            out.append(p)
        p += 1
    return out


def test_crossing_check_with_distinct_prime_denominators(monkeypatch):
    # every vertex's y has its own ~2^20 prime denominator
    n = 20
    primes = _primes_from(2**20, n * n)
    x, emb = _grid(n, lambda i, j: i + Q(1, primes[i * n + j]))
    calls = _count_segment_tests(monkeypatch)
    check_noncrossing(x, emb)
    assert 0 < len(calls) <= 6 * x.nedges  # all pairs would be E(E-1)/2
    # a vertical member from (1/2, -1) to (1/2, 1/4) crosses member 0 only
    crossed = build_complex(x.nverts + 2, x.edges + ((x.nverts, x.nverts + 1),))
    crossed_emb = Embedding.from_points(
        emb.positions + ((Q(1, 2), Q(-1)), (Q(1, 2), Q(1, 4)))
    )
    got = crossing_verdict(check_noncrossing, crossed, crossed_emb)
    assert got == f"edges 0 and {x.nedges} cross or overlap"
    assert got == crossing_verdict(all_pairs_noncrossing, crossed, crossed_emb)


def test_embedding_rejects_coincident_edge_endpoints():
    x = build_complex(2, [(0, 1)])
    emb = Embedding.from_points([(0, 0), (0, 0)])
    with pytest.raises(InputError, match="coincident"):
        from trusshom.complexes import validate_embedding

        validate_embedding(x, emb)


def test_exact_rational_coordinates_survive():
    emb = Embedding.from_points([(Q(1, 3), Q(2, 7)), (1, 0)])
    assert emb.p(0) == (Q(1, 3), Q(2, 7))
