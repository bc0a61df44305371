"""Planar graphic statics: reciprocal force diagrams and their obstructions.

A form diagram is a planar truss whose minimal cycles (plus the exterior)
make it a spherical 2-complex drawn in the plane.  The quotient of the
constant plane cosheaf by the force cosheaf, the position cosheaf, stores
per-edge perpendicular data; its degree-2 homology classes are exactly
the parallel realizations of the Poincare dual (force diagrams), and its
degree-1 homology consists of per-edge rotation data no dual realization
can achieve.  Self-stresses integrate to force diagrams along a spanning
tree of the dual graph; mechanisms and global rotations map to nonzero
impossible-rotation classes.

A form diagram keeps its edge vectors (also as integers over their
common denominator), their squared lengths, its equilibrium matrix, its
Poincare dual and its dual spanning tree, each built on first use.  The
round trip between stresses and force diagrams runs on a whole batch of
stresses at once: one sparse product checks that every stress is a
self-stress, and each stress is then one walk of the kept tree in
integer arithmetic, followed by the exact closure check on every dual
edge; reading stresses back off positions is integer arithmetic too,
with one reduced fraction per edge.  The one-stress functions are
one-column calls into the same code.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import NamedTuple, Optional, Sequence

from .complexes import (
    CellComplex,
    Embedding,
    check_noncrossing,
    edge_vector,
    planar_faces,
    poincare_dual,
)
from .cosheaves import (
    Cosheaf,
    CosheafMap,
    QuotientPresentation,
    Subcomplex,
    check_cosheaf_map,
    constant_cosheaf,
    quotient_by_subcomplex,
)
from .errors import InputError, InternalCheckError, PreconditionError
from .homology import ChainComplex, betti_numbers
from .sparse import SparseMatrix, solve_particular
from .statics import BoundaryDecomposition, Truss, equilibrium_stresses

Q = Fraction
ZERO = Q(0)

Point = tuple[Fraction, Fraction]


def rot90(v: Sequence[Fraction]) -> Point:
    """Counterclockwise quarter turn (x, y) -> (-y, x)."""
    return (-v[1], v[0])


def _dot(a, b) -> Fraction:
    return a[0] * b[0] + a[1] * b[1]


@dataclass(frozen=True)
class FormDiagram:
    """A truss in the plane whose complex is a sphere with a designated
    exterior face."""

    truss: Truss

    def __post_init__(self):
        x = self.truss.complex
        if self.truss.dim != 2:
            raise PreconditionError("form diagrams live in the plane")
        if not x.faces:
            raise PreconditionError("form diagram needs face cells")
        if x.exterior_face is None:
            raise PreconditionError("form diagram needs a designated exterior face")
        if not x.is_closed_surface():
            raise PreconditionError("form diagram complex is not spherical")
        if x.nverts - x.nedges + x.nfaces != 2:
            raise PreconditionError("form diagram complex has the wrong Euler count")

    @property
    def complex(self) -> CellComplex:
        return self.truss.complex

    @property
    def embedding(self) -> Embedding:
        return self.truss.embedding

    @cached_property
    def edge_vectors(self) -> tuple[Point, ...]:
        """p(head) - p(tail) of every edge."""
        x = self.complex
        return tuple(edge_vector(x, self.embedding, e) for e in range(x.nedges))

    @cached_property
    def integer_edge_vectors(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        """``(w, vectors)``: the least common denominator w of all edge
        vector coordinates, and every edge vector times w, in integers.
        The stress round trip runs on these, so that its arithmetic is
        on integers and each result is reduced once."""
        w = lcm(*(c.denominator for v in self.edge_vectors for c in v))
        return w, tuple((int(vx * w), int(vy * w)) for vx, vy in self.edge_vectors)

    @cached_property
    def edge_norms(self) -> tuple[int, ...]:
        """Squared length of every integer edge vector: w**2 times the
        squared length of the edge."""
        return tuple(vx * vx + vy * vy for vx, vy in self.integer_edge_vectors[1])

    @cached_property
    def equilibrium(self) -> SparseMatrix:
        """The equilibrium matrix (two rows per joint, one column per
        edge), the d1 of the force complex, written from the edge vectors
        so that a form diagram with traced faces assembles no second
        force complex."""
        x = self.complex
        entries = {}
        for e, ((t, h), vec) in enumerate(zip(x.edges, self.edge_vectors)):
            for i, c in enumerate(vec):
                if c:
                    entries[(2 * h + i, e)] = c
                    entries[(2 * t + i, e)] = -c
        return SparseMatrix(2 * x.nverts, x.nedges, entries)

    @cached_property
    def dual(self) -> CellComplex:
        """The Poincare dual; raises PreconditionError when the complex
        is not regular."""
        return poincare_dual(self.complex)

    @cached_property
    def dual_tree(self) -> DualTree:
        """Spanning tree of the whole dual graph, anchored at the
        exterior face."""
        x = self.complex
        return _dual_tree(x, range(x.nfaces), range(x.nedges), x.exterior_face)

    def edge_vec(self, e: int) -> Point:
        return self.edge_vectors[e]


def form_diagram(t: Truss) -> FormDiagram:
    """Promote a planar truss to a form diagram, tracing faces if absent.
    Given faces are accepted only when no two members cross or overlap;
    face tracing makes the same check itself."""
    if t.complex.faces:
        fd = FormDiagram(t)
        check_noncrossing(t.complex, t.embedding)
        return fd
    return FormDiagram(Truss(planar_faces(t.complex, t.embedding), t.embedding))


@dataclass(frozen=True)
class PositionCosheaf:
    """Quotient of the constant plane cosheaf by the force cosheaf.

    Face stalks are dual-vertex positions (dimension 2), vertex stalks
    vanish, and each edge stalk is the one-dimensional quotient
    coordinate along the unnormalized perpendicular covector
    perp[e] = rot90(edge vector); keeping it unnormalized keeps all
    arithmetic rational."""

    diagram: FormDiagram
    presentation: QuotientPresentation
    perp: tuple[Point, ...]

    @property
    def cosheaf(self) -> Cosheaf:
        return self.presentation.quotient

    @property
    def chain(self) -> ChainComplex:
        return self.cosheaf.chain_complex

    @property
    def force_chain(self) -> ChainComplex:
        return self.presentation.inclusion.source.chain_complex

    def boundary2(self) -> SparseMatrix:
        return self.chain.boundary(2)


def position_cosheaf(fd: FormDiagram) -> PositionCosheaf:
    x = fd.complex
    f = fd.truss.cosheaf
    r2 = constant_cosheaf(x, 2)

    components = {}
    for v in x.vertex_ids():
        components[v] = SparseMatrix.identity(2)
    for e in x.edge_ids():
        vec = fd.edge_vec(e.index)
        components[e] = SparseMatrix(2, 1, {(i, 0): c for i, c in enumerate(vec) if c})
    for fc in x.face_ids():
        components[fc] = SparseMatrix(2, 0)
    incl = CosheafMap(f, r2, components)
    if check_cosheaf_map(incl):
        raise InternalCheckError("force -> constant inclusion squares fail")

    perp = tuple(rot90(v) for v in fd.edge_vectors)
    for e, n in enumerate(perp):
        if n == (0, 0):
            raise InputError(f"edge {e} has zero length")

    stalks = {}
    projections = {}
    sections = {}
    for v in x.vertex_ids():
        stalks[v] = 0
        projections[v] = SparseMatrix(0, 2)
        sections[v] = SparseMatrix(2, 0)
    for e in x.edge_ids():
        n = perp[e.index]
        stalks[e] = 1
        projections[e] = SparseMatrix(1, 2, {(0, i): c for i, c in enumerate(n) if c})
        nn = _dot(n, n)
        sections[e] = SparseMatrix(
            2, 1, {(i, 0): c / nn for i, c in enumerate(n) if c}
        )
    for fc in x.face_ids():
        stalks[fc] = 2
        projections[fc] = SparseMatrix.identity(2)
        sections[fc] = SparseMatrix.identity(2)

    maps = {}
    for e, v, _ in x.edge_vertex_incidences():
        maps[(e, v)] = SparseMatrix(0, 1)
    for fc, e, _ in x.face_edge_incidences():
        maps[(fc, e)] = projections[e]  # the perpendicular projection row
    quotient = Cosheaf(x, stalks, maps)

    qp = QuotientPresentation(incl, quotient, projections, sections)
    for c in x.cells():
        if not (projections[c] @ incl.component(c)).is_zero():
            raise InternalCheckError(f"projection does not kill the force stalk at {c}")
        if projections[c] @ sections[c] != SparseMatrix.identity(stalks[c]):
            raise InternalCheckError(f"section is not split at {c}")
    if check_cosheaf_map(qp.projection_map()):
        raise InternalCheckError("position-cosheaf projection squares fail")

    return PositionCosheaf(diagram=fd, presentation=qp, perp=perp)


# ---------------------------------------------------------------------------
# Force diagrams
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ForceDiagram:
    """A parallel realization of the dual complex: rational dual-vertex
    positions with every dual edge parallel to its primal edge."""

    form: FormDiagram
    dual: CellComplex
    positions: tuple[Point, ...]

    def dual_segment(self, e: int) -> tuple[Point, Point]:
        """Endpoints of the dual edge of primal edge e (left face first)."""
        fl, fr = self.form.complex.left_right_faces(e)
        return self.positions[fl], self.positions[fr]


class DualTree(NamedTuple):
    """Spanning tree of the dual graph on a region of faces.

    ``steps`` lists ``(face, parent, edge, sign)`` with every parent
    before its children; the anchor is the root and has no step.
    Crossing the dual edge of primal edge e from its left face to its
    right face displaces by -s_e * (edge vector), so a step places face
    at parent + sign * s_e * (edge vector).  ``sides`` lists ``(edge,
    left face, right face)`` for every dual edge of the region, tree
    edges included, for the closure check."""

    anchor: int
    steps: tuple[tuple[int, int, int, int], ...]
    sides: tuple[tuple[int, int, int], ...]


def _dual_tree(x: CellComplex, faces, edges, anchor: int) -> DualTree:
    """Spanning tree of the dual graph on ``faces`` and ``edges``, by a
    depth-first walk from ``anchor``.  Every edge must bound exactly two
    faces of the region, and the region must be connected."""
    sides = tuple((e, *x.left_right_faces(e)) for e in edges)
    adj: dict[int, list[tuple[int, int, int]]] = {f: [] for f in faces}
    for e, fl, fr in sides:
        if fl not in adj or fr not in adj:
            raise InternalCheckError(f"edge {e} touches a face outside the dual region")
        adj[fl].append((fr, e, -1))
        adj[fr].append((fl, e, +1))
    seen = {anchor}
    steps = []
    stack = [anchor]
    while stack:
        cur = stack.pop()
        for nxt, e, sign in adj[cur]:
            if nxt not in seen:
                seen.add(nxt)
                steps.append((nxt, cur, e, sign))
                stack.append(nxt)
    if len(seen) != len(adj):
        raise InternalCheckError("dual graph is disconnected")
    return DualTree(anchor, tuple(steps), sides)


def _common_denominator(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """``(d, numerators)`` with values[i] == numerators[i] / d, where d is
    the least common denominator of the values."""
    d = lcm(*(v.denominator for v in values))
    return d, [v.numerator * (d // v.denominator) for v in values]


def _integrate_dual_tree(
    tree: DualTree,
    integer_vectors: tuple[int, Sequence[tuple[int, int]]],
    stresses: Sequence[Sequence[Fraction]],
) -> list[dict[int, Point]]:
    """Dual-vertex positions of the tree's faces for each stress.

    ``integer_vectors`` is ``(w, vectors)`` as in
    ``FormDiagram.integer_edge_vectors``.  The anchor sits at the origin
    and each stress is one walk of the tree, so q(left) - q(right) =
    s_e * (edge vector) holds on every tree edge.  The walk runs on the
    stress's numerators over its common denominator d, so every
    position is an integer over d * w until it is written out.  Closure
    over every dual edge of the region is then checked exactly; it
    cannot fail for a genuine stress."""
    w, vectors = integer_vectors
    out = []
    for s in stresses:
        d, n = _common_denominator(s)
        qx = {tree.anchor: 0}
        qy = {tree.anchor: 0}
        for f, parent, e, sign in tree.steps:
            c = n[e] if sign > 0 else -n[e]
            vx, vy = vectors[e]
            qx[f] = qx[parent] + c * vx
            qy[f] = qy[parent] + c * vy
        for e, fl, fr in tree.sides:
            vx, vy = vectors[e]
            c = n[e]
            if qx[fl] - qx[fr] != c * vx or qy[fl] - qy[fr] != c * vy:
                raise InternalCheckError(f"dual tree integration failed to close at edge {e}")
        # faces at the same integer position share one point, so a stress
        # that vanishes on most edges writes few fractions out
        scale = d * w
        points: dict[tuple[int, int], Point] = {}
        q = {}
        for f, x in qx.items():
            key = (x, qy[f])
            if key not in points:
                points[key] = (Q(key[0], scale), Q(key[1], scale))
            q[f] = points[key]
        out.append(q)
    return out


def _check_selfstresses(fd: FormDiagram, stresses: list[list[Fraction]]) -> None:
    """Raise unless every stress has zero net force at every joint: one
    sparse product of the equilibrium matrix with the stresses as its
    columns."""
    stack = SparseMatrix(
        fd.complex.nedges,
        len(stresses),
        {(e, j): v for j, s in enumerate(stresses) for e, v in enumerate(s) if v},
    )
    if not (fd.equilibrium @ stack).is_zero():
        raise PreconditionError("stress is not a self-stress: nonzero joint forces")


def force_diagrams_from_stresses(
    fd: FormDiagram, stresses: Sequence[Sequence[Fraction]]
) -> list[ForceDiagram]:
    """Integrate a batch of self-stresses into dual-vertex positions.

    The exterior face's dual vertex is anchored at the origin, and every
    stress walks the form diagram's one dual tree."""
    x = fd.complex
    ss = []
    for stress in stresses:
        if len(stress) != x.nedges:
            raise InputError(f"stress has {len(stress)} entries for {x.nedges} edges")
        ss.append([Q(v) for v in stress])
    _check_selfstresses(fd, ss)
    dual = fd.dual
    return [
        ForceDiagram(fd, dual, tuple(q[f] for f in range(x.nfaces)))
        for q in _integrate_dual_tree(fd.dual_tree, fd.integer_edge_vectors, ss)
    ]


def force_diagram_from_stress(fd: FormDiagram, stress: Sequence[Fraction]) -> ForceDiagram:
    """Integrate one self-stress into dual-vertex positions; see
    ``force_diagrams_from_stresses``."""
    return force_diagrams_from_stresses(fd, [stress])[0]


def stresses_from_force_diagrams(
    fd: FormDiagram, diagrams: Sequence[Sequence[Point]]
) -> list[list[Fraction]]:
    """Recover the self-stresses encoded by a batch of parallel dual
    realizations, each given by its dual-vertex positions.

    Every dual edge must be exactly parallel to its primal edge (cross
    product zero); the stress on e is the ratio of the dual displacement
    to the edge vector.  Both are computed on the positions' numerators
    over their common denominator and on the integer edge vectors.  The
    recovered stresses are checked to be self-stresses."""
    x = fd.complex
    w, vectors = fd.integer_edge_vectors
    edges = [
        (e, *x.left_right_faces(e), vec, nn)
        for e, (vec, nn) in enumerate(zip(vectors, fd.edge_norms))
    ]
    out = []
    for positions in diagrams:
        if len(positions) != x.nfaces:
            raise InputError(f"{len(positions)} dual positions for {x.nfaces} faces")
        d, flat = _common_denominator([Q(c) for p in positions for c in (p[0], p[1])])
        px, py = flat[0::2], flat[1::2]
        s = []
        for e, fl, fr, (vx, vy), nn in edges:
            dx, dy = px[fl] - px[fr], py[fl] - py[fr]
            if dx * vy != dy * vx:
                raise PreconditionError(
                    f"dual positions are not parallel to primal edge {e}"
                )
            dot = dx * vx + dy * vy
            s.append(Q(dot * w, d * nn) if dot else ZERO)
        out.append(s)
    _check_selfstresses(fd, out)
    return out


def stress_from_force_diagram(
    fd: FormDiagram, positions: Sequence[Point]
) -> list[Fraction]:
    """Recover the self-stress encoded by one parallel dual realization;
    see ``stresses_from_force_diagrams``."""
    return stresses_from_force_diagrams(fd, [positions])[0]


# ---------------------------------------------------------------------------
# Impossible rotations (obstructions to dual realizations)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RotationBasis:
    """Canonical representatives of the per-edge rotation classes no dual
    realization can achieve; coordinates are in the perp[e] basis."""

    chains: list[list[Fraction]]

    @property
    def dim(self) -> int:
        return len(self.chains)


def impossible_rotation_basis(pc: PositionCosheaf) -> RotationBasis:
    reps = pc.chain.representatives(1)
    b0_force = betti_numbers(pc.force_chain)[0]
    if len(reps) != b0_force - 2:
        raise InternalCheckError(
            f"impossible-rotation dimension {len(reps)} != "
            f"degrees of freedom {b0_force} minus 2"
        )
    return RotationBasis(reps)


def _flatten_vertex_field(fd: FormDiagram, u) -> list[Fraction]:
    x = fd.complex
    if len(u) == x.nverts and u and isinstance(u[0], (tuple, list)):
        flat = [Q(c) for pt in u for c in pt]
    else:
        flat = [Q(c) for c in u]
    if len(flat) != 2 * x.nverts:
        raise InputError("vertex field has the wrong length")
    return flat


@dataclass(frozen=True)
class MotionRotationClass:
    chain: list[Fraction]     # raw per-edge rotation coordinates
    residue: list[Fraction]   # canonical representative modulo realizable rotations

    @property
    def is_zero(self) -> bool:
        return not any(self.residue)


def motion_to_rotation_class(pc: PositionCosheaf, u) -> MotionRotationClass:
    """Map a vertex motion to its obstruction class.

    The translation component is removed (mean subtraction), the motion
    is lifted through the constant plane cosheaf's boundary, projected
    edgewise onto the perpendicular coordinates, and reduced against the
    realizable rotations (the image of the position-cosheaf boundary).
    Mechanisms and global rotations land on nonzero classes; boundaries
    of actual dual repositionings land on zero."""
    fd = pc.diagram
    x = fd.complex
    flat = _flatten_vertex_field(fd, u)
    nv = x.nverts
    mean = (sum(flat[0::2]) / nv, sum(flat[1::2]) / nv)
    for v in range(nv):
        flat[2 * v] -= mean[0]
        flat[2 * v + 1] -= mean[1]

    r2_chain = pc.presentation.inclusion.target.chain_complex
    w = solve_particular(r2_chain.boundary(1), flat)
    if w is None:
        raise InternalCheckError("mean-free vertex field failed to lift")
    chain = []
    for e in range(x.nedges):
        n = pc.perp[e]
        chain.append(n[0] * w[2 * e] + n[1] * w[2 * e + 1])
    return MotionRotationClass(chain, pc.chain.echelon(2).reduce(chain))


def check_form_finding_safety(pc: PositionCosheaf, zeta) -> bool:
    """Any repositioning of dual vertices induces only realizable edge
    rotations: the boundary of a position 2-chain reduces to the zero
    class.  Failure indicates an implementation bug, not bad input."""
    x = pc.diagram.complex
    flat = [Q(c) for pt in zeta for c in pt] if (
        len(zeta) == x.nfaces and zeta and isinstance(zeta[0], (tuple, list))
    ) else [Q(c) for c in zeta]
    if len(flat) != pc.chain.dims[2]:
        raise InputError("dual repositioning has the wrong length")
    rho = pc.boundary2().apply(flat)
    if any(pc.chain.echelon(2).reduce(rho)):
        raise InternalCheckError("dual repositioning produced an unrealizable rotation")
    return True


# ---------------------------------------------------------------------------
# Relative graphic statics (boundary loads)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RelativeForceDiagram:
    """Parallel realization of the dual disk of a decomposed structure:
    dual vertices only for the interior faces, anchored at the lowest
    interior face index."""

    decomposition: BoundaryDecomposition
    stress: list[Fraction]                 # over all edges, zero on the loop
    interior_faces: tuple[int, ...]
    positions: dict[int, Point]            # interior face -> dual position

    def dual_segment(self, e: int) -> tuple[Point, Point]:
        fl, fr = self.decomposition.truss.complex.left_right_faces(e)
        return self.positions[fl], self.positions[fr]


def _interior_region(x: CellComplex, loop: Subcomplex):
    verts = [v for v in range(x.nverts) if v not in loop.vertices]
    edges = [e for e in range(x.nedges) if e not in loop.edges]
    faces = [f for f in range(x.nfaces) if f != x.exterior_face]
    return verts, edges, faces


def _check_open_disk(x: CellComplex, loop: Subcomplex) -> None:
    """The complement of the loop-plus-exterior must be one open disk:
    connected with alternating cell count exactly 1."""
    verts, edges, faces = _interior_region(x, loop)
    chi = len(verts) - len(edges) + len(faces)
    cells = (
        [("v", v) for v in verts] + [("e", e) for e in edges] + [("f", f) for f in faces]
    )
    if not cells:
        raise PreconditionError("decomposed region is empty")
    index = {c: i for i, c in enumerate(cells)}
    parent = list(range(len(cells)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(a, b):
        if a in index and b in index:
            ra, rb = find(index[a]), find(index[b])
            parent[ra] = rb

    for e in edges:
        t, h = x.edges[e]
        union(("e", e), ("v", t))
        union(("e", e), ("v", h))
    for f in faces:
        for e, _ in x.faces[f]:
            union(("f", f), ("e", e))
    roots = {find(i) for i in range(len(cells))}
    if len(roots) != 1 or chi != 1:
        raise PreconditionError(
            "decomposed region is not an open disk (boundary loads with interior "
            "holes are rejected, not solved)"
        )


def relative_force_diagram(
    dec: BoundaryDecomposition, stress: Optional[Sequence[Fraction]] = None
) -> RelativeForceDiagram:
    """Dual-disk realization of an equilibrium stress.

    Same tree integration as for closed self-stresses, restricted to the
    interior faces; the boundary loop's dual cells are omitted.  Without
    a ``stress`` the first equilibrium basis stress is realized.  The
    dimension identity between equilibrium stresses and relative dual
    realizations (up to translation) is asserted."""
    t = dec.truss
    x = t.complex
    if not x.faces or x.exterior_face is None:
        raise PreconditionError("relative diagrams need a form diagram with faces")
    _check_open_disk(x, dec.loop)

    if stress is None:
        basis = equilibrium_stresses(dec)
        s = basis[0] if basis else [Q(0)] * x.nedges
    else:
        if len(stress) != x.nedges:
            raise InputError(f"stress has {len(stress)} entries for {x.nedges} edges")
        s = [Q(v) for v in stress]
        if any(s[e] for e in dec.loop.edges):
            raise InputError("equilibrium stress must vanish on the loop edges")
    rel_chain = dec.relative_cosheaf.chain_complex
    rel_coords = [s[cell.index] for cell, _ in rel_chain.labels[1]]
    if any(rel_chain.boundary(1).apply(rel_coords)):
        raise PreconditionError("stress is not an equilibrium stress of the region")

    _, edges, faces = _interior_region(x, dec.loop)
    tree = _dual_tree(x, faces, edges, min(faces))
    fd = FormDiagram(t)
    (q,) = _integrate_dual_tree(tree, fd.integer_edge_vectors, [s])

    # dimension identity: relative dual realizations modulo translation
    # match equilibrium stresses
    pc = position_cosheaf(fd)
    g_loop = Subcomplex.of(
        x, dec.loop.vertices, dec.loop.edges, {x.exterior_face}
    )
    rel_pos = quotient_by_subcomplex(pc.cosheaf, g_loop).quotient
    rel_pos_chain = rel_pos.chain_complex
    h2 = rel_pos_chain.dims[2] - rel_pos_chain.rank(2)
    eq_dim = betti_numbers(rel_chain)[1]
    if h2 != eq_dim + 2:
        raise InternalCheckError(
            f"relative dual realization dimension {h2} != equilibrium "
            f"dimension {eq_dim} plus 2"
        )

    return RelativeForceDiagram(dec, s, tuple(faces), q)
