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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .complexes import (
    CellComplex,
    DualCorrespondence,
    Embedding,
    edge_vector,
    planar_faces,
    poincare_dual,
)
from .cosheaves import (
    Cosheaf,
    CosheafMap,
    QuotientPresentation,
    Subcomplex,
    boundary_matrices,
    check_cosheaf_map,
    constant_cosheaf,
    force_cosheaf,
    quotient_cosheaf,
    restrict_to_subcomplex,
)
from .errors import InputError, InternalCheckError, PreconditionError
from .homology import ChainComplex, betti_numbers
from .sparse import (
    SparseMatrix,
    cokernel_reps,
    image_basis,
    rank,
    row_space_reducer,
    solve_particular,
)
from .statics import BoundaryDecomposition, Truss, equilibrium_stresses

Q = Fraction

Point = tuple[Fraction, Fraction]


def rot90(v: Sequence[Fraction]) -> Point:
    """Counterclockwise quarter turn (x, y) -> (-y, x)."""
    return (-v[1], v[0])


def _cross(a, b) -> Fraction:
    return a[0] * b[1] - a[1] * b[0]


def _dot(a, b) -> Fraction:
    return a[0] * b[0] + a[1] * b[1]


def _sub(a, b) -> Point:
    return (a[0] - b[0], a[1] - b[1])


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

    def edge_vec(self, e: int) -> Point:
        return edge_vector(self.complex, self.embedding, e)


def form_diagram(t: Truss) -> FormDiagram:
    """Promote a planar truss to a form diagram, tracing faces if absent."""
    if t.complex.faces:
        return FormDiagram(t)
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
    chain: ChainComplex
    force_chain: ChainComplex

    @property
    def cosheaf(self) -> Cosheaf:
        return self.presentation.quotient

    def boundary2(self) -> SparseMatrix:
        return self.chain.boundary(2)


def position_cosheaf(fd: FormDiagram) -> PositionCosheaf:
    x = fd.complex
    f = force_cosheaf(x, fd.embedding)
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

    perp = tuple(rot90(fd.edge_vec(e)) for e in range(x.nedges))
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

    return PositionCosheaf(
        diagram=fd,
        presentation=qp,
        perp=perp,
        chain=boundary_matrices(quotient),
        force_chain=boundary_matrices(f),
    )


# ---------------------------------------------------------------------------
# Force diagrams
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ForceDiagram:
    """A parallel realization of the dual complex: rational dual-vertex
    positions with every dual edge parallel to its primal edge."""

    form: FormDiagram
    dual: CellComplex
    correspondence: DualCorrespondence
    positions: tuple[Point, ...]

    def dual_segment(self, e: int) -> tuple[Point, Point]:
        """Endpoints of the dual edge of primal edge e (left face first)."""
        fl, fr = self.form.complex.left_right_faces(e)
        return self.positions[fl], self.positions[fr]


def _check_selfstress(fd: FormDiagram, stress: Sequence[Fraction]) -> list[Fraction]:
    x = fd.complex
    if len(stress) != x.nedges:
        raise InputError(f"stress has {len(stress)} entries for {x.nedges} edges")
    s = [Q(v) for v in stress]
    net = [Q(0)] * (2 * x.nverts)
    for e, (t, h) in enumerate(x.edges):
        vec = fd.edge_vec(e)
        for i in range(2):
            net[h * 2 + i] += s[e] * vec[i]
            net[t * 2 + i] -= s[e] * vec[i]
    if any(net):
        raise PreconditionError("stress is not a self-stress: nonzero joint forces")
    return s


def _integrate_dual_tree(
    t: Truss, faces, edges, anchor: int, s: Sequence[Fraction]
) -> dict[int, Point]:
    """Dual-vertex positions of ``faces`` integrated from the stress ``s``.

    ``anchor`` sits at the origin; crossing the dual edge of primal edge e
    from its left face to its right face displaces by -s_e * (edge
    vector), so q(left) - q(right) = s_e * vec holds on every edge.  The
    walk follows a spanning tree of the dual graph on ``faces`` and
    ``edges``; closure over the other dual edges is checked exactly and
    cannot fail for a genuine stress."""
    x = t.complex
    sides = x.left_right_table(edges)
    steps = {}
    adj: dict[int, list[tuple[int, Point]]] = {f: [] for f in faces}
    for e, (fl, fr) in sides.items():
        if fl not in adj or fr not in adj:
            raise InternalCheckError(f"edge {e} touches a face outside the dual region")
        vec = edge_vector(x, t.embedding, e)
        steps[e] = step = (s[e] * vec[0], s[e] * vec[1])
        adj[fl].append((fr, (-step[0], -step[1])))
        adj[fr].append((fl, step))
    q = {anchor: (Q(0), Q(0))}
    stack = [anchor]
    while stack:
        cur = stack.pop()
        for nxt, step in adj[cur]:
            if nxt not in q:
                q[nxt] = (q[cur][0] + step[0], q[cur][1] + step[1])
                stack.append(nxt)
    if len(q) != len(adj):
        raise InternalCheckError("dual graph is disconnected")
    for e, (fl, fr) in sides.items():
        if _sub(q[fl], q[fr]) != steps[e]:
            raise InternalCheckError(f"dual tree integration failed to close at edge {e}")
    return q


def force_diagram_from_stress(fd: FormDiagram, stress: Sequence[Fraction]) -> ForceDiagram:
    """Integrate a self-stress into dual-vertex positions.

    The exterior face's dual vertex is anchored at the origin and the
    positions follow from the dual tree integration above."""
    s = _check_selfstress(fd, stress)
    x = fd.complex
    dual, corr = poincare_dual(x)
    q = _integrate_dual_tree(fd.truss, range(x.nfaces), range(x.nedges), x.exterior_face, s)
    return ForceDiagram(fd, dual, corr, tuple(q[f] for f in range(x.nfaces)))


def stress_from_force_diagram(
    fd: FormDiagram, positions: Sequence[Point]
) -> list[Fraction]:
    """Recover the self-stress encoded by a parallel dual realization.

    Every dual edge must be exactly parallel to its primal edge (rational
    cross product zero); the stress on e is the ratio of the dual
    displacement to the edge vector."""
    x = fd.complex
    if len(positions) != x.nfaces:
        raise InputError(f"{len(positions)} dual positions for {x.nfaces} faces")
    pos = [(Q(p[0]), Q(p[1])) for p in positions]
    s = []
    for e in range(x.nedges):
        fl, fr = x.left_right_faces(e)
        d = _sub(pos[fl], pos[fr])
        vec = fd.edge_vec(e)
        if _cross(d, vec) != 0:
            raise PreconditionError(
                f"dual positions are not parallel to primal edge {e}"
            )
        s.append(_dot(d, vec) / _dot(vec, vec))
    _check_selfstress(fd, s)
    return s


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
    d2 = pc.boundary2()
    reps = cokernel_reps(d2)
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

    r2_chain = boundary_matrices(constant_cosheaf(x, 2))
    w = solve_particular(r2_chain.boundary(1), flat)
    if w is None:
        raise InternalCheckError("mean-free vertex field failed to lift")
    chain = []
    for e in range(x.nedges):
        n = pc.perp[e]
        chain.append(n[0] * w[2 * e] + n[1] * w[2 * e + 1])
    reduce = row_space_reducer(image_basis(pc.boundary2()), x.nedges)
    return MotionRotationClass(chain, reduce(chain))


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
    reduce = row_space_reducer(image_basis(pc.boundary2()), x.nedges)
    if any(reduce(rho)):
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
    interior faces; the boundary loop's dual cells are omitted.  The
    dimension identity between equilibrium stresses and relative dual
    realizations (up to translation) is asserted."""
    t = dec.truss
    x = t.complex
    if not x.faces or x.exterior_face is None:
        raise PreconditionError("relative diagrams need a form diagram with faces")
    _check_open_disk(x, dec.loop)

    basis = equilibrium_stresses(dec)
    if stress is None:
        s = basis[0] if basis else [Q(0)] * x.nedges
    else:
        if len(stress) != x.nedges:
            raise InputError(f"stress has {len(stress)} entries for {x.nedges} edges")
        s = [Q(v) for v in stress]
        if any(s[e] for e in dec.loop.edges):
            raise InputError("equilibrium stress must vanish on the loop edges")
    rel_chain = boundary_matrices(dec.relative_cosheaf)
    rel_coords = [s[cell.index] for cell, _ in rel_chain.labels[1]]
    if any(rel_chain.boundary(1).apply(rel_coords)):
        raise PreconditionError("stress is not an equilibrium stress of the region")

    _, edges, faces = _interior_region(x, dec.loop)
    q = _integrate_dual_tree(t, faces, edges, min(faces), s)

    # dimension identity: relative dual realizations modulo translation
    # match equilibrium stresses
    fd = FormDiagram(t)
    pc = position_cosheaf(fd)
    g_loop = Subcomplex.of(
        x, dec.loop.vertices, dec.loop.edges, {x.exterior_face}
    )
    _, incl = restrict_to_subcomplex(pc.cosheaf, g_loop)
    rel_pos = quotient_cosheaf(incl).quotient
    rel_pos_chain = boundary_matrices(rel_pos)
    h2 = rel_pos_chain.dims[2] - rank(rel_pos_chain.boundary(2))
    if h2 != len(basis) + 2:
        raise InternalCheckError(
            f"relative dual realization dimension {h2} != equilibrium "
            f"dimension {len(basis)} plus 2"
        )

    return RelativeForceDiagram(dec, s, tuple(faces), q)
