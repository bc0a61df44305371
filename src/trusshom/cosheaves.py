"""Cellular cosheaves over a CellComplex.

A cosheaf attaches a rational vector space (stalk) to every cell and a
matrix to every incidence higher-cell > lower-cell, mapping data on the
higher cell down to the lower one.  Zero-dimensional stalks are first
class: their matrices are empty, never deleted, so constructions like
force cosheaves (zero face stalks) need no special casing.

The module houses the builders used elsewhere (constant, force, spline),
restriction to a closed subcomplex, the quotient by a subcomplex
(extension by zero), cosheaf maps with their commuting-square checks,
and the assembly of cosheaf boundary matrices into a ChainComplex.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import prod

from .complexes import CellComplex, CellId, Embedding, ecell, edge_vector, fcell, validate_embedding, vcell
from .errors import InputError, PreconditionError
from .homology import ChainComplex
from .sparse import SparseMatrix

Q = Fraction


def incidence_pairs(x: CellComplex) -> list[tuple[CellId, CellId, int]]:
    """All (higher, lower, sign) incidences of the base complex."""
    out = [(e, v, s) for e, v, s in x.edge_vertex_incidences()]
    out += [(f, e, s) for f, e, s in x.face_edge_incidences()]
    return out


@dataclass(frozen=True)
class Cosheaf:
    """Stalk dimensions per cell plus one matrix per incidence.

    maps[(higher, lower)] has shape stalk(lower) x stalk(higher); a matrix
    must be present for every incidence of the base complex (empty when a
    stalk is zero-dimensional).
    """

    base: CellComplex
    stalk_dims: dict[CellId, int]
    maps: dict[tuple[CellId, CellId], SparseMatrix]

    def __post_init__(self):
        cells = set(self.base.cells())
        if set(self.stalk_dims) != cells:
            raise InputError("stalk dimensions must cover exactly the base cells")
        if any(d < 0 for d in self.stalk_dims.values()):
            raise InputError("negative stalk dimension")
        needed = {(hi, lo) for hi, lo, _ in incidence_pairs(self.base)}
        if set(self.maps) != needed:
            raise InputError("cosheaf maps must cover exactly the base incidences")
        for (hi, lo), m in self.maps.items():
            if m.shape != (self.stalk_dims[lo], self.stalk_dims[hi]):
                raise InputError(
                    f"map {hi} > {lo} has shape {m.shape}, expected "
                    f"({self.stalk_dims[lo]}, {self.stalk_dims[hi]})"
                )

    def stalk(self, cell: CellId) -> int:
        return self.stalk_dims[cell]

    @cached_property
    def chain_complex(self) -> ChainComplex:
        """The assembled boundary matrices, built on first use and kept
        together with the eliminations the complex caches."""
        return boundary_matrices(self)

    def chain_dim(self, k: int) -> int:
        return sum(self.stalk_dims[c] for c in self.base.cells_of_dim(k))

    def chain_offsets(self, k: int) -> dict[CellId, int]:
        off = {}
        pos = 0
        for c in self.base.cells_of_dim(k):
            off[c] = pos
            pos += self.stalk_dims[c]
        return off

    def chain_labels(self, k: int) -> tuple:
        labels = []
        for c in self.base.cells_of_dim(k):
            labels += [(c, i) for i in range(self.stalk_dims[c])]
        return tuple(labels)


def boundary_matrices(f: Cosheaf) -> ChainComplex:
    """Assemble the cosheaf boundary matrices with cellular signs.

    A 1-chain's boundary at a vertex sums the incident edge stalks pushed
    through their cosheaf maps, +1 at the head and -1 at the tail; faces
    contribute to edges with their boundary-cycle signs.  The composition
    of consecutive boundaries is verified to vanish, a hard failure
    otherwise.
    """
    x = f.base
    dims = {k: f.chain_dim(k) for k in range(x.dim + 1)}
    offs = {k: f.chain_offsets(k) for k in range(x.dim + 1)}

    def assemble(k: int, incid) -> SparseMatrix:
        entries: dict[tuple[int, int], Fraction] = {}
        for hi, lo, sign in incid:
            m = f.maps[(hi, lo)]
            r0, c0 = offs[k - 1][lo], offs[k][hi]
            for (i, j), v in m.entries.items():
                key = (r0 + i, c0 + j)
                entries[key] = entries.get(key, Q(0)) + sign * v
        entries = {k2: v for k2, v in entries.items() if v}
        return SparseMatrix(
            dims[k - 1], dims[k], entries,
            row_labels=f.chain_labels(k - 1), col_labels=f.chain_labels(k),
        )

    boundaries = {}
    if x.dim >= 1:
        boundaries[1] = assemble(1, x.edge_vertex_incidences())
    if x.dim >= 2:
        boundaries[2] = assemble(2, x.face_edge_incidences())
    labels = {k: f.chain_labels(k) for k in dims}
    return ChainComplex(dims, boundaries, labels)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def constant_cosheaf(x: CellComplex, m: int) -> Cosheaf:
    """Every stalk a copy of the same m-dimensional space, identity maps."""
    if m < 0:
        raise InputError("constant cosheaf dimension must be >= 0")
    ident = SparseMatrix.identity(m)
    stalks = {c: m for c in x.cells()}
    maps = {(hi, lo): ident for hi, lo, _ in incidence_pairs(x)}
    return Cosheaf(x, stalks, maps)


def force_cosheaf(x: CellComplex, emb: Embedding) -> Cosheaf:
    """Axial member statics: n-dimensional vertex stalks (joint forces),
    1-dimensional edge stalks (member stress), zero face stalks.

    The single stored column at both ends of edge t->h is p(head) -
    p(tail); the cellular signs in the boundary assembly supply the
    equal-and-opposite pull at the tail, so the assembled degree-1
    boundary is the classical equilibrium matrix.
    """
    validate_embedding(x, emb)
    n = emb.dim
    stalks: dict[CellId, int] = {}
    for v in x.vertex_ids():
        stalks[v] = n
    for e in x.edge_ids():
        stalks[e] = 1
    for fc in x.face_ids():
        stalks[fc] = 0
    columns = [
        SparseMatrix(n, 1, {(i, 0): c for i, c in enumerate(edge_vector(x, emb, e)) if c})
        for e in range(x.nedges)
    ]
    maps: dict[tuple[CellId, CellId], SparseMatrix] = {}
    for e, v, _ in x.edge_vertex_incidences():
        maps[(e, v)] = columns[e.index]
    for fc, e, _ in x.face_edge_incidences():
        maps[(fc, e)] = SparseMatrix(1, 0)
    return Cosheaf(x, stalks, maps)


def spline_cosheaf(x: CellComplex, degree: int, smoothness: int) -> Cosheaf:
    """Piecewise-polynomial data on a graph.

    Edge stalks are polynomials of degree <= ``degree`` in the edge's
    affine parameter (tail at 0, head at 1, monomial basis); vertex stalks
    are jets of order ``smoothness`` (value and first r derivatives).
    The edge-to-vertex map evaluates the jet at the vertex's end of the
    parameter, and the assembled boundary adds these jets at each vertex
    with the incidence sign (+ at the head, - at the tail).  Its kernel
    is the edge data whose signed jets sum to zero at every vertex.
    That is matching in value and r derivatives only at a vertex with
    one edge arriving and one leaving, as along a consistently oriented
    cycle; at a leaf the jet vanishes, and at a vertex of degree 3 or
    more only the signed sum is constrained.  It is not the classical
    space of splines on the graph.
    """
    if x.dim > 1:
        raise PreconditionError("spline cosheaf is defined over graphs")
    if degree < 0 or smoothness < 0:
        raise InputError("degree and smoothness must be >= 0")
    m, r = degree, smoothness
    stalks: dict[CellId, int] = {}
    for v in x.vertex_ids():
        stalks[v] = r + 1
    for e in x.edge_ids():
        stalks[e] = m + 1

    def jet_matrix(t0: int) -> SparseMatrix:
        entries = {}
        for j in range(r + 1):
            for k in range(m + 1):
                if k < j:
                    continue
                coeff = prod(range(k - j + 1, k + 1))  # falling factorial k!/(k-j)!
                val = Q(coeff) * (Q(t0) ** (k - j) if k > j else 1)
                if val:
                    entries[(j, k)] = val
        return SparseMatrix(r + 1, m + 1, entries)

    at_tail = jet_matrix(0)
    at_head = jet_matrix(1)
    maps: dict[tuple[CellId, CellId], SparseMatrix] = {}
    for e, v, sign in x.edge_vertex_incidences():
        maps[(e, v)] = at_head if sign == +1 else at_tail
    return Cosheaf(x, stalks, maps)


# ---------------------------------------------------------------------------
# Subcomplexes and restriction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Subcomplex:
    """A downward-closed selection of cells of a complex."""

    vertices: frozenset[int]
    edges: frozenset[int]
    faces: frozenset[int] = frozenset()

    def cells(self) -> set[CellId]:
        return (
            {vcell(i) for i in self.vertices}
            | {ecell(i) for i in self.edges}
            | {fcell(i) for i in self.faces}
        )

    @staticmethod
    def of(x: CellComplex, vertices=(), edges=(), faces=()) -> "Subcomplex":
        sub = Subcomplex(frozenset(vertices), frozenset(edges), frozenset(faces))
        for e in sub.edges:
            if not 0 <= e < x.nedges:
                raise InputError(f"subcomplex references missing edge {e}")
            t, h = x.edges[e]
            if t not in sub.vertices or h not in sub.vertices:
                raise PreconditionError(f"subcomplex is not closed: edge {e} endpoints")
        for f in sub.faces:
            if not 0 <= f < x.nfaces:
                raise InputError(f"subcomplex references missing face {f}")
            for e, _ in x.faces[f]:
                if e not in sub.edges:
                    raise PreconditionError(
                        f"subcomplex is not closed: face {f} boundary edge {e}"
                    )
        for v in sub.vertices:
            if not 0 <= v < x.nverts:
                raise InputError(f"subcomplex references missing vertex {v}")
        return sub


def restrict_to_subcomplex(f: Cosheaf, y: Subcomplex):
    """F_Y: stalks of F on the cells of Y, zero stalks elsewhere.

    Returns (F_Y, inclusion map F_Y -> F); the inclusion is the identity
    over Y and the (empty) zero matrix over the complement.
    """
    ycells = y.cells()
    stalks = {c: (f.stalk_dims[c] if c in ycells else 0) for c in f.base.cells()}
    maps = {}
    for hi, lo, _ in incidence_pairs(f.base):
        if hi in ycells:
            maps[(hi, lo)] = f.maps[(hi, lo)]
        else:
            maps[(hi, lo)] = SparseMatrix(stalks[lo], 0)
    fy = Cosheaf(f.base, stalks, maps)
    comps = {
        c: (
            SparseMatrix.identity(f.stalk_dims[c])
            if c in ycells
            else SparseMatrix(f.stalk_dims[c], 0)
        )
        for c in f.base.cells()
    }
    incl = CosheafMap(fy, f, comps)
    return fy, incl


# ---------------------------------------------------------------------------
# Cosheaf maps and quotients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CosheafMap:
    """Stalkwise linear maps between cosheaves on the same base complex."""

    source: Cosheaf
    target: Cosheaf
    components: dict[CellId, SparseMatrix]

    def __post_init__(self):
        if self.source.base is not self.target.base and self.source.base != self.target.base:
            raise InputError("cosheaf map requires a common base complex")
        for c in self.source.base.cells():
            m = self.components.get(c)
            if m is None:
                raise InputError(f"missing component at {c}")
            if m.shape != (self.target.stalk_dims[c], self.source.stalk_dims[c]):
                raise InputError(f"component at {c} has shape {m.shape}")

    def component(self, c: CellId) -> SparseMatrix:
        return self.components[c]


@dataclass(frozen=True)
class SquareViolation:
    higher: CellId
    lower: CellId
    via_lower: SparseMatrix   # phi_lower . F_map
    via_higher: SparseMatrix  # G_map . phi_higher


def check_cosheaf_map(phi: CosheafMap) -> list[SquareViolation]:
    """Every incidence must commute: phi_lo . F = G . phi_hi.

    Returns the violated incidences with both exact composites (empty
    list when the map is valid)."""
    bad = []
    for hi, lo, _ in incidence_pairs(phi.source.base):
        lhs = phi.component(lo) @ phi.source.maps[(hi, lo)]
        rhs = phi.target.maps[(hi, lo)] @ phi.component(hi)
        if lhs != rhs:
            bad.append(SquareViolation(hi, lo, lhs, rhs))
    return bad


def identity_map(f: Cosheaf) -> CosheafMap:
    return CosheafMap(
        f, f, {c: SparseMatrix.identity(f.stalk_dims[c]) for c in f.base.cells()}
    )


def chain_map_matrices(phi: CosheafMap) -> dict[int, SparseMatrix]:
    """Block-diagonal matrices C_k(source) -> C_k(target) per degree."""
    out = {}
    x = phi.source.base
    for k in range(x.dim + 1):
        s_off = phi.source.chain_offsets(k)
        t_off = phi.target.chain_offsets(k)
        entries = {}
        for c in x.cells_of_dim(k):
            m = phi.components[c]
            for (i, j), v in m.entries.items():
                entries[(t_off[c] + i, s_off[c] + j)] = v
        out[k] = SparseMatrix(phi.target.chain_dim(k), phi.source.chain_dim(k), entries)
    return out


@dataclass(frozen=True)
class QuotientPresentation:
    """A quotient cosheaf together with the matrices realizing it.

    projections[c]: G_c -> Q_c and sections[c]: Q_c -> G_c satisfy
    projection . inclusion = 0 and projection . section = identity."""

    inclusion: CosheafMap
    quotient: Cosheaf
    projections: dict[CellId, SparseMatrix]
    sections: dict[CellId, SparseMatrix]

    def projection_map(self) -> CosheafMap:
        return CosheafMap(self.inclusion.target, self.quotient, self.projections)


def quotient_by_subcomplex(f: Cosheaf, y: Subcomplex) -> QuotientPresentation:
    """F / F_Y for the restriction inclusion F_Y -> F: extension by zero.

    The inclusion is the identity over Y and zero elsewhere, so the
    quotient keeps F's stalks and maps off Y and has zero stalks on Y; a
    map into Y (every map with an end on Y, as Y is closed) becomes the
    empty matrix of its shape.  The projections and sections are
    identities off Y and empty on Y, so the splitting, the induced maps
    and the commuting squares hold by construction and no elimination
    is needed."""
    _, incl = restrict_to_subcomplex(f, y)
    ycells = y.cells()
    qdims = {c: (0 if c in ycells else d) for c, d in f.stalk_dims.items()}
    qmaps = {
        (hi, lo): SparseMatrix(0, qdims[hi]) if lo in ycells else m
        for (hi, lo), m in f.maps.items()
    }
    projections = {}
    sections = {}
    for c, d in f.stalk_dims.items():
        if c in ycells:
            projections[c], sections[c] = SparseMatrix(0, d), SparseMatrix(d, 0)
        else:
            projections[c] = sections[c] = SparseMatrix.identity(d)
    return QuotientPresentation(incl, Cosheaf(f.base, qdims, qmaps), projections, sections)
