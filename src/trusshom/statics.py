"""Truss-level statics on top of the cosheaf machinery.

A truss is a cell complex realized in R^n.  Its force cosheaf assembles
into the classical equilibrium matrix; homology in degree 1 is the space
of self-stresses (member stresses with zero net force at every joint)
and degree 0 the space of unconstrained degrees of freedom.  Boundary
loads enter exclusively through an exterior loop subcomplex and the
quotient (relative) force cosheaf supported on the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .complexes import CellComplex, Embedding, validate_embedding
from .cosheaves import (
    Cosheaf,
    QuotientPresentation,
    Subcomplex,
    force_cosheaf,
    quotient_by_subcomplex,
)
from .errors import InternalCheckError, PreconditionError
from .homology import ChainComplex, betti_numbers
from .sparse import SparseMatrix, rank

Q = Fraction


@dataclass(frozen=True)
class Truss:
    complex: CellComplex
    embedding: Embedding

    def __post_init__(self):
        validate_embedding(self.complex, self.embedding)

    @property
    def dim(self) -> int:
        return self.embedding.dim

    @cached_property
    def cosheaf(self) -> Cosheaf:
        """The force cosheaf, built on first use and kept, so that every
        analysis of this truss shares one chain complex and its
        eliminations."""
        return force_cosheaf(self.complex, self.embedding)


def force_chain_complex(t: Truss) -> ChainComplex:
    return t.cosheaf.chain_complex


@dataclass(frozen=True)
class StaticsReport:
    betti0: int
    betti1: int
    self_stress_basis: list[list[Fraction]]   # one entry per edge
    dof_reps: list[list[Fraction]]            # flat vertex-velocity chains

    @property
    def betti(self) -> tuple[int, int]:
        return (self.betti0, self.betti1)


def analyze(t: Truss) -> StaticsReport:
    """Self-stresses and degrees of freedom of a truss, exactly.

    Self-stress vectors are edge-indexed kernel elements of the
    equilibrium matrix; degree-of-freedom representatives are canonical
    vertex-velocity chains spanning the cokernel."""
    cc = force_chain_complex(t)
    stresses = cc.representatives(1)
    dofs = cc.representatives(0)
    return StaticsReport(
        betti0=len(dofs),
        betti1=len(stresses),
        self_stress_basis=stresses,
        dof_reps=dofs,
    )


def rigid_motion_basis(t: Truss) -> list[list[Fraction]]:
    """Translations plus infinitesimal rotations as vertex-velocity chains.

    n translations and n(n-1)/2 rotations (u_v = A p_v for skew A); the
    full n(n+1)/2 dimensions are independent exactly when the vertex
    positions affinely span R^n."""
    n = t.dim
    nv = t.complex.nverts
    basis = []
    for i in range(n):
        vec = [Q(0)] * (n * nv)
        for v in range(nv):
            vec[v * n + i] = Q(1)
        basis.append(vec)
    for a in range(n):
        for b in range(a + 1, n):
            vec = [Q(0)] * (n * nv)
            for v in range(nv):
                p = t.embedding.p(v)
                vec[v * n + a] = -p[b]
                vec[v * n + b] = p[a]
            basis.append(vec)
    return basis


def affine_span_dim(t: Truss) -> int:
    if t.complex.nverts == 0:
        return 0
    p0 = t.embedding.p(0)
    rows = [
        [c - c0 for c, c0 in zip(t.embedding.p(v), p0)]
        for v in range(1, t.complex.nverts)
    ]
    if not rows:
        return 0
    return rank(SparseMatrix.from_rows(rows))


@dataclass(frozen=True)
class MaxwellReport:
    n: int
    nverts: int
    nedges: int
    rigid_dim: int
    self_stresses: int
    mechanisms: Optional[int]
    betti0: int
    betti1: int
    degenerate_span: bool

    @property
    def residual(self) -> Optional[int]:
        if self.mechanisms is None:
            return None
        return (
            self.n * self.nverts
            - self.nedges
            - self.rigid_dim
            - self.mechanisms
            + self.self_stresses
        )

    @property
    def identity_line(self) -> str:
        lhs = self.n * self.nverts - self.nedges
        if self.mechanisms is None:
            return f"{self.n}*{self.nverts} - {self.nedges} = {lhs} (degenerate span)"
        return (
            f"{self.n}*{self.nverts} - {self.nedges} = {lhs} = "
            f"{self.rigid_dim} + {self.mechanisms} - {self.self_stresses}"
        )


def maxwell_report(t: Truss) -> MaxwellReport:
    """Counting identity n|V| - |E| = n(n+1)/2 + |M| - |S|.

    |S| is the exact self-stress count; |M| is derived from the
    degree-0 dimension after subtracting the rigid-body space, which is
    only n(n+1)/2-dimensional when the truss spans R^n affinely.  A
    degenerate span sets a flag instead of reporting a wrong |M|, but the
    underlying identity n|V| - |E| = dim H0 - dim H1 is checked always
    (it is rank-nullity and cannot depend on geometry)."""
    n = t.dim
    cc = force_chain_complex(t)
    b = betti_numbers(cc)
    b0, b1 = b[0], b[1] if len(b) > 1 else 0
    if n * t.complex.nverts - t.complex.nedges != b0 - b1:
        raise InternalCheckError("Maxwell identity violated; rank computation broken")
    rigid_dim = n * (n + 1) // 2
    degenerate = affine_span_dim(t) < n
    mech = None if degenerate else b0 - rigid_dim
    if mech is not None:
        # virtual work: every rigid motion is orthogonal to im d1, so over
        # the rationals the motions meet im d1 only in zero and embed in
        # the cokernel with their own rank
        rigid = SparseMatrix.from_columns(rigid_motion_basis(t), cc.dims[0])
        if not (cc.boundary(1).transpose() @ rigid).is_zero():
            raise InternalCheckError("rigid-body motions do work on the members")
        if rank(rigid) != rigid_dim:
            raise InternalCheckError(
                "rigid-body motions do not embed with full rank despite full span"
            )
    return MaxwellReport(
        n=n,
        nverts=t.complex.nverts,
        nedges=t.complex.nedges,
        rigid_dim=rigid_dim,
        self_stresses=b1,
        mechanisms=mech,
        betti0=b0,
        betti1=b1,
        degenerate_span=degenerate,
    )


# ---------------------------------------------------------------------------
# Boundary conditions: exterior loop and relative force cosheaf
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryDecomposition:
    truss: Truss
    loop: Subcomplex
    connector_edges: tuple[int, ...]
    presentation: QuotientPresentation

    @property
    def relative_cosheaf(self) -> Cosheaf:
        return self.presentation.quotient


def _check_single_cycle(x: CellComplex, y: Subcomplex) -> None:
    if not y.vertices or not y.edges:
        raise PreconditionError("boundary loop is empty")
    if len(y.vertices) != len(y.edges):
        raise PreconditionError("boundary loop must have as many edges as vertices")
    degree = {v: 0 for v in y.vertices}
    for e in y.edges:
        t, h = x.edges[e]
        degree[t] += 1
        degree[h] += 1
    if any(d != 2 for d in degree.values()):
        raise PreconditionError("boundary loop vertices must have degree exactly 2")
    # connectivity of the loop
    adj = {v: [] for v in y.vertices}
    for e in y.edges:
        t, h = x.edges[e]
        adj[t].append(h)
        adj[h].append(t)
    start = min(y.vertices)
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if seen != set(y.vertices):
        raise PreconditionError("boundary loop is not a single cycle")


def decompose_boundary(
    t: Truss, loop_vertices, loop_edges
) -> BoundaryDecomposition:
    """Split a truss along an exterior loop Y.

    Y must be a closed single cycle carrying no self-stress of its own
    (or empty, giving the trivial decomposition); the quotient force
    cosheaf F_X / F_Y is supported strictly on X - Y.  Edges with exactly
    one endpoint on the loop are the connector (loaded/reaction) edges:
    they keep their stress stalk while the quotient kills their
    loop-endpoint force row."""
    x = t.complex
    empty = not loop_vertices and not loop_edges
    faces = ()
    if x.faces and not empty:
        if x.exterior_face is None:
            raise PreconditionError("2-complex boundary split needs an exterior face")
        ext_edges = {e for e, _ in x.faces[x.exterior_face]}
        if ext_edges != set(loop_edges):
            raise PreconditionError(
                "boundary loop must bound the exterior face exactly"
            )
        faces = (x.exterior_face,)
    y = Subcomplex.of(x, loop_vertices, loop_edges, faces)
    if not empty:
        _check_single_cycle(x, y)

    qp = quotient_by_subcomplex(t.cosheaf, y)
    b_loop = betti_numbers(qp.inclusion.source.chain_complex)
    if len(b_loop) > 1 and b_loop[1] != 0:
        raise PreconditionError(
            "boundary loop carries a self-stress; choose a loop in general position"
        )
    connectors = tuple(
        sorted(
            e
            for e, (tt, hh) in enumerate(x.edges)
            if e not in y.edges and (tt in y.vertices) != (hh in y.vertices)
        )
    )
    return BoundaryDecomposition(t, y, connectors, qp)


def equilibrium_stresses(d: BoundaryDecomposition) -> list[list[Fraction]]:
    """Basis of the equilibrium-stress space of the decomposed truss.

    Vectors are reported over all edges (zero on the loop's own edges);
    the connector coordinates are the loads/reactions along those lines
    of action, the rest a balanced internal state."""
    cc = d.relative_cosheaf.chain_complex
    labels = cc.labels[1]
    out = []
    for v in cc.representatives(1):
        full = [Q(0)] * d.truss.complex.nedges
        for coord, (cell, _) in zip(v, labels):
            full[cell.index] = coord
        out.append(full)
    return out
