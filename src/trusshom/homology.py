"""Homology of chain complexes over the rationals.

A ChainComplex here is the assembled form of a cosheaf (or of a bare cell
complex via the unit constant cosheaf): exact sparse boundary matrices
indexed by (cell, stalk coordinate) labels.  Homology is kernels mod
images; every dimension is exact and every representative is canonical,
so printed bases are stable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InputError, InternalCheckError
from .sparse import (
    SparseMatrix,
    image_basis,
    kernel_basis,
    rank,
    rank_modulo,
    row_space_reducer,
)

Q = Fraction


@dataclass(frozen=True)
class ChainComplex:
    """dims[k] = dim C_k; boundaries[k]: C_k -> C_{k-1} for k >= 1;
    labels[k] tags each coordinate of C_k with its (cell, stalk index)."""

    dims: dict[int, int]
    boundaries: dict[int, SparseMatrix]
    labels: dict[int, tuple] = field(default_factory=dict)

    def __post_init__(self):
        for k, m in self.boundaries.items():
            if k - 1 not in self.dims and m.rows != 0:
                raise InputError(f"boundary {k} maps into a missing degree")
            if m.cols != self.dims.get(k, 0) or m.rows != self.dims.get(k - 1, 0):
                raise InputError(f"boundary {k} has shape {m.shape}, inconsistent dims")
        for k in self.boundaries:
            if k + 1 in self.boundaries:
                comp = self.boundaries[k] @ self.boundaries[k + 1]
                if not comp.is_zero():
                    raise InternalCheckError(
                        f"composed boundary matrices d_{k} d_{k+1} are nonzero"
                    )

    @property
    def top_degree(self) -> int:
        return max(self.dims) if self.dims else 0

    def boundary(self, k: int) -> SparseMatrix:
        """d_k, including the zero maps outside the stored range."""
        if k in self.boundaries:
            return self.boundaries[k]
        return SparseMatrix(self.dims.get(k - 1, 0), self.dims.get(k, 0))


@dataclass(frozen=True)
class DegreeHomology:
    betti: int
    kernel: list[list[Fraction]]
    image: list[list[Fraction]]
    representatives: list[list[Fraction]]


@dataclass(frozen=True)
class HomologySummary:
    degrees: dict[int, DegreeHomology]

    def betti(self, k: int) -> int:
        return self.degrees[k].betti if k in self.degrees else 0

    @property
    def betti_numbers(self) -> tuple[int, ...]:
        top = max(self.degrees)
        return tuple(self.betti(k) for k in range(top + 1))


def betti_numbers(c: ChainComplex) -> tuple[int, ...]:
    """Betti numbers only, from the ranks of the boundary maps."""
    ranks = {k: rank(c.boundary(k)) for k in range(c.top_degree + 2)}
    return tuple(
        c.dims.get(k, 0) - ranks[k] - ranks[k + 1] for k in range(c.top_degree + 1)
    )


def homology(c: ChainComplex) -> HomologySummary:
    """Full homology: Betti numbers plus canonical bases in each degree.

    Representatives are kernel vectors reduced against the echelonized
    image of the next boundary, then re-echelonized; they lie exactly in
    the kernel and are independent modulo the image.
    """
    degrees = {}
    for k in range(c.top_degree + 1):
        dk = c.boundary(k)
        dk1 = c.boundary(k + 1)
        kern = kernel_basis(dk)
        img = image_basis(dk1)
        b = len(kern) - len(img)
        reduce = row_space_reducer(img, c.dims.get(k, 0))
        residues = [r for v in kern if any(r := reduce(v))]
        reps = (
            image_basis(SparseMatrix.from_columns(residues, c.dims.get(k, 0)))
            if residues
            else []
        )
        if len(reps) != b:
            raise InternalCheckError(
                f"degree {k}: {len(reps)} representatives for Betti number {b}"
            )
        degrees[k] = DegreeHomology(b, kern, img, reps)
    return HomologySummary(degrees)


def euler_characteristic(c: ChainComplex) -> int:
    return sum((-1) ** k * d for k, d in c.dims.items())


@dataclass(frozen=True)
class EulerCheck:
    chain_euler: int
    homology_euler: int

    @property
    def ok(self) -> bool:
        return self.chain_euler == self.homology_euler


def check_euler_identity(c: ChainComplex) -> EulerCheck:
    """The alternating sum of chain dimensions must equal the alternating
    sum of Betti numbers; a mismatch is an internal failure."""
    chain = euler_characteristic(c)
    hom = sum((-1) ** k * b for k, b in enumerate(betti_numbers(c)))
    check = EulerCheck(chain, hom)
    if not check.ok:
        raise InternalCheckError(
            f"Euler characteristic mismatch: chains {chain}, homology {hom}"
        )
    return check


@dataclass(frozen=True)
class SequenceReport:
    """Dimension bookkeeping for the long exact homology sequence of a
    sub-cosheaf / quotient-cosheaf triple A >-> B ->> Q."""

    dims_sub: tuple[int, ...]
    dims_total: tuple[int, ...]
    dims_quotient: tuple[int, ...]
    alternating_sum: int
    rank_h1_inclusion: int    # induced H1(A) -> H1(B)
    rank_h1_projection: int   # induced H1(B) -> H1(Q)

    @property
    def exactness_consistent(self) -> bool:
        return self.alternating_sum == 0

    @property
    def h1_projection_injective(self) -> bool:
        return self.rank_h1_projection == self.dims_total[1]


def les_dimension_check(presentation) -> "SequenceReport":
    """Homology dimensions of A >-> B ->> B/A and the induced maps on H1.

    The projection's chain maps must commute with the boundaries, and the
    alternating sum of dimensions along the long exact sequence must
    vanish; either failure is internal.  Induced maps are computed by
    pushing representatives through the stalkwise chain maps and
    measuring rank modulo the target's boundaries.
    """
    from .cosheaves import boundary_matrices, chain_map_matrices  # import cycle

    inclusion = presentation.inclusion
    cc_sub = boundary_matrices(inclusion.source)
    cc_total = boundary_matrices(inclusion.target)
    cc_quot = boundary_matrices(presentation.quotient)

    proj_chain = chain_map_matrices(presentation.projection_map())
    for k, d in cc_total.boundaries.items():
        if proj_chain[k - 1] @ d != cc_quot.boundary(k) @ proj_chain[k]:
            raise InternalCheckError(
                f"quotient projection does not commute with the degree-{k} boundary"
            )

    top = max(cc_sub.top_degree, cc_total.top_degree, cc_quot.top_degree)

    def dims_of(cc):
        bn = betti_numbers(cc)
        return tuple(bn[k] if k < len(bn) else 0 for k in range(top + 1))

    d_sub, d_total, d_quot = dims_of(cc_sub), dims_of(cc_total), dims_of(cc_quot)

    alt = 0
    sign = 1
    for k in range(top, -1, -1):
        for val in (d_sub[k], d_total[k], d_quot[k]):
            alt += sign * val
            sign = -sign

    if alt != 0:
        raise InternalCheckError(
            f"long exact sequence dimension sum is {alt}, expected 0"
        )

    h_sub = homology(cc_sub)
    h_total = homology(cc_total)

    incl_chain = chain_map_matrices(inclusion)

    def induced_rank(reps, chain_mat, target_cc):
        if not reps:
            return 0
        mapped = [chain_mat.apply(v) for v in reps]
        img2 = image_basis(target_cc.boundary(2))
        return rank_modulo(mapped, img2, target_cc.dims.get(1, 0))

    r_incl = induced_rank(
        h_sub.degrees[1].representatives if 1 in h_sub.degrees else [],
        incl_chain.get(1, SparseMatrix(cc_total.dims.get(1, 0), cc_sub.dims.get(1, 0))),
        cc_total,
    )
    r_proj = induced_rank(
        h_total.degrees[1].representatives if 1 in h_total.degrees else [],
        proj_chain.get(1, SparseMatrix(cc_quot.dims.get(1, 0), cc_total.dims.get(1, 0))),
        cc_quot,
    )

    return SequenceReport(d_sub, d_total, d_quot, alt, r_incl, r_proj)
