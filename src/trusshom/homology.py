"""Homology of chain complexes over the rationals.

A ChainComplex here is the assembled form of a cosheaf (or of a bare cell
complex via the unit constant cosheaf): exact sparse boundary matrices
indexed by (cell, stalk coordinate) labels.  Homology is kernels mod
images, computed the standard way (Edelsbrunner-Harer, *Computational
Topology*, ch. IV): a boundary's kernel basis and the ``Echelon`` of
its image are each computed once and kept, and a degree's
representatives are the kernel rows reduced modulo that echelon.  Every
rank, image basis, cokernel and residue of a boundary is read from the
kept eliminations.  Every dimension is exact and every basis is in
reduced row-echelon form, so printed bases are stable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InputError, InternalCheckError
from .sparse import Echelon, SparseMatrix, echelon, kernel_basis, rank, rank_modulo


@dataclass(frozen=True)
class ChainComplex:
    """dims[k] = dim C_k; boundaries[k]: C_k -> C_{k-1} for k >= 1;
    labels[k] tags each coordinate of C_k with its (cell, stalk index).

    The kernel basis of each boundary and the ``Echelon`` of its image
    are each computed once, on first use, and kept; the rank, image
    basis, cokernel representatives and residues of a boundary are read
    from them.  ``rank`` reads the pivot count of whichever is kept and
    otherwise runs the forward-only ``rank``.  Each degree's homology
    representatives are kept too; the returned lists are the kept ones,
    and callers must not modify them."""

    dims: dict[int, int]
    boundaries: dict[int, SparseMatrix]
    labels: dict[int, tuple] = field(default_factory=dict)
    _factors: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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

    def _is_zero(self, k: int) -> bool:
        return k not in self.boundaries or self.boundaries[k].is_zero()

    def _kept(self, kind: str, k: int, compute):
        key = (kind, k)
        if key not in self._factors:
            self._factors[key] = compute(self.boundary(k))
        return self._factors[key]

    def rank(self, k: int) -> int:
        """rank d_k: the pivot count of whichever elimination of d_k is
        kept, or else of a forward-only elimination."""
        if self._is_zero(k):
            return 0
        kept = self._factors
        if ("kernel", k) in kept:
            return self.dims[k] - len(kept[("kernel", k)])
        if ("echelon", k) in kept:
            return kept[("echelon", k)].rank
        return self._kept("rank", k, rank)

    def kernel(self, k: int) -> list[list[Fraction]]:
        """Reduced row-echelon basis of ker d_k."""
        return self._kept("kernel", k, kernel_basis)

    def echelon(self, k: int) -> Echelon:
        """im d_k in reduced row-echelon form, in C_{k-1}; no elimination
        where d_k = 0."""
        return self._kept("echelon", k, echelon)

    def image(self, k: int) -> list[list[Fraction]]:
        """Reduced row-echelon basis of im d_k, as vectors of C_{k-1}."""
        return self.echelon(k).basis()

    def representatives(self, k: int) -> list[list[Fraction]]:
        """Reduced row-echelon basis of a complement of im d_{k+1} in
        ker d_k: one representative per homology class of a basis.

        Where d_k = 0 the kernel is all of C_k, and the representatives
        are the unit vectors at the coordinates that are not pivots of
        the image of d_{k+1}.  Where d_{k+1} = 0 they are the kernel
        basis itself.  Otherwise each kernel row is reduced modulo the
        image, which clears it at every image pivot, and the residues
        are echelonised once."""
        key = ("representatives", k)
        if key not in self._factors:
            n = self.dims.get(k, 0)
            if self._is_zero(k):
                reps = self.echelon(k + 1).cokernel()
            elif self._is_zero(k + 1):
                reps = self.kernel(k)
            else:
                image = self.echelon(k + 1)
                residues = [r for vec in self.kernel(k) if any(r := image.reduce(vec))]
                reps = echelon(SparseMatrix.from_columns(residues, n)).basis()
            betti = n - self.rank(k) - self.rank(k + 1)
            if len(reps) != betti:
                raise InternalCheckError(
                    f"degree {k}: {len(reps)} representatives for Betti number {betti}"
                )
            self._factors[key] = reps
        return self._factors[key]


@dataclass(frozen=True)
class DegreeHomology:
    betti: int
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
    return tuple(
        c.dims.get(k, 0) - c.rank(k) - c.rank(k + 1) for k in range(c.top_degree + 1)
    )


def homology(c: ChainComplex) -> HomologySummary:
    """Full homology: Betti numbers plus canonical bases in each degree,
    read from the complex's kept eliminations."""
    degrees = {}
    for k in range(c.top_degree + 1):
        reps = c.representatives(k)
        degrees[k] = DegreeHomology(len(reps), c.image(k + 1), reps)
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
    from .cosheaves import chain_map_matrices  # import cycle

    inclusion = presentation.inclusion
    cc_sub = inclusion.source.chain_complex
    cc_total = inclusion.target.chain_complex
    cc_quot = presentation.quotient.chain_complex

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

    incl_chain = chain_map_matrices(inclusion)

    def induced_rank(source_cc, source_dims, chain_mat, target_cc):
        # without degree-1 classes there is nothing to map, and no kernel
        # to eliminate beyond the rank the Betti numbers already read
        if top < 1 or not source_dims[1]:
            return 0
        mapped = [chain_mat.apply(v) for v in source_cc.representatives(1)]
        return rank_modulo(mapped, target_cc.echelon(2))

    r_incl = induced_rank(
        cc_sub,
        d_sub,
        incl_chain.get(1, SparseMatrix(cc_total.dims.get(1, 0), cc_sub.dims.get(1, 0))),
        cc_total,
    )
    r_proj = induced_rank(
        cc_total,
        d_total,
        proj_chain.get(1, SparseMatrix(cc_quot.dims.get(1, 0), cc_total.dims.get(1, 0))),
        cc_quot,
    )

    return SequenceReport(d_sub, d_total, d_quot, alt, r_incl, r_proj)
