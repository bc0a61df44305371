"""Exact sparse linear algebra over the rationals.

Every rank, kernel and solve in this package runs through here, so the
guarantees are strict: scalars are ``fractions.Fraction`` (arbitrary
precision, always in lowest terms), there is no floating point and no
tolerance anywhere.  One forward sparse elimination serves every
function: it touches only the rows holding each pivot column.  A rank
is its pivot count, and a particular solution is read from the reduced
row-echelon form of the system.  The column space of a matrix is one
``Echelon``, the reduced row-echelon form of its transpose: its rank,
basis, cokernel representatives and the residue of any vector modulo
it are all read from that one elimination.  A kernel basis is the
reduced row-echelon form of the null space, read from one elimination
with the columns in reverse order.  Every returned vector is canonical:
it does not depend on the order in which the elimination visits the
rows.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import InternalCheckError

Q = Fraction

QZERO = Q(0)
QONE = Q(1)


class SparseMatrix:
    """Immutable sparse matrix with Fraction entries.

    Entries are stored as a dict ``(row, col) -> Fraction`` holding no
    explicit zeros.  ``row_labels`` / ``col_labels`` are opaque tags
    (cell-and-stalk coordinates elsewhere in the package); they ride
    along through transposition but play no role in arithmetic.
    """

    __slots__ = ("rows", "cols", "entries", "row_labels", "col_labels")

    def __init__(self, rows, cols, entries=None, row_labels=None, col_labels=None):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        self.rows = rows
        self.cols = cols
        data = {}
        if entries:
            for (i, j), v in (
                entries.items() if isinstance(entries, dict) else entries
            ):
                if not (0 <= i < rows and 0 <= j < cols):
                    raise ValueError(f"entry ({i}, {j}) out of bounds for {rows}x{cols}")
                v = Q(v)
                if v:
                    if (i, j) in data:
                        raise ValueError(f"duplicate entry at ({i}, {j})")
                    data[(i, j)] = v
        self.entries = data
        self.row_labels = tuple(row_labels) if row_labels is not None else None
        self.col_labels = tuple(col_labels) if col_labels is not None else None

    @classmethod
    def from_rows(cls, dense, row_labels=None, col_labels=None):
        """Build from a dense list of row lists."""
        rows = len(dense)
        cols = len(dense[0]) if rows else 0
        entries = {}
        for i, row in enumerate(dense):
            if len(row) != cols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                v = Q(v)
                if v:
                    entries[(i, j)] = v
        return cls(rows, cols, entries, row_labels, col_labels)

    @classmethod
    def identity(cls, n):
        return cls(n, n, {(i, i): QONE for i in range(n)})

    @classmethod
    def from_columns(cls, columns, rows):
        """Stack vectors (length ``rows``) as the columns of a matrix."""
        entries = {}
        for j, col in enumerate(columns):
            if len(col) != rows:
                raise ValueError("column length mismatch")
            for i, v in enumerate(col):
                if v:
                    entries[(i, j)] = Q(v)
        return cls(rows, len(columns), entries)

    def get(self, i, j):
        return self.entries.get((i, j), QZERO)

    @property
    def nnz(self):
        return len(self.entries)

    @property
    def shape(self):
        return (self.rows, self.cols)

    def transpose(self):
        return SparseMatrix(
            self.cols,
            self.rows,
            {(j, i): v for (i, j), v in self.entries.items()},
            row_labels=self.col_labels,
            col_labels=self.row_labels,
        )

    def __matmul__(self, other):
        if isinstance(other, SparseMatrix):
            if self.cols != other.rows:
                raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
            by_row = {}
            for (k, j), v in other.entries.items():
                by_row.setdefault(k, []).append((j, v))
            acc = {}
            for (i, k), a in self.entries.items():
                for j, b in by_row.get(k, ()):
                    key = (i, j)
                    acc[key] = acc.get(key, QZERO) + a * b
            acc = {k: v for k, v in acc.items() if v}
            return SparseMatrix(
                self.rows, other.cols, acc,
                row_labels=self.row_labels, col_labels=other.col_labels,
            )
        return NotImplemented

    def apply(self, vec: Sequence[Fraction]) -> list[Fraction]:
        """Matrix-vector product, exact."""
        if len(vec) != self.cols:
            raise ValueError(f"vector length {len(vec)} != cols {self.cols}")
        out = [QZERO] * self.rows
        for (i, j), v in self.entries.items():
            if vec[j]:
                out[i] += v * vec[j]
        return out

    def is_zero(self):
        return not self.entries

    def __eq__(self, other):
        return (
            isinstance(other, SparseMatrix)
            and self.shape == other.shape
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, frozenset(self.entries.items())))

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


# ---------------------------------------------------------------------------
# Elimination
# ---------------------------------------------------------------------------


def _eliminate(m: SparseMatrix, rhs: Optional[list[Fraction]] = None, basis: bool = False):
    """Forward sparse elimination of ``m``, optionally back-substituted.

    The pivot row is the shortest active row (a heap keyed ``(len(row),
    row index)``; stale entries are skipped).  Only the rows holding the
    pivot column are updated, and ``rhs`` rides through the same row
    operations, so entries of dependent rows keep their residual.

    Returns ``(rows, pivots, rvec)`` where ``pivots`` maps each pivot
    column to its row, in elimination order.  With ``basis`` false the
    pivot column is the one held by the fewest active rows (ties on the
    lower index, after Markowitz 1957) and only ``len(pivots)`` is
    meaningful.  With ``basis`` true the pivot column is the row's
    leftmost nonzero, so the pivot columns are the echelon pivots of the
    row space whatever order the rows are taken in; a back-substitution
    in reverse pivot order then leaves each pivot row with 1 at its
    pivot and 0 at every other pivot column: the reduced row-echelon
    form with respect to the natural column order.
    """
    rows = [dict() for _ in range(m.rows)]
    colindex: dict[int, set[int]] = {}  # column -> active rows holding it
    for (i, j), v in m.entries.items():
        rows[i][j] = v
        colindex.setdefault(j, set()).add(i)
    rvec = list(rhs) if rhs is not None else None
    heap = [(len(row), i) for i, row in enumerate(rows) if row]
    heapq.heapify(heap)
    pivots: dict[int, int] = {}
    done = set()
    # column -> earlier pivot rows holding it; back-substitution adds only
    # free columns to pivot rows, so the entries for pivot columns stay exact
    held: dict[int, list[int]] = {}
    while heap:
        n, pi = heapq.heappop(heap)
        prow = rows[pi]
        if pi in done or n != len(prow):
            continue  # stale entry: the row was pivoted or has changed length
        done.add(pi)
        for j in prow:
            colindex[j].discard(pi)
        pj = min(prow) if basis else min(prow, key=lambda j: (len(colindex[j]), j))
        scale = prow.pop(pj)
        rows[pi] = prow = {j: v / scale for j, v in prow.items()}
        if rvec is not None:
            rvec[pi] /= scale
        for i in colindex.pop(pj):
            row = rows[i]
            f = row.pop(pj)
            for j, pv in prow.items():
                nv = row.get(j, QZERO) - f * pv
                if nv:
                    if j not in row:
                        colindex[j].add(i)
                    row[j] = nv
                else:
                    del row[j]
                    colindex[j].discard(i)
            if rvec is not None:
                rvec[i] -= f * rvec[pi]
            if row:
                heapq.heappush(heap, (len(row), i))
        pivots[pj] = pi
        if basis:
            for j in prow:
                held.setdefault(j, []).append(pi)
    if basis:
        for pj, pi in reversed(pivots.items()):
            prow = rows[pi]
            for i in held.pop(pj, ()):
                row = rows[i]
                f = row.pop(pj)
                for j, pv in prow.items():
                    nv = row.get(j, QZERO) - f * pv
                    if nv:
                        row[j] = nv
                    else:
                        del row[j]
                if rvec is not None:
                    rvec[i] -= f * rvec[pi]
            prow[pj] = QONE
    return rows, pivots, rvec


def rank(m: SparseMatrix) -> int:
    """Exact rank over the rationals: the pivot count of a forward-only
    elimination (no back-substitution, since no basis is needed)."""
    return len(_eliminate(m)[1])


def kernel_basis(m: SparseMatrix) -> list[list[Fraction]]:
    """Reduced row-echelon basis of the null space, in pivot order.

    One elimination of ``m`` with its columns reversed.  A column j is
    free there exactly when it lies in the span of the columns to its
    right, that is when some kernel vector has its leading nonzero at
    j: the free columns are the pivots of the kernel's own echelon
    form.  The vector of free column j has 1 at j and the negated
    reduced-echelon entries at the pivot columns, all of which lie to
    the right of j, so it leads with 1 and vanishes at the other kernel
    pivots.  Exactly cols - rank vectors, each satisfying m @ v == 0
    identically.
    """
    last = m.cols - 1
    rev = SparseMatrix(m.rows, m.cols, {(i, last - j): v for (i, j), v in m.entries.items()})
    rows, pivots, _ = _eliminate(rev, basis=True)
    free = {last - j: [QZERO] * m.cols for j in range(last, -1, -1) if j not in pivots}
    for j, vec in free.items():
        vec[j] = QONE
    for pj, pi in pivots.items():
        for j, v in rows[pi].items():
            if j != pj:
                free[last - j][last - pj] = -v
    return list(free.values())


@dataclass(frozen=True)
class Echelon:
    """The column space of a matrix in reduced row-echelon form.

    ``rows`` maps each pivot coordinate, in increasing order, to its
    basis vector as a sparse dict ``coordinate -> Fraction``, with 1 at
    its own pivot and 0 at every other pivot; ``length`` is the
    dimension of the target.  Rank, basis, cokernel representatives and
    residues are all read from these rows.  Built by ``echelon``.
    """

    length: int
    rows: dict[int, dict[int, Fraction]]

    @property
    def rank(self) -> int:
        return len(self.rows)

    def basis(self) -> list[list[Fraction]]:
        """The basis vectors, dense, in pivot order."""
        out = []
        for row in self.rows.values():
            vec = [QZERO] * self.length
            for j, v in row.items():
                vec[j] = v
            out.append(vec)
        return out

    def cokernel(self) -> list[list[Fraction]]:
        """Representatives of target / span: the unit vectors at the
        coordinates that are not pivots, independent of the span and of
        each other, exactly length - rank of them."""
        reps = []
        for i in range(self.length):
            if i not in self.rows:
                vec = [QZERO] * self.length
                vec[i] = QONE
                reps.append(vec)
        return reps

    def reduce(self, vec: Sequence[Fraction]) -> list[Fraction]:
        """Canonical residue of ``vec`` modulo the span: each basis
        vector is subtracted off at its pivot coordinate, leaving zeros
        at all of them."""
        out = list(vec)
        for pj, row in self.rows.items():
            f = out[pj]
            if f:
                for j, v in row.items():
                    out[j] -= f * v
        return out


def echelon(m: SparseMatrix) -> Echelon:
    """Reduced row-echelon basis of the column space of ``m``: the row
    space of its transpose, from one elimination, or none for a zero
    matrix."""
    if m.is_zero():
        return Echelon(m.rows, {})
    rows, pivots, _ = _eliminate(m.transpose(), basis=True)
    return Echelon(m.rows, {pj: rows[pivots[pj]] for pj in sorted(pivots)})


def cokernel_reps(m: SparseMatrix) -> list[list[Fraction]]:
    """Representatives of target / image; see ``Echelon.cokernel``."""
    return echelon(m).cokernel()


def solve_particular(
    m: SparseMatrix, b: Sequence[Fraction]
) -> Optional[list[Fraction]]:
    """One exact solution of m @ x = b, or None when b is not in the image.

    Free coordinates of the reduced row-echelon form are set to zero, so
    the answer is deterministic.  The answer is checked exactly against
    ``b``; a mismatch raises InternalCheckError.
    """
    if len(b) != m.rows:
        raise ValueError(f"rhs length {len(b)} != rows {m.rows}")
    rhs = [Q(v) for v in b]
    _, pivots, rvec = _eliminate(m, rhs, basis=True)
    pivot_rows = set(pivots.values())
    if any(v for i, v in enumerate(rvec) if i not in pivot_rows):
        return None
    x = [QZERO] * m.cols
    for pj, pi in pivots.items():
        x[pj] = rvec[pi]
    if m.apply(x) != rhs:
        raise InternalCheckError("particular solution does not reproduce the rhs")
    return x


def rank_modulo(vectors: list[list[Fraction]], span: Echelon) -> int:
    """Dimension of span(vectors) inside the quotient by ``span``.

    The residues modulo ``span`` vanish at all of its pivots, where every
    nonzero vector of the span does not, so the residues' span meets it
    only in zero: only the residues are eliminated."""
    residues = [r for vec in vectors if any(r := span.reduce(vec))]
    return rank(SparseMatrix.from_columns(residues, span.length)) if residues else 0
