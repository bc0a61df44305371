"""Exact sparse linear algebra over the rationals.

Every rank, kernel and solve in this package runs through here, so the
guarantees are strict: scalars are ``fractions.Fraction`` (arbitrary
precision, always in lowest terms), there is no floating point and no
tolerance anywhere.  Ranks use a forward-only sparse elimination that
touches only the rows holding each pivot column; kernel bases, cokernel
representatives and particular solutions use a full rational reduction
so the returned vectors are exact.  Pivots are chosen by Markowitz-style
counts on the sparse structure with deterministic tie-breaking, which
keeps both fill-in and output reproducible.
"""

from __future__ import annotations

import heapq
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
    def zeros(cls, rows, cols):
        return cls(rows, cols)

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

    def apply_transpose(self, vec: Sequence[Fraction]) -> list[Fraction]:
        if len(vec) != self.rows:
            raise ValueError(f"vector length {len(vec)} != rows {self.rows}")
        out = [QZERO] * self.cols
        for (i, j), v in self.entries.items():
            if vec[i]:
                out[j] += v * vec[i]
        return out

    def is_zero(self):
        return not self.entries

    def to_rows(self):
        dense = [[QZERO] * self.cols for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            dense[i][j] = v
        return dense

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


def hstack(blocks: Sequence[SparseMatrix]) -> SparseMatrix:
    rows = blocks[0].rows
    entries = {}
    off = 0
    for b in blocks:
        if b.rows != rows:
            raise ValueError("row count mismatch in hstack")
        for (i, j), v in b.entries.items():
            entries[(i, j + off)] = v
        off += b.cols
    return SparseMatrix(rows, off, entries)


# ---------------------------------------------------------------------------
# Elimination engines
# ---------------------------------------------------------------------------


def _markowitz_pivot(rowdata, colindex, active_rows):
    """Pick the pivot minimising (nnz(row)-1)*(nnz(col)-1).

    Ties broken by (count, col, row) so the choice is deterministic for a
    given sparse structure.
    """
    best = None
    for i in active_rows:
        ri = rowdata[i]
        rcount = len(ri) - 1
        for j in ri:
            score = rcount * (len(colindex[j]) - 1)
            key = (score, j, i)
            if best is None or key < best:
                best = key
    if best is None:
        return None
    return best[2], best[1]


def rank(m: SparseMatrix) -> int:
    """Exact rank over the rationals.

    Forward-only sparse elimination: the pivot row is the shortest
    active row (ties on the lower row index) and, within it, the pivot
    column is the one held by the fewest active rows (ties on the lower
    column index), after Markowitz (1957).  Only the rows holding the pivot
    column are updated; there is no back-substitution, since only the
    number of pivots is needed.
    """
    rowdata = [dict() for _ in range(m.rows)]
    colindex: dict[int, set[int]] = {}
    for (i, j), v in m.entries.items():
        rowdata[i][j] = v
        colindex.setdefault(j, set()).add(i)
    heap = [(len(row), i) for i, row in enumerate(rowdata) if row]
    heapq.heapify(heap)
    done = set()
    r = 0
    while heap:
        n, pi = heapq.heappop(heap)
        prow = rowdata[pi]
        if pi in done or n != len(prow):
            continue  # stale entry: the row was pivoted or has changed length
        done.add(pi)
        for j in prow:
            colindex[j].discard(pi)
        pj = min(prow, key=lambda j: (len(colindex[j]), j))
        scale = prow.pop(pj)
        prow = {j: v / scale for j, v in prow.items()}
        for i in colindex.pop(pj):
            row = rowdata[i]
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
            if row:
                heapq.heappush(heap, (len(row), i))
        r += 1
    return r


class _Reduced:
    """Outcome of a full rational reduction of a matrix.

    ``rows`` hold the reduced rows (each pivot column has a single nonzero,
    scaled so the pivot is 1); ``pivots`` maps pivot column -> reduced row
    index, in elimination order.
    """

    __slots__ = ("rows", "pivots", "ncols")

    def __init__(self, rows, pivots, ncols):
        self.rows = rows
        self.pivots = pivots
        self.ncols = ncols

    @property
    def rank(self):
        return len(self.pivots)


def _reduce(m: SparseMatrix, rhs: Optional[list[Fraction]] = None):
    """Rational elimination to a fully reduced form.

    Returns (_Reduced, reduced_rhs).  ``rhs`` entries are carried through
    the same row operations; rows of the rhs belonging to eliminated-away
    (dependent) equations keep their residual value, which is exactly the
    inconsistency witness solve_particular needs.
    """
    rowdata = [dict() for _ in range(m.rows)]
    for (i, j), v in m.entries.items():
        rowdata[i][j] = v
    rvec = list(rhs) if rhs is not None else None

    colindex = {}
    for i, r in enumerate(rowdata):
        for j in r:
            colindex.setdefault(j, set()).add(i)
    active = {i for i, r in enumerate(rowdata) if r}
    done: list[int] = []
    pivots: dict[int, int] = {}

    while active:
        picked = _markowitz_pivot(rowdata, colindex, active)
        if picked is None:
            break
        pi, pj = picked
        prow = rowdata[pi]
        pivot = prow[pj]
        if pivot != QONE:
            for j in prow:
                prow[j] /= pivot
            if rvec is not None:
                rvec[pi] /= pivot
        active.discard(pi)
        for j in prow:
            colindex[j].discard(pi)
        # eliminate pj everywhere: rows still active and rows already done
        victims = [i for i in colindex.get(pj, ()) if i in active]
        victims += [i for i in done if pj in rowdata[i]]
        for i in victims:
            row = rowdata[i]
            f = row.pop(pj, QZERO)
            if i in active:
                colindex[pj].discard(i)
            if not f:
                continue
            for j, pv in prow.items():
                if j == pj:
                    continue
                nv = row.get(j, QZERO) - f * pv
                if nv:
                    if j not in row and i in active:
                        colindex.setdefault(j, set()).add(i)
                    row[j] = nv
                else:
                    if j in row:
                        del row[j]
                        if i in active:
                            colindex[j].discard(i)
            if rvec is not None:
                rvec[i] -= f * rvec[pi]
            if i in active and not row:
                active.discard(i)
        pivots[pj] = pi
        done.append(pi)

    return _Reduced(rowdata, pivots, m.cols), rvec


def _canon_sign(vec: list[Fraction]) -> list[Fraction]:
    """Scale by -1 if the first nonzero coordinate is negative."""
    for v in vec:
        if v:
            return [-x for x in vec] if v < 0 else vec
    return vec


def kernel_basis(m: SparseMatrix) -> list[list[Fraction]]:
    """Canonical basis of the null space.

    One vector per free column: 1 at the free coordinate, the negated
    reduced-echelon entries at the pivot coordinates, then sign-fixed so
    the first nonzero coordinate is positive.  Exactly cols - rank
    vectors, each satisfying m @ v == 0 identically.
    """
    red, _ = _reduce(m)
    free_cols = [j for j in range(m.cols) if j not in red.pivots]
    basis = []
    for j in free_cols:
        vec = [QZERO] * m.cols
        vec[j] = QONE
        for pj, pi in red.pivots.items():
            coeff = red.rows[pi].get(j)
            if coeff:
                vec[pj] = -coeff
        basis.append(_canon_sign(vec))
    return basis


def cokernel_reps(m: SparseMatrix) -> list[list[Fraction]]:
    """Representatives of target / image.

    The image of ``m`` is the row space of its transpose; after reducing
    the transpose, the standard basis vectors at non-pivot coordinates
    are independent of the image and of each other, giving exactly
    rows - rank canonical representatives.
    """
    red, _ = _reduce(m.transpose())
    reps = []
    for i in range(m.rows):
        if i not in red.pivots:
            vec = [QZERO] * m.rows
            vec[i] = QONE
            reps.append(vec)
    return reps


def image_basis(m: SparseMatrix) -> list[list[Fraction]]:
    """Reduced-echelon basis of the column space, as vectors in the target."""
    red, _ = _reduce(m.transpose())
    out = []
    for pj in sorted(red.pivots):
        pi = red.pivots[pj]
        vec = [QZERO] * m.rows
        for j, v in red.rows[pi].items():
            vec[j] = v
        out.append(_canon_sign(vec))
    return out


def solve_particular(
    m: SparseMatrix, b: Sequence[Fraction]
) -> Optional[list[Fraction]]:
    """One exact solution of m @ x = b, or None when b is not in the image.

    Free coordinates are set to zero, so the answer is deterministic.
    The answer is checked exactly against ``b``; a mismatch raises
    InternalCheckError.
    """
    if len(b) != m.rows:
        raise ValueError(f"rhs length {len(b)} != rows {m.rows}")
    rhs = [Q(v) for v in b]
    red, rvec = _reduce(m, rhs)
    pivot_rows = set(red.pivots.values())
    for i in range(m.rows):
        if i not in pivot_rows and rvec[i]:
            return None
    x = [QZERO] * m.cols
    for pj, pi in red.pivots.items():
        val = rvec[pi]
        for j, v in red.rows[pi].items():
            if j != pj and x[j]:
                val -= v * x[j]
        x[pj] = val
    if m.apply(x) != rhs:
        raise InternalCheckError("particular solution does not reproduce the rhs")
    return x


def row_space_reducer(vectors: list[list[Fraction]], length: int):
    """Preprocess vectors spanning a subspace for repeated reduction.

    Returns an object with ``reduce(vec)`` mapping a vector to its
    canonical residue modulo the span: the reduced-echelon form of the
    spanning set is subtracted off at each pivot coordinate.
    """
    mat = SparseMatrix.from_columns(vectors, length) if vectors else SparseMatrix(length, 0)
    red, _ = _reduce(mat.transpose())
    pivot_rows = [(pj, red.rows[pi]) for pj, pi in sorted(red.pivots.items())]

    class _Reducer:
        rank = len(pivot_rows)

        @staticmethod
        def reduce(vec: Sequence[Fraction]) -> list[Fraction]:
            out = list(vec)
            for pj, row in pivot_rows:
                f = out[pj]
                if f:
                    for j, v in row.items():
                        out[j] -= f * v
            return out

        @staticmethod
        def contains(vec: Sequence[Fraction]) -> bool:
            return not any(_Reducer.reduce(vec))

    return _Reducer


def rank_of_vectors(vectors: list[list[Fraction]], length: int) -> int:
    if not vectors:
        return 0
    return rank(SparseMatrix.from_columns(vectors, length))


def rank_modulo(
    vectors: list[list[Fraction]],
    modulo: list[list[Fraction]],
    length: int,
) -> int:
    """Dimension of span(vectors) inside the quotient by span(modulo)."""
    joint = rank_of_vectors(list(vectors) + list(modulo), length)
    return joint - rank_of_vectors(modulo, length)
