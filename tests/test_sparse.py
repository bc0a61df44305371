import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trusshom.sparse import (
    SparseMatrix,
    cokernel_reps,
    image_basis,
    kernel_basis,
    rank,
    rank_modulo,
    row_space_reducer,
    solve_particular,
)

from trusshom import sparse
from trusshom.errors import InternalCheckError
from trusshom.statics import force_chain_complex

from conftest import dense_rank, matrix_rows, random_truss

Q = Fraction


rationals = st.fractions(
    min_value=-6, max_value=6, max_denominator=4
)


@st.composite
def sparse_matrices(draw, max_dim=7):
    m = draw(st.integers(0, max_dim))
    n = draw(st.integers(0, max_dim))
    entries = {}
    for i in range(m):
        for j in range(n):
            if draw(st.booleans()):
                entries[(i, j)] = draw(rationals)
    return SparseMatrix(m, n, entries)


def test_rank_trivial_cases():
    assert rank(SparseMatrix(0, 0)) == 0
    assert rank(SparseMatrix.identity(2)) == 2
    assert rank(SparseMatrix.zeros(3, 4)) == 0


def test_kernel_trivial_cases():
    assert kernel_basis(SparseMatrix.identity(2)) == []
    (vec,) = kernel_basis(SparseMatrix.from_rows([[1, 1]]))
    assert vec[0] + vec[1] == 0 and any(vec)


def test_cokernel_trivial_cases():
    assert cokernel_reps(SparseMatrix.identity(2)) == []
    (rep,) = cokernel_reps(SparseMatrix.from_rows([[1], [0]]))
    assert rep == [Q(0), Q(1)]


def test_wheel_equilibrium_matrix_rank_kernel_cokernel():
    from trusshom.samples import wheel5
    from trusshom.statics import force_chain_complex

    d1 = force_chain_complex(wheel5()).boundary(1)
    assert d1.shape == (10, 8)
    assert rank(d1) == 7  # one short of full column rank
    (kern,) = kernel_basis(d1)
    lead = next(v for v in kern if v)
    scaled = [v / lead for v in kern]
    assert scaled[:4] == [Q(1)] * 4 and scaled[4:] == [Q(-1, 2)] * 4
    assert len(cokernel_reps(d1)) == 3


def test_solve_trivial_cases():
    assert solve_particular(SparseMatrix.identity(2), [Q(3), Q(5)]) == [Q(3), Q(5)]
    x = solve_particular(SparseMatrix.from_rows([[1, 1]]), [Q(2)])
    assert x is not None and x[0] + x[1] == 2
    assert solve_particular(SparseMatrix.zeros(2, 2), [Q(1), Q(0)]) is None


def test_kernel_canonical_sign():
    for m in (
        SparseMatrix.from_rows([[1, 1]]),
        SparseMatrix.from_rows([[2, -3], [4, -6]]),
        SparseMatrix.from_rows([[0, 1, 1]]),
    ):
        for vec in kernel_basis(m):
            first = next(v for v in vec if v)
            assert first > 0


def test_cokernel_augmentation_increases_rank():
    rng = random.Random(5)
    for _ in range(40):
        rows = [
            [Q(rng.randrange(-3, 4)) for _ in range(4)] for _ in range(5)
        ]
        m = SparseMatrix.from_rows(rows)
        r = rank(m)
        for rep in cokernel_reps(m):
            aug = SparseMatrix.from_rows(
                [row + [rep[i]] for i, row in enumerate(rows)]
            )
            assert rank(aug) == r + 1


@settings(max_examples=150, deadline=None)
@given(sparse_matrices())
def test_rank_matches_dense_oracle_and_transpose(m):
    r = rank(m)
    assert r == dense_rank(matrix_rows(m))
    assert r == rank(m.transpose())


@settings(max_examples=150, deadline=None)
@given(sparse_matrices())
def test_rank_nullity_and_kernel_exactness(m):
    kb = kernel_basis(m)
    assert m.cols == rank(m) + len(kb)
    for v in kb:
        assert all(x == 0 for x in m.apply(v))
    assert len(cokernel_reps(m)) == m.rows - rank(m)


@settings(max_examples=100, deadline=None)
@given(sparse_matrices(), st.data())
def test_solve_roundtrip_when_solvable(m, data):
    x0 = [data.draw(rationals) for _ in range(m.cols)]
    b = m.apply(x0)
    x = solve_particular(m, b)
    assert x is not None
    assert m.apply(x) == b


def test_solve_particular_checks_its_residual(monkeypatch):
    real_eliminate = sparse._eliminate

    def skewed_eliminate(m, rhs=None, basis=False):
        rows, pivots, rvec = real_eliminate(m, rhs, basis)
        return rows, pivots, [v + 1 for v in rvec]

    monkeypatch.setattr(sparse, "_eliminate", skewed_eliminate)
    with pytest.raises(InternalCheckError, match="rhs"):
        solve_particular(SparseMatrix.identity(2), [Q(3), Q(5)])


@settings(max_examples=80, deadline=None)
@given(sparse_matrices(), st.data())
def test_permutation_invariance(m, data):
    rows = list(range(m.rows))
    cols = list(range(m.cols))
    rp = data.draw(st.permutations(rows))
    cp = data.draw(st.permutations(cols))
    permuted = SparseMatrix(
        m.rows, m.cols, {(rp[i], cp[j]): v for (i, j), v in m.entries.items()}
    )
    assert rank(permuted) == rank(m)
    assert len(kernel_basis(permuted)) == len(kernel_basis(m))
    assert len(cokernel_reps(permuted)) == len(cokernel_reps(m))


def low_rank_matrices(seed, count=12):
    """Sparse rank-deficient matrices up to 30x40 with rational entries:
    products of two sparse random factors through a small inner dimension."""
    rng = random.Random(seed)

    def sparse_factor(rows, cols, fill):
        return SparseMatrix(rows, cols, {
            (i, j): Q(rng.choice([-1, 1]) * rng.randrange(1, 10), rng.randrange(1, 6))
            for i in range(rows)
            for j in range(cols)
            if rng.random() < fill
        })

    out = []
    for _ in range(count):
        rows, cols, inner = rng.randrange(5, 31), rng.randrange(5, 41), rng.randrange(1, 7)
        fill = rng.choice([0.1, 0.2, 0.35])
        out.append(sparse_factor(rows, inner, fill) @ sparse_factor(inner, cols, fill))
    return out


def test_rank_low_rank_products_match_dense_oracle():
    for m in low_rank_matrices(7):
        r = rank(m)
        assert r == dense_rank(matrix_rows(m))
        assert r == rank(m.transpose())


def to_sympy(sympy, m):
    return sympy.Matrix(m.rows, m.cols, [
        sympy.Rational(v.numerator, v.denominator) for row in matrix_rows(m) for v in row
    ])


def from_sympy(vec):
    return [Q(int(v.p), int(v.q)) for v in vec]


def sign_normalized(vec):
    lead = next((v for v in vec if v), 1)
    return [-v for v in vec] if lead < 0 else vec


def test_rank_low_rank_products_match_sympy():
    sympy = pytest.importorskip("sympy")
    for m in low_rank_matrices(11):
        assert rank(m) == to_sympy(sympy, m).rank()


@pytest.mark.parametrize("seed", range(100, 110))
def test_bases_are_sympy_reduced_echelon_forms(seed):
    """Kernel and image bases are read off the reduced row-echelon form
    with respect to the natural column order, as sympy computes it."""
    sympy = pytest.importorskip("sympy")
    for m in low_rank_matrices(seed, count=8):
        sm = to_sympy(sympy, m)
        assert kernel_basis(m) == [sign_normalized(from_sympy(v)) for v in sm.nullspace()]
        rref, pivots = sm.T.rref()
        assert image_basis(m) == [from_sympy(rref.row(k)) for k in range(len(pivots))]
        assert cokernel_reps(m) == [
            [Q(int(i == k)) for i in range(m.rows)] for k in range(m.rows) if k not in pivots
        ]


def test_bases_do_not_depend_on_the_order_of_the_equations():
    rng = random.Random(3)
    for m in low_rank_matrices(17):
        perm = list(range(m.rows))
        rng.shuffle(perm)
        permuted = SparseMatrix(
            m.rows, m.cols, {(perm[i], j): v for (i, j), v in m.entries.items()}
        )
        # each call below eliminates the row-permuted matrix
        assert kernel_basis(permuted) == kernel_basis(m)
        transposed = permuted.transpose()
        assert image_basis(transposed) == image_basis(m.transpose())
        assert cokernel_reps(transposed) == cokernel_reps(m.transpose())


@pytest.mark.parametrize("n", [2, 3])
def test_rank_of_random_truss_equilibrium_matrix(n):
    rng = random.Random(31 + n)
    for _ in range(6):
        d1 = force_chain_complex(random_truss(rng, n)).boundary(1)
        assert rank(d1) == dense_rank(matrix_rows(d1))


def test_image_basis_and_reducer():
    m = SparseMatrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    img = image_basis(m)
    assert len(img) == rank(m) == 2
    reduce = row_space_reducer(img, 3)
    for j in range(3):
        col = [m.get(i, j) for i in range(3)]
        assert not any(reduce(col))
    assert any(reduce([Q(0), Q(1), Q(0)]))


def test_rank_modulo():
    v1 = [Q(1), Q(0), Q(0)]
    v2 = [Q(0), Q(1), Q(0)]
    assert rank_modulo([v1, v2], [v1], 3) == 1
    assert rank_modulo([v1], [v1], 3) == 0
    assert rank_modulo([v1, v2], [], 3) == 2


def test_matmul_and_apply_agree():
    a = SparseMatrix.from_rows([[1, 2], [3, 4]])
    b = SparseMatrix.from_rows([[0, 1], [1, 0]])
    prod = a @ b
    for j in range(2):
        col = [b.get(i, j) for i in range(2)]
        assert a.apply(col) == [prod.get(0, j), prod.get(1, j)]


def test_no_explicit_zeros_or_duplicates():
    m = SparseMatrix(2, 2, {(0, 0): Q(0), (1, 1): Q(5)})
    assert m.nnz == 1
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, [((0, 0), Q(1)), ((0, 0), Q(2))])
    with pytest.raises(ValueError):
        SparseMatrix(1, 1, {(2, 0): Q(1)})
