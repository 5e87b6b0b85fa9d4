from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from homcoh.linalg import RatMatrix, kernel_dim, rank, solve

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=20
)


def test_rank_identity():
    assert rank(RatMatrix.from_rows([[1, 0], [0, 1]])) == 2


def test_rank_zero_matrix():
    assert rank(RatMatrix(3, 3)) == 0


def test_rank_proportional_rows():
    assert rank(RatMatrix.from_rows([[1, 2], [2, 4]])) == 1


def test_kernel_dim_identity():
    assert kernel_dim(RatMatrix.from_rows([[1, 0], [0, 1]])) == 0


def test_kernel_dim_zero_row():
    assert kernel_dim(RatMatrix(1, 3)) == 3


def test_kernel_dim_rank_two():
    assert kernel_dim(RatMatrix.from_rows([[1, 1, 0], [0, 0, 1]])) == 1


def test_rank_with_fractions():
    m = RatMatrix.from_rows(
        [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1], [0, Fraction(7, 5)]]
    )
    assert rank(m) == 2


def test_out_of_bounds_entry_rejected():
    with pytest.raises(ValueError):
        RatMatrix(2, 2, {(2, 0): Fraction(1)})


@given(st.lists(st.lists(rationals, min_size=4, max_size=4), min_size=1, max_size=6))
def test_rank_plus_kernel_is_cols(rows):
    m = RatMatrix.from_rows(rows)
    assert rank(m) + kernel_dim(m) == m.cols


@given(st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=1, max_size=5))
def test_rank_of_transpose(rows):
    m = RatMatrix.from_rows(rows)
    transposed = RatMatrix(m.cols, m.rows, {(j, i): v for (i, j), v in m.entries.items()})
    assert rank(m) == rank(transposed)


@given(rationals, rationals)
def test_rational_addition_exact(a, b):
    assert (a + b) - b == a


def test_solve_consistent_system():
    m = RatMatrix.from_rows([[1, 2], [3, 4]])
    x = solve(m, [5, 11])
    assert x == [Fraction(1), Fraction(2)]


def test_solve_inconsistent_system():
    m = RatMatrix.from_rows([[1, 1], [2, 2]])
    assert solve(m, [1, 3]) is None


def test_solve_underdetermined():
    m = RatMatrix.from_rows([[1, 1, 1]])
    x = solve(m, [6])
    assert x is not None
    assert sum(x) == 6


# ---- the sparse core against a dense reference -------------------------


def dense_pivots(rows, n_cols):
    """Pivot columns by plain dense Fraction Gauss elimination: the reference
    for the sparse fraction-free routine behind rank and solve."""
    a = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for c in range(n_cols):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        a[r] = [v / a[r][c] for v in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                factor = a[i][c]
                a[i] = [v - factor * w for v, w in zip(a[i], a[r])]
        pivots.append(c)
    return pivots


def dense_rank(rows, n_cols):
    return len(dense_pivots(rows, n_cols))


huge = st.builds(
    Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**20)
)
entries = st.one_of(
    st.just(Fraction(0)), st.just(Fraction(0)), st.just(Fraction(0)), rationals, huge
)


@st.composite
def matrices(draw, max_side=8):
    """Dense row lists: sparse random patterns, tall, wide and empty shapes,
    zero rows, and low-rank products whose rank falls below both sides."""
    n_rows = draw(st.integers(0, max_side))
    n_cols = draw(st.integers(0, max_side))
    if draw(st.booleans()):
        rows = [[draw(entries) for _ in range(n_cols)] for _ in range(n_rows)]
    else:
        inner = draw(st.integers(0, 3))
        left = [[draw(entries) for _ in range(inner)] for _ in range(n_rows)]
        right = [[draw(entries) for _ in range(n_cols)] for _ in range(inner)]
        rows = [
            [sum((l[k] * right[k][j] for k in range(inner)), Fraction(0)) for j in range(n_cols)]
            for l in left
        ]
    return rows, n_cols


def to_matrix(rows, n_cols):
    entries = {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row) if v}
    return RatMatrix(len(rows), n_cols, entries)


@given(matrices())
def test_rank_matches_dense_reference(shape):
    rows, n_cols = shape
    m = to_matrix(rows, n_cols)
    assert rank(m) == dense_rank(rows, n_cols)
    assert kernel_dim(m) == n_cols - dense_rank(rows, n_cols)


@given(matrices(), st.data())
def test_solve_matches_dense_reference(shape, data):
    rows, n_cols = shape
    m = to_matrix(rows, n_cols)
    if data.draw(st.booleans()):
        # consistent by construction: rhs = m y
        y = data.draw(st.lists(entries, min_size=n_cols, max_size=n_cols))
        rhs = [sum((v * w for v, w in zip(row, y)), Fraction(0)) for row in rows]
    else:
        rhs = data.draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
    x = solve(m, rhs)
    augmented = [row + [b] for row, b in zip(rows, rhs)]
    inconsistent = dense_rank(augmented, n_cols + 1) > dense_rank(rows, n_cols)
    assert (x is None) == inconsistent
    if x is not None:
        assert len(x) == n_cols
        for row, b in zip(rows, rhs):
            assert sum((v * w for v, w in zip(row, x)), Fraction(0)) == b
        pivots = dense_pivots(rows, n_cols)
        assert all(x[j] == 0 for j in range(n_cols) if j not in pivots)


def test_solve_rejects_rhs_of_wrong_length():
    with pytest.raises(ValueError):
        solve(RatMatrix.from_rows([[1, 2], [3, 4]]), [1])
