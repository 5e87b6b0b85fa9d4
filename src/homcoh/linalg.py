"""Exact rational linear algebra: sparse matrices, rank, kernel dimension, solve.

Everything is computed over the rationals with arbitrary precision.  One
sparse row-echelon routine serves every query: each row becomes a dict
{col: int} by clearing its denominators, rows are reduced sparsest first by
fraction-free cross-multiplication, and every pivot row is stored divided by
the gcd of its entries, so no Fraction arithmetic runs inside the elimination.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

# Exact rational scalar used throughout the package.  Python's Fraction is
# already normalized (gcd 1, positive denominator, 0 == 0/1).
Rational = Fraction


class RatMatrix:
    """Sparse matrix over the rationals, keyed by (row, col).

    Immutable after construction; missing entries are zero.  An entry given
    as an int stays an int; any other value is stored as a Fraction.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries=None):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        self.rows = rows
        self.cols = cols
        cleaned = {}
        for (i, j), v in (entries or {}).items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry ({i},{j}) out of bounds for {rows}x{cols}")
            if type(v) is not int:
                v = Fraction(v)
            if v != 0:
                cleaned[(i, j)] = v
        self.entries = cleaned

    @classmethod
    def from_rows(cls, row_lists):
        rows = len(row_lists)
        cols = len(row_lists[0]) if rows else 0
        entries = {}
        for i, row in enumerate(row_lists):
            if len(row) != cols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                if v != 0:
                    entries[(i, j)] = Fraction(v)
        return cls(rows, cols, entries)

    def __getitem__(self, key):
        return self.entries.get(key, Fraction(0))

    def __eq__(self, other):
        return (
            isinstance(other, RatMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"RatMatrix({self.rows}x{self.cols}, {len(self.entries)} nonzero)"


def _echelon(m: RatMatrix, rhs=None) -> dict:
    """Pivot rows of a row-echelon form of m, or of [m | rhs] when rhs is given.

    Returns {col: row}, where each row is a dict {col: int} whose lowest
    column is the key and whose entries have gcd 1.  The right-hand side, if
    any, is column m.cols.
    """
    by_row = {}
    for (i, j), v in m.entries.items():
        by_row.setdefault(i, {})[j] = v
    for i, v in enumerate(rhs or ()):
        if v:
            by_row.setdefault(i, {})[m.cols] = Fraction(v)
    rows = []
    for row in by_row.values():
        denom = lcm(*(v.denominator for v in row.values()))
        rows.append({j: v.numerator * (denom // v.denominator) for j, v in row.items()})

    pivots = {}
    for row in sorted(rows, key=len):
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                content = gcd(*row.values())
                pivots[col] = {j: v // content for j, v in row.items()}
                break
            # row <- a*row - b*pivot, with a/b the reduced ratio of leading entries
            g = gcd(pivot[col], row[col])
            a, b = pivot[col] // g, row[col] // g
            if a != 1:
                for j in row:
                    row[j] *= a
            for j, v in pivot.items():
                w = row.get(j, 0) - b * v
                if w:
                    row[j] = w
                else:
                    del row[j]
    return pivots


def rank(m: RatMatrix) -> int:
    """Rank of m over the rationals."""
    return len(_echelon(m))


def kernel_dim(m: RatMatrix) -> int:
    """Dimension of the right null space: cols - rank."""
    return m.cols - rank(m)


def solve(m: RatMatrix, rhs) -> list | None:
    """One exact solution of m x = rhs, or None if the system is inconsistent.

    Free variables are set to zero.  The pivot columns are the leftmost
    linearly independent columns of m, which every echelon form shares, so
    the solution returned does not depend on the elimination order.
    """
    if len(rhs) != m.rows:
        raise ValueError(f"right-hand side has {len(rhs)} entries for {m.rows} rows")
    pivots = _echelon(m, rhs)
    if m.cols in pivots:
        return None
    x = [Fraction(0)] * m.cols
    for col in sorted(pivots, reverse=True):
        row = pivots[col]
        total = row.get(m.cols, 0) - sum(v * x[j] for j, v in row.items() if col < j < m.cols)
        x[col] = Fraction(total) / row[col]
    return x
