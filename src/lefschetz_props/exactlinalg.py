"""Exact linear algebra over the rationals: rank and RREF.

Matrices are immutable once built.  Rational matrices are scaled row-wise
to integers first, which preserves the row space, and all elimination is
fraction-free on those integer rows.  ``rank`` is plain exact Bareiss
elimination on Python integers, with no modular certificate, so tests can
use it as an oracle for the deciders' rank policy.  Row reduction has one
elimination routine, ``integer_echelon``: fraction-free forward elimination
to row-echelon form.  ``row_reduce`` runs it, back-substitutes over the
pivot rows and normalizes the RREF to rationals once, at the end.  The
graded pieces of form ideals keep the integer echelon rows and never
back-substitute or normalize them.

Pivot policy everywhere: first nonzero entry in column order, rows scanned
top-down.  This keeps every reduction deterministic and reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from . import _kernels

Scalar = int | Fraction


class ExactMatrix:
    """Dense matrix over Q.  Instances must be treated as frozen."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows: int, cols: int, data: list[list[Scalar]]):
        # Trusted constructor: no copies, no validation.  Use from_rows for
        # externally supplied data.
        self.rows = rows
        self.cols = cols
        self._data = data

    @classmethod
    def from_rows(cls, rows) -> "ExactMatrix":
        data = [list(r) for r in rows]
        nrows = len(data)
        ncols = len(data[0]) if data else 0
        for r in data:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            for e in r:
                if not isinstance(e, (int, Fraction)):
                    raise TypeError(f"entry {e!r} is not an int or Fraction")
        return cls(nrows, ncols, data)

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls(n, n, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls(rows, cols, [[0] * cols for _ in range(rows)])

    def row(self, i: int) -> tuple[Scalar, ...]:
        return tuple(self._data[i])

    def to_lists(self) -> list[list[Scalar]]:
        return [list(r) for r in self._data]

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(
            self.cols, self.rows,
            [[self._data[i][j] for i in range(self.rows)] for j in range(self.cols)],
        )

    def column(self, j: int) -> tuple[Scalar, ...]:
        return tuple(self._data[i][j] for i in range(self.rows))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and all(
            self._data[i][j] == other._data[i][j]
            for i in range(self.rows)
            for j in range(self.cols)
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(map(tuple, self._data))))

    def __repr__(self) -> str:
        return f"ExactMatrix({self.rows}x{self.cols})"


def integer_rows(rows) -> list[list[int]]:
    """Rows of ints and Fractions, each scaled by the LCM of its
    denominators (row space preserved)."""
    out = []
    for r in rows:
        denom = 1
        for e in r:
            if isinstance(e, Fraction) and e.denominator != 1:
                denom = lcm(denom, e.denominator)
        if denom == 1:
            out.append([int(e) for e in r])
        else:
            out.append([int(e * denom) for e in r])
    return out


def rank(M: ExactMatrix) -> int:
    """Exact rank over the rationals."""
    if M.rows == 0 or M.cols == 0:
        return 0
    return _kernels.rank_int_rows(integer_rows(M._data), M.cols)


def integer_echelon(rows: list[list[int]], ncols: int) -> tuple[int, ...]:
    """Fraction-free forward elimination on integer rows, in place; returns
    the (strictly increasing) pivot columns.

    Each pivot is made positive and eliminated from the rows below it only:
    such a row becomes ``a*row - b*pivot_row`` with the smallest integer
    multipliers, computed on the columns past the pivot alone (both rows
    are zero before it), and its content is divided out.  Afterwards the
    first len(pivots) rows are in row-echelon form, each with a positive
    pivot and zeros before it, and the zero rows follow.
    """
    nrows = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = -1
        for rr in range(r, nrows):
            if rows[rr][c]:
                pr = rr
                break
        if pr < 0:
            continue
        prow = rows[pr]
        if pr != r:
            rows[r], rows[pr] = prow, rows[r]
        p = prow[c]
        if p < 0:
            prow = rows[r] = [-x for x in prow]
            p = -p
        tail = prow[c + 1:]
        zeros = [0] * (c + 1)
        for rr in range(r + 1, nrows):
            row = rows[rr]
            f = row[c]
            if f:
                g = gcd(p, f)
                a, b = p // g, f // g
                new = [a * x - b * y for x, y in zip(row[c + 1:], tail)]
                g = gcd(*new)
                if g > 1:
                    new = [x // g for x in new]
                rows[rr] = zeros + new
        pivots.append(c)
        r += 1
    return tuple(pivots)


def row_reduce(M: ExactMatrix) -> tuple[ExactMatrix, tuple[int, ...]]:
    """Reduced row echelon form and the (strictly increasing) pivot columns.

    The rows are scaled to integers and brought to row-echelon form by
    ``integer_echelon``.  Back-substitution then clears each pivot column
    above its pivot, last pivot first, with the same fraction-free step,
    and every pivot row is divided by its pivot once at the end.  Entries
    are ints where that division is exact and Fractions otherwise.  The
    shape is preserved (zero rows sink to the bottom), which makes the
    reduction idempotent.
    """
    data = integer_rows(M._data)
    pivots = integer_echelon(data, M.cols)
    for i in reversed(range(len(pivots))):
        c = pivots[i]
        prow = data[i]
        p = prow[c]
        for rr in range(i):
            f = data[rr][c]
            if f:
                g = gcd(p, f)
                a, b = p // g, f // g
                row = [a * x - b * y for x, y in zip(data[rr], prow)]
                g = gcd(*row)
                data[rr] = [x // g for x in row] if g > 1 else row
    for i, c in enumerate(pivots):
        p = data[i][c]
        data[i] = [x // p if x % p == 0 else Fraction(x, p) for x in data[i]]
    return ExactMatrix(M.rows, M.cols, data), pivots
