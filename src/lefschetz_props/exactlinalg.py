"""Exact linear algebra over the rationals: rank and RREF.

Matrices are immutable once built.  Rational matrices are scaled row-wise
to integers first, which preserves the row space.  This module defines no
elimination of its own: both run the package's one fraction-free forward
elimination, ``_ranks_py.integer_echelon`` (also importable from here).
``rank`` is its pivot count, with no modular certificate, so tests can use
it as an oracle for the deciders' rank policy.  ``row_reduce`` runs it,
back-substitutes over the pivot rows and normalizes the RREF to rationals
once, at the end.  The graded pieces of form ideals keep the integer
echelon rows and never back-substitute or normalize them.

Pivot policy everywhere: first nonzero entry in column order, rows scanned
top-down.  This keeps every reduction deterministic and reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from . import _kernels
from ._ranks_py import integer_echelon

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
    """Exact rank over the rationals: the pivot count of
    ``integer_echelon`` on the integer-scaled rows."""
    return _kernels.rank_int_rows(integer_rows(M._data), M.cols)


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
