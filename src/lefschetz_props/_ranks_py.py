"""Elimination kernels on integer rows: the fraction-free echelon form and
the exact rank it gives, the rank modulo a prime, and the rank over GF(2).

All of them run on Python integers, so they never overflow.
``integer_echelon`` reduces its rows in place; every rank kernel leaves its
input rows unchanged.
"""

from __future__ import annotations

from math import gcd


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


def rank_i64(rows, ncols: int) -> int:
    """Exact rank of an integer matrix: the pivot count of
    ``integer_echelon`` on a copy of the rows."""
    return len(integer_echelon([list(r) for r in rows], ncols))


def rank_mod(rows, ncols: int, p: int) -> int:
    """Rank of the matrix reduced modulo the prime p.

    Elimination without inverses: each row below the pivot becomes
    ``pivot*row - f*pivot_row``.  The pivot is a unit mod p, so every step is
    invertible and the rank is the one any elimination mod p finds.
    """
    nrows = len(rows)
    if nrows == 0 or ncols == 0:
        return 0
    a = [[e % p for e in row] for row in rows]
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = -1
        for rr in range(r, nrows):
            if a[rr][c]:
                pr = rr
                break
        if pr < 0:
            continue
        if pr != r:
            a[r], a[pr] = a[pr], a[r]
        pivot_row = a[r]
        pivot = pivot_row[c]
        for rr in range(r + 1, nrows):
            row = a[rr]
            f = row[c]
            if f:
                for cc in range(c + 1, ncols):
                    row[cc] = (pivot * row[cc] - f * pivot_row[cc]) % p
                row[c] = 0
        r += 1
    return r


def _packed_rows(rows) -> list[int]:
    """Each integer row packed mod 2 into one int (bit c: column c's parity)."""
    return [sum(1 << c for c, e in enumerate(row) if e & 1) for row in rows]


def rank_gf2_bits(vectors) -> int:
    """Rank over GF(2) of vectors packed as ints, reduced by XOR against a
    basis keyed by leading bit."""
    basis: dict[int, int] = {}
    for v in vectors:
        while v:
            lead = v.bit_length()
            b = basis.get(lead)
            if b is None:
                basis[lead] = v
                break
            v ^= b
    return len(basis)
