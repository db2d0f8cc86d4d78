"""Rank kernels on integer rows: exact Bareiss, modulo a prime, and over
GF(2).

All three run on Python integers, so they never overflow.  Input rows are
not mutated.
"""

from __future__ import annotations


def rank_i64(rows, ncols: int) -> int:
    """Exact rank of an integer matrix via fraction-free elimination."""
    nrows = len(rows)
    if nrows == 0 or ncols == 0:
        return 0
    a = [list(row) for row in rows]
    r = 0
    prev = 1
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
            mult = row[c]
            for cc in range(c + 1, ncols):
                row[cc] = (pivot * row[cc] - mult * pivot_row[cc]) // prev
            row[c] = 0
        prev = pivot
        r += 1
    return r


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
