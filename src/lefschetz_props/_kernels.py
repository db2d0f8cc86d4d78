"""The one rank policy behind every maximal-rank check.

A rank modulo a prime is a lower bound for the exact rank (a minor that is
nonzero mod p is nonzero).  So a rank mod 2 or mod the word prime that
reaches min(dims) is the exact rank, and only the matrices that neither
certifies run exact Bareiss elimination.  Every caller hands the policy
integer rows together with the parity it packed while filling them (rows
or columns mod 2, one int each: the GF(2) rank is the same), so no caller
packs its rows twice and no step runs twice on one matrix.
"""

from __future__ import annotations

from . import _ranks_py

# Largest prime below 2^31.
WORD_PRIME: int = 2147483647


def rank_int_rows(rows, ncols: int) -> int:
    """Exact rank of integer rows (Bareiss)."""
    return _ranks_py.rank_i64(rows, ncols)


def rank_mod_rows(rows, ncols: int, p: int = WORD_PRIME) -> int:
    """Rank modulo p; always a lower bound for the exact rank."""
    return _ranks_py.rank_mod(rows, ncols, p)


def certifies_maximal(rows, ncols: int, parity) -> bool:
    """Whether the GF(2) rank of ``parity`` (the matrix's rows or columns,
    each packed mod 2 into one int), else the rank mod the word prime,
    reaches min(dims)."""
    m = min(len(rows), ncols)
    return _ranks_py.rank_gf2_bits(parity) == m or rank_mod_rows(rows, ncols) == m


def rank_rows(rows, ncols: int, parity) -> int:
    """Exact rank of integer rows: min(dims) when ``certifies_maximal``,
    otherwise the exact Bareiss rank."""
    if certifies_maximal(rows, ncols, parity):
        return min(len(rows), ncols)
    return rank_int_rows(rows, ncols)
