"""The one rank policy behind every maximal-rank check.

A rank modulo a prime is a lower bound for the exact rank (a minor that is
nonzero mod p is nonzero).  So a rank mod 2 or mod the word prime that
reaches min(dims) is the exact rank, and only the matrices that neither
certifies run exact Bareiss elimination.  A caller that has the GF(2) rank
from elsewhere (the parity columns that ``lefschetz``'s monomial row
builder packs, or the packed rows of a campaign's critical map) enters the
policy after that step, through ``rank_rows_after_gf2``, so no step runs
twice on one matrix.
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


def rank_rows(rows, ncols: int) -> int:
    """Exact rank of integer rows: min(dims) when GF(2) or the word prime
    certifies it, otherwise the exact Bareiss rank."""
    m = min(len(rows), ncols)
    if m == 0:
        return 0
    if _ranks_py.rank_gf2(rows) == m:
        return m
    return rank_rows_after_gf2(rows, ncols)


def rank_rows_after_gf2(rows, ncols: int) -> int:
    """The policy past its GF(2) step: min(dims) when the word prime
    certifies it, otherwise the exact Bareiss rank."""
    m = min(len(rows), ncols)
    if rank_mod_rows(rows, ncols) == m:
        return m
    return rank_int_rows(rows, ncols)
