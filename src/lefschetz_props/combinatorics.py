"""Monomial bases, multinomial coefficients, and Macaulay's binomial calculus.

Monomials are plain exponent tuples.  The basis of each graded piece is
enumerated once per (arity, degree) pair and cached process-wide, so monomial
indices are stable and cheap to share between ideals and campaigns.  All
counting is done in arbitrary-precision integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

# Exponent vector (a_1, ..., a_n); the degree is the coordinate sum.
Monomial = tuple[int, ...]


def binom(n: int, k: int) -> int:
    """C(n, k) with the convention C(n, k) = 0 for k < 0 or k > n."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def basis_size(n: int, d: int) -> int:
    """Number of degree-d monomials in n variables: C(n+d-1, n-1)."""
    return binom(n + d - 1, n - 1)


@lru_cache(maxsize=None)
def monomial_basis(n: int, d: int) -> tuple[Monomial, ...]:
    """All degree-d monomials in n variables, colex-ordered on exponents.

    Colex (the last differing exponent decides, smaller first) gives stable
    indices with cheap successor iteration and coincides, inside one degree,
    with descending degrevlex, so x_1^d sits at index 0.
    """
    if n < 1:
        raise ValueError("arity must be at least 1")
    if d < 0:
        raise ValueError("degree must be nonnegative")
    if n == 1:
        return ((d,),)
    out: list[Monomial] = []
    for last in range(d + 1):
        for prefix in monomial_basis(n - 1, d - last):
            out.append(prefix + (last,))
    return tuple(out)


@lru_cache(maxsize=None)
def basis_index(n: int, d: int) -> dict[Monomial, int]:
    """Monomial -> position in monomial_basis(n, d).  Treat as read-only."""
    return {m: i for i, m in enumerate(monomial_basis(n, d))}


@lru_cache(maxsize=None)
def product_table(n: int, j: int, i: int) -> tuple:
    """Multiplication of the full ring from degree j to degree j+i by every
    offset monomial x^c of degree i at once: for each index into
    monomial_basis(n, j), the pairs (target index into monomial_basis(n, j+i),
    offset index c into monomial_basis(n, i))."""
    tgt_index = basis_index(n, j + i)
    offsets = monomial_basis(n, i)
    return tuple(
        tuple(
            (tgt_index[tuple(x + y for x, y in zip(a, c))], k)
            for k, c in enumerate(offsets)
        )
        for a in monomial_basis(n, j)
    )


def multinomial(i: int, a: Monomial) -> int:
    """i! / (a_1! ... a_n!) for an exponent vector with coordinate sum i."""
    if sum(a) != i:
        raise ValueError(f"exponent vector {a} does not sum to {i}")
    out = 1
    rem = i
    for e in a:
        out *= math.comb(rem, e)
        rem -= e
    return out


@dataclass(frozen=True)
class BinomialExpansion:
    """Greedy i-binomial expansion m = C(m_i, i) + C(m_{i-1}, i-1) + ...

    ``terms`` holds (top, bottom) pairs with bottoms descending from ``index``
    down to some j >= 1; the tops are strictly decreasing, which makes the
    expansion unique.
    """

    index: int
    terms: tuple[tuple[int, int], ...]

    def value(self) -> int:
        return sum(math.comb(t, b) for t, b in self.terms)

    def __str__(self) -> str:
        return " + ".join(f"C({t},{b})" for t, b in self.terms)


def macaulay_expansion(m: int, i: int) -> BinomialExpansion:
    """The unique greedy i-binomial expansion of a positive integer m."""
    if m < 1:
        raise ValueError("m must be positive")
    if i < 1:
        raise ValueError("index must be positive")
    terms: list[tuple[int, int]] = []
    rem = m
    k = i
    while rem > 0:
        top = k
        while math.comb(top + 1, k) <= rem:
            top += 1
        terms.append((top, k))
        rem -= math.comb(top, k)
        k -= 1
    return BinomialExpansion(i, tuple(terms))


def macaulay_lower(m: int, i: int) -> int:
    """Shift every term of the i-binomial expansion of m by (-1, -1).

    Each C(top, bottom) becomes C(top-1, bottom-1), with C(c, d) = 0 whenever
    c < d or d < 0.  Returns 0 for m = 0.
    """
    if i < 1:
        raise ValueError("index must be positive")
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m == 0:
        return 0
    return sum(binom(t - 1, b - 1) for t, b in macaulay_expansion(m, i).terms)


def macaulay_growth(m: int, i: int) -> int:
    """Largest admissible next value after m in degree i: shift by (+1, +1)."""
    if i < 1:
        raise ValueError("index must be positive")
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m == 0:
        return 0
    return sum(binom(t + 1, b + 1) for t, b in macaulay_expansion(m, i).terms)
