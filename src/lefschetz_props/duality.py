"""Macaulay inverse systems: contraction, dual supports, extremal elements.

The polynomial ring acts on the dual ring by differentiation; contracting by
a monomial is iterated partial differentiation, and contracting by a power of
the all-ones linear form ell (the one form the monomial deciders use)
expands through multinomials.  All coefficients are exact rationals.
``contraction_matrix`` builds the contraction by ell^i from degree d on the
inverse system of a monomial ideal, whose degree-k piece is spanned by the
dual monomials of the ideal's standard monomials of degree k.  It is the
transpose of multiplication by ell^i into degree d up to invertible
factorial scalings; so the smallest support of a dual element it kills is
the girth of the rows of that multiplication map, which
``harness.min_kernel_support`` finds by ranking only the row sets that
touch each of their columns at least twice, the only ones that can be
dependent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .combinatorics import (
    Monomial,
    basis_index,
    binom,
    monomial_basis,
    multinomial,
)
from .exactlinalg import ExactMatrix
from .ideals import MonomialIdeal


@dataclass(frozen=True)
class DualElement:
    """Homogeneous polynomial in the dual variables y_1..y_n.

    ``support`` maps degree-d monomials to nonzero rational coefficients;
    treat it as frozen.  An empty support is the zero element of the stated
    degree.
    """

    n: int
    degree: int
    support: dict = field(compare=True)

    @classmethod
    def from_terms(cls, n: int, terms) -> "DualElement":
        clean: dict[Monomial, Fraction] = {}
        deg = None
        for mon, coeff in dict(terms).items():
            mon = tuple(int(e) for e in mon)
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            if len(mon) != n or any(e < 0 for e in mon):
                raise ValueError(f"bad monomial {mon} for arity {n}")
            if deg is None:
                deg = sum(mon)
            elif sum(mon) != deg:
                raise ValueError("element is not homogeneous")
            clean[mon] = coeff
        if deg is None:
            raise ValueError("zero element needs an explicit degree; use zero()")
        return cls(n, deg, clean)

    @classmethod
    def zero(cls, n: int, degree: int) -> "DualElement":
        return cls(n, degree, {})

    def is_zero(self) -> bool:
        return not self.support

    def support_monomials(self) -> tuple[Monomial, ...]:
        order = basis_index(self.n, self.degree)
        return tuple(sorted(self.support, key=order.__getitem__))

    def __str__(self) -> str:
        from .parsing import format_terms

        if not self.support:
            return "0"
        items = [(m, self.support[m]) for m in self.support_monomials()]
        return format_terms(items, "y")


def _falling(b: int, a: int) -> int:
    """b (b-1) ... (b-a+1); zero when a > b."""
    out = 1
    for t in range(a):
        out *= b - t
    return out


def contract(m: Monomial, f: DualElement) -> DualElement:
    """Contraction x^m o f: iterated partial differentiation of f.

    Bilinear in both arguments and contravariant: (m1*m2) o f equals
    m1 o (m2 o f).  The degree drops by deg(m).
    """
    dm = sum(m)
    if len(m) != f.n:
        raise ValueError("arity mismatch")
    if dm > f.degree:
        raise ValueError("contraction degree exceeds element degree")
    out: dict[Monomial, Fraction] = {}
    for mon, coeff in f.support.items():
        if all(a <= b for a, b in zip(m, mon)):
            scale = 1
            for a, b in zip(m, mon):
                scale *= _falling(b, a)
            tgt = tuple(b - a for a, b in zip(m, mon))
            val = out.get(tgt, 0) + coeff * scale
            if val:
                out[tgt] = val
            else:
                out.pop(tgt, None)
    return DualElement(f.n, f.degree - dm, out)


def ell_power_contract(f: DualElement, i: int) -> DualElement:
    """Contract f by the i-th power of the all-ones linear form."""
    if i < 0:
        raise ValueError("power must be nonnegative")
    if i > f.degree:
        raise ValueError("power exceeds element degree")
    out: dict[Monomial, Fraction] = {}
    for c in monomial_basis(f.n, i):
        weight = multinomial(i, c)
        g = contract(c, f)
        for mon, coeff in g.support.items():
            val = out.get(mon, 0) + weight * coeff
            if val:
                out[mon] = val
            else:
                out.pop(mon, None)
    return DualElement(f.n, f.degree - i, out)


def dual_ideal_from_support(T, n: int, d: int) -> MonomialIdeal:
    """Monomial ideal whose degree-d generators are the complement of T.

    HF(S/I, d) = |T| by construction.  The result is artinian exactly when T
    avoids every pure power; callers that need finiteness should check
    is_artinian on the result.
    """
    support = {tuple(int(e) for e in m) for m in T}
    if not support:
        raise ValueError("support must be nonempty")
    for m in support:
        if len(m) != n or sum(m) != d:
            raise ValueError(f"support monomial {m} is not admissible for degree {d}")
    gens = [m for m in monomial_basis(n, d) if m not in support]
    return MonomialIdeal(n, gens)


def kernel_witness(n: int, d: int, i: int) -> DualElement:
    """Minimal-support degree-d element killed by the i-th power of the
    all-ones form: y_1^(i-1) (y_2 - y_3)^(d-i+1) for i <= d-1 (support
    d-i+2), and y_1^d - y_2^d for i = d (support 2)."""
    if n < 3:
        raise ValueError("need at least three variables")
    if not 1 <= i <= d:
        raise ValueError("power must satisfy 1 <= i <= d")
    if i == d:
        terms = {
            (d,) + (0,) * (n - 1): Fraction(1),
            (0, d) + (0,) * (n - 2): Fraction(-1),
        }
        return DualElement.from_terms(n, terms)
    k = d - i + 1
    terms: dict[Monomial, Fraction] = {}
    for j in range(k + 1):
        mon = (i - 1, j, k - j) + (0,) * (n - 3)
        terms[mon] = Fraction(binom(k, j) * (-1) ** (k - j))
    return DualElement.from_terms(n, terms)


def extremal_dual(n: int, d: int, i: int) -> tuple[DualElement, MonomialIdeal]:
    """Dual witness y_1^(i-1) (y_2 - y_3)^(d-i+1) and its support-complement
    ideal.

    The element has support size d-i+2, is annihilated by the i-th power of
    the all-ones form, and the quotient by the returned ideal has
    HF(R, d) = d-i+2.  Needs n >= 3 and 2 <= i <= d-1; i = d-1 is the
    smallest-support case with |supp| = 3.
    """
    if not 2 <= i <= d - 1:
        raise ValueError("power must satisfy 2 <= i <= d-1")
    f = kernel_witness(n, d, i)
    ideal = dual_ideal_from_support(f.support_monomials(), n, d)
    return f, ideal


def contraction_matrix(I: MonomialIdeal, i: int, k: int) -> ExactMatrix:
    """Matrix of contraction by the i-th power of the all-ones linear form
    from the degree-k inverse-system piece to the degree-(k-i) piece.

    Rows are indexed by the degree-(k-i) dual monomials, columns by the
    degree-k dual monomials.
    """
    if i < 0 or k < i:
        raise ValueError("need 0 <= i <= k")
    cols = I.standard_monomials(k)
    rows = I.standard_monomials(k - i)
    row_index = {m: r for r, m in enumerate(rows)}
    data = [[0] * len(cols) for _ in rows]
    for c, mon in enumerate(cols):
        g = ell_power_contract(DualElement(I.n, k, {mon: Fraction(1)}), i)
        for tgt, coeff in g.support.items():
            r = row_index.get(tgt)
            if r is not None:
                data[r][c] = int(coeff)
    return ExactMatrix(len(rows), len(cols), data)

