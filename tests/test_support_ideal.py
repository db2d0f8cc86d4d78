"""Support ideals (the campaigns' bitmask ideals) against the MonomialIdeal
oracle, and the standard-index row builder, with the parity columns it
packs, against the mask/rowmap one."""

import math
import random
from fractions import Fraction

import pytest

from lefschetz_props.combinatorics import basis_index, basis_size, monomial_basis
from lefschetz_props.harness import ideal_from_mask
from lefschetz_props.ideals import (
    MonomialIdeal,
    SupportIdeal,
    hilbert_function,
    socle_degree,
)
from lefschetz_props.lefschetz import (
    LinearForm,
    _build_monomial_rows,
    mult_map_matrix,
    ones_form,
    random_linear_form,
)


def oracle(n, d, mask):
    """The same ideal through MonomialIdeal: pure powers plus the mixed
    degree-d monomials whose bit is clear."""
    basis = monomial_basis(n, d)
    mixed = [m for m in basis if sum(1 for e in m if e) > 1]
    gens = [m for m in basis if sum(1 for e in m if e) == 1]
    gens += [m for p, m in enumerate(mixed) if not (mask >> p) & 1]
    return MonomialIdeal(n, gens)


def sample_masks(n, d, count, seed):
    bits = basis_size(n, d) - n
    rng = random.Random(seed)
    return [0, (1 << bits) - 1] + [rng.getrandbits(bits) for _ in range(count)]


def assert_same_ideal(S, O, n, d):
    assert isinstance(S, SupportIdeal) and S == O
    assert S.generators == O.generators
    assert S.generator_strings() == O.generator_strings()
    assert (S.min_degree, S.max_degree) == (O.min_degree, O.max_degree)
    assert S.pure_power_degrees() == O.pure_power_degrees()
    top = n * (d - 1)
    for k in range(top + 3):
        assert S.hf(k) == O.hf(k), k
        assert S.degree_mask(k) == O.degree_mask(k), k
        assert S.standard_indices(k) == O.standard_indices(k), k
        assert S.standard_monomials(k) == O.standard_monomials(k), k
    # past the box top no standard monomial is left
    assert [S.hf(k) for k in range(top + 1, top + 6)] == [0] * 5
    assert hilbert_function(S, top + 2) == hilbert_function(O, top + 2)
    assert socle_degree(S) == socle_degree(O)


def test_every_3_4_support_ideal_matches_the_oracle():
    for mask in range(1 << (basis_size(3, 4) - 3)):
        assert_same_ideal(ideal_from_mask(3, 4, mask), oracle(3, 4, mask), 3, 4)


@pytest.mark.parametrize(
    "n, d, count, seed", [(3, 5, 300, 1), (4, 3, 300, 2), (4, 4, 100, 3), (5, 3, 100, 4)]
)
def test_sampled_support_ideals_match_the_oracle(n, d, count, seed):
    for mask in sample_masks(n, d, count, seed):
        assert_same_ideal(ideal_from_mask(n, d, mask), oracle(n, d, mask), n, d)


def test_support_ideal_rejects_negative_degrees():
    S = ideal_from_mask(3, 3, 5)
    for method in (S.hf, S.standard_indices, S.degree_mask):
        with pytest.raises(ValueError):
            method(-1)


def mask_rowmap_rows(I, ell, i, j):
    """Slow twin of the row builder: scan the whole degree-j and degree-(j+i)
    bases through degree_mask, map target positions to rows, and expand the
    i-th power of ell term by term.  Entries are ints when every weight is,
    else the nonzero weights are Fractions."""
    n = I.n
    mask_j = I.degree_mask(j)
    mask_ji = I.degree_mask(j + i)
    src = [gi for gi in range(basis_size(n, j)) if not (mask_j >> gi) & 1]
    nt = basis_size(n, j + i)
    rowmap = [-1] * nt
    r = 0
    for gi in range(nt):
        if not (mask_ji >> gi) & 1:
            rowmap[gi] = r
            r += 1
    offsets = []
    for c in monomial_basis(n, i):
        w = Fraction(math.factorial(i))
        for a, e in zip(ell.coefficients, c):
            w *= Fraction(a) ** e / math.factorial(e)
        if w:
            offsets.append((c, w))
    integral = all(w.denominator == 1 for _, w in offsets)
    tgt_index = basis_index(n, j + i)
    base = monomial_basis(n, j)
    rows = [[0] * len(src) for _ in range(r)]
    for ci, gi in enumerate(src):
        for c, w in offsets:
            rr = rowmap[tgt_index[tuple(x + y for x, y in zip(base[gi], c))]]
            if rr >= 0:
                rows[rr][ci] += int(w) if integral else w
    return rows


@pytest.mark.parametrize(
    "n, d, count, seed", [(3, 4, 40, 5), (3, 5, 15, 6), (4, 3, 15, 7), (4, 4, 4, 8)]
)
def test_mult_map_rows_match_the_mask_rowmap_twin(n, d, count, seed):
    rational = LinearForm((Fraction(1, 2),) + tuple(range(2, n + 1)))
    forms = [ones_form(n), random_linear_form(n, seed), rational]
    for mask in sample_masks(n, d, count, seed):
        S, O = ideal_from_mask(n, d, mask), oracle(n, d, mask)
        for i in range(1, d):
            for j in range(socle_degree(O) + 1):
                for ell in forms:
                    expected = mask_rowmap_rows(O, ell, i, j)
                    denom = weight_denominator(n, ell, i)
                    scaled = [[int(e * denom) for e in row] for row in expected]
                    parity = odd_columns(scaled, O.hf(j))
                    for I in (S, O):
                        rows = mult_map_matrix(I, ell, i, j).to_lists()
                        assert rows == expected, (mask, i, j, ell)
                        assert types(rows) == types(expected)
                        built = _build_monomial_rows(I, ell, i, j)
                        assert (built[0], built[3]) == (scaled, parity), (mask, i, j, ell)


def weight_denominator(n, ell, i):
    """The LCM of the denominators of the weights of ell^i, computed as the
    twin computes the weights: the builder scales its rows by it."""
    return math.lcm(*(
        (math.factorial(i) * math.prod(
            Fraction(a) ** e / math.factorial(e) for a, e in zip(ell.coefficients, c)
        )).denominator
        for c in monomial_basis(n, i)
    ))


def types(rows):
    return [[type(e) for e in row] for row in rows]


def odd_columns(rows, ncols):
    """The odd entries of integer rows packed column by column: bit r is
    the parity of row r."""
    return [sum(1 << r for r, row in enumerate(rows) if row[c] & 1) for c in range(ncols)]
