"""Contraction action, dual supports, extremal elements, kernel search."""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from lefschetz_props.combinatorics import basis_size, monomial_basis
from lefschetz_props.duality import (
    DualElement,
    contract,
    contraction_matrix,
    dual_ideal_from_support,
    ell_power_contract,
    extremal_dual,
    kernel_witness,
)
from lefschetz_props.errors import BudgetExceededError
from lefschetz_props.exactlinalg import ExactMatrix, rank
from lefschetz_props.harness import (
    DEFAULT_RANK_BUDGET,
    _kernel_support_search,
    ideal_from_mask,
    min_kernel_support,
    monomial_complete_intersection,
    theorem1_bound,
)
from lefschetz_props.ideals import MonomialIdeal, is_artinian, socle_degree
from lefschetz_props.lefschetz import mult_map_matrix


def dual(n, terms):
    return DualElement.from_terms(n, terms)


def test_contract_examples():
    assert contract((1, 0, 0), dual(3, {(2, 0, 0): 1})).support == {(1, 0, 0): 2}
    f = dual(3, {(0, 1, 0): 1, (0, 0, 1): -1})
    total = sum(
        (contract(m, f).support.get((0, 0, 0), 0))
        for m in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    )
    assert total == 0
    assert contract((1, 1, 0), dual(3, {(1, 1, 1): 1})).support == {(0, 0, 1): 1}


def test_contract_degree_overrun():
    with pytest.raises(ValueError):
        contract((2, 0, 0), dual(3, {(1, 0, 0): 1}))


def test_contract_contravariant():
    rng = random.Random(31)
    for _ in range(25):
        d = rng.randint(2, 5)
        support = {
            m: Fraction(rng.randint(-4, 4))
            for m in rng.sample(monomial_basis(3, d), rng.randint(1, 5))
        }
        support = {m: c for m, c in support.items() if c}
        if not support:
            continue
        f = dual(3, support)
        m1 = tuple(rng.randint(0, 1) for _ in range(3))
        m2 = tuple(rng.randint(0, 1) for _ in range(3))
        if sum(m1) + sum(m2) > d:
            continue
        prod = tuple(a + b for a, b in zip(m1, m2))
        assert contract(prod, f).support == contract(m1, contract(m2, f)).support


def test_ell_power_examples():
    assert ell_power_contract(dual(3, {(0, 1, 0): 1, (0, 0, 1): -1}), 1).is_zero()
    for d in range(2, 7):
        assert ell_power_contract(dual(3, {(d, 0, 0): 1}), d).support == {
            (0, 0, 0): math.factorial(d)
        }
    for d in range(3, 7):
        for i in range(2, d):
            f = kernel_witness(3, d, i)
            assert ell_power_contract(f, i).is_zero()


def test_inverse_system_piece_sizes():
    zero = MonomialIdeal(3, [])
    assert len(zero.standard_monomials(4)) == basis_size(3, 4)
    bk = MonomialIdeal(3, [(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)])
    assert len(bk.standard_monomials(3)) == 6
    full = MonomialIdeal(3, monomial_basis(3, 2))
    assert full.standard_monomials(2) == ()


def test_dual_ideal_examples():
    f = kernel_witness(3, 3, 2)  # y1 (y2 - y3)^2
    I = dual_ideal_from_support(f.support_monomials(), 3, 3)
    assert len(I.generators) == 7
    assert I.hf(3) == 3
    assert is_artinian(I)
    everything = dual_ideal_from_support(monomial_basis(3, 2), 3, 2)
    assert everything.generators == ()
    single = dual_ideal_from_support([(0, 1, 3)], 3, 4)
    assert single.hf(4) == 1
    assert is_artinian(single)
    # a pure power inside the support removes it from the generators
    assert not is_artinian(dual_ideal_from_support([(4, 0, 0)], 3, 4))


def test_extremal_dual_examples():
    f, I = extremal_dual(3, 3, 2)
    assert f.support == {
        (1, 2, 0): 1, (1, 1, 1): -2, (1, 0, 2): 1,
    }
    assert I.hf(3) == 3
    for d in range(3, 7):
        for i in range(2, d):
            f, I = extremal_dual(3, d, i)
            assert len(f.support) == d - i + 2 == I.hf(d)
            assert ell_power_contract(f, i).is_zero()
            assert is_artinian(I)
    with pytest.raises(ValueError):
        extremal_dual(3, 4, 1)
    with pytest.raises(ValueError):
        extremal_dual(3, 4, 4)


def test_extremal_dual_more_variables():
    f, I = extremal_dual(4, 4, 2)
    assert len(f.support) == 4 == I.hf(4)
    assert ell_power_contract(f, 2).is_zero()
    assert is_artinian(I)


def test_min_kernel_support_examples():
    zero = MonomialIdeal(3, [])
    assert min_kernel_support(zero, 4, 2, bound=4) == 4
    assert min_kernel_support(zero, 4, 2, bound=3) is None
    for d in (2, 3, 4):
        assert min_kernel_support(MonomialIdeal(3, []), d, d, bound=2) == 2


def test_min_kernel_support_budget():
    with pytest.raises(BudgetExceededError):
        min_kernel_support(MonomialIdeal(3, []), 5, 2, bound=5, budget=10)


def test_min_kernel_support_bound_validation():
    with pytest.raises(ValueError):
        min_kernel_support(MonomialIdeal(3, []), 3, 2, bound=0)
    with pytest.raises(ValueError):
        min_kernel_support(MonomialIdeal(3, []), 3, 2, bound=11)
    with pytest.raises(ValueError):
        min_kernel_support(MonomialIdeal(3, []), 3, 2, bound=3, budget=-1)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7])
def test_min_support_grid_matches_bound(d):
    # over the full dual space the minimum is d-i+2 (power below the degree)
    # and 2 at the degree itself
    zero = MonomialIdeal(3, [])
    for i in range(1, d + 1):
        expected = d - i + 2 if i < d else 2
        assert min_kernel_support(zero, d, i, bound=expected) == expected
        if expected > 1:
            assert min_kernel_support(zero, d, i, bound=expected - 1) is None


@pytest.mark.parametrize("i", [1, 2, 3, 4, 5, 6])
def test_min_support_grid_degree_six(i):
    zero = MonomialIdeal(3, [])
    expected = 6 - i + 2 if i < 6 else 2
    assert min_kernel_support(zero, 6, i, bound=expected) == expected
    assert min_kernel_support(zero, 6, i, bound=expected - 1) is None


@pytest.mark.parametrize(
    "n, d", [(3, 3), (3, 4), (4, 3), (3, 5), (3, 6), (4, 4), (4, 5), (5, 3)]
)
def test_theorem1_bound_is_the_complete_intersection_girth(n, d):
    # cross-oracle: the Theorem 1 bound, written down from the paper, equals
    # the smallest dependent row set of multiplication by the all-ones form
    # from R_{d-1} to R_d on the monomial complete intersection, found by
    # the support search
    bound = theorem1_bound(n, d)
    ci = monomial_complete_intersection(n, d)
    assert min_kernel_support(ci, d, 1, bound) == bound
    assert min_kernel_support(ci, d, 1, bound - 1) is None


@pytest.mark.parametrize("n, d, reached", [(3, 5, 605), (4, 4, 1798), (5, 3, 1048)])
def test_complete_intersection_girth_search_reaches_the_same_sets(n, d, reached):
    # the row sets the stopping-set search reaches at the Theorem 1 bound,
    # pinned: a change in how a set grows changes the count
    bound = theorem1_bound(n, d)
    ci = monomial_complete_intersection(n, d)
    assert _kernel_support_search(ci, d, 1, bound, DEFAULT_RANK_BUDGET) == (bound, reached)


def brute_min_support(I, d, i, bound):
    """Oracle of min_kernel_support: the smallest size of a dependent set of
    columns of contraction_matrix, each subset ranked by exactlinalg.rank."""
    C = contraction_matrix(I, i, d)
    columns = [C.column(c) for c in range(C.cols)]
    for size in range(1, bound + 1):
        for subset in combinations(columns, size):
            sub = ExactMatrix(C.rows, size, [list(row) for row in zip(*subset)])
            if rank(sub) < size:
                return size
    return None


def support_search_cases():
    zero = MonomialIdeal(3, [])
    # an ideal that no transposition of the variables fixes
    asymmetric = ideal_from_mask(3, 4, 0b000011111111)
    cases = [(zero, d) for d in range(1, 6)] + [(asymmetric, 4)]
    rng = random.Random(37)
    for n, d in ((3, 3), (3, 4), (4, 3)):
        for _ in range(4):
            I = ideal_from_mask(n, d, rng.getrandbits(basis_size(n, d) - n))
            cases += [(I, k) for k in range(1, socle_degree(I) + 1)]
    return cases


def test_min_kernel_support_matches_brute_force():
    # every power and every bound up to 4 (the whole piece when smaller), on
    # the zero ideal, an asymmetric support ideal and seeded ones, against
    # column subsets of the contraction matrix itself; and the complete
    # intersection's girth 4 at i = 2 below a bound of 5, found with the
    # bound lowered
    ci = monomial_complete_intersection(3, 4)
    assert brute_min_support(ci, 4, 2, 5) == 4
    assert min_kernel_support(ci, 4, 2, 5) == 4
    for I, d in support_search_cases():
        top = min(I.hf(d), 4)
        for i in range(1, d + 1):
            want = brute_min_support(I, d, i, top)
            for bound in range(1, top + 1):
                expected = want if want is not None and want <= bound else None
                assert min_kernel_support(I, d, i, bound) == expected, (I, d, i, bound)


def test_min_support_budget_stops_before_the_set_past_it(monkeypatch):
    # the budget counts the row sets the search reaches, each before it is
    # handled: a budget of exactly the sets reached finds the girth with
    # the same stopping sets ranked, and one set short it raises; a search
    # stopped by a budget of b has ranked a prefix of those stopping sets,
    # at most b of them and at most one more than with b - 1
    from lefschetz_props import harness

    ranked = []
    independent = harness._mask_rows_independent

    def spy(packed, rows, mask, ncols):
        ranked.append(mask)
        return independent(packed, rows, mask, ncols)

    monkeypatch.setattr(harness, "_mask_rows_independent", spy)
    zero = MonomialIdeal(3, [])
    counts = {}
    for d, i, bound, girth in ((1, 1, 2, 2), (5, 1, 6, 6), (5, 2, 5, 5)):
        ranked.clear()
        assert min_kernel_support(zero, d, i, bound) == girth
        everything = list(ranked)
        stopped = []  # what each budget that stops the search ranked
        while True:
            ranked.clear()
            try:
                found = min_kernel_support(zero, d, i, bound, budget=len(stopped))
            except BudgetExceededError:
                stopped.append(list(ranked))
                continue
            break
        needed = len(stopped)  # the sets the search reaches
        assert found == girth and ranked == everything and needed > len(everything)
        assert len(set(everything)) == len(everything)  # no set reached twice
        for budget, prefix in enumerate(stopped):
            assert prefix == everything[:len(prefix)] and len(prefix) <= budget
        counts[d, i] = [len(prefix) for prefix in stopped] + [len(everything)]
        assert all(0 <= b - a <= 1 for a, b in zip(counts[d, i], counts[d, i][1:]))
    # x1, x2, x3 on the one column of degree 0: the search reaches {x1},
    # then a pair with x1, a stopping set that is dependent, then {x2} and
    # {x3}; a budget of 1 stops before the pair is ranked
    assert counts[1, 1] == [0, 0, 1, 1, 1]
    assert counts[5, 2][-1] == 20


def test_rank_duality_on_brenner_kaid():
    bk = MonomialIdeal(3, [(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)])
    for i in (1, 2, 3):
        for j in range(0, 5 - i):
            primal = rank(mult_map_matrix(bk, None, i, j))
            dualr = rank(contraction_matrix(bk, i, j + i))
            assert primal == dualr


def test_dual_element_str_round_trip():
    from lefschetz_props.parsing import parse_dual_element

    f = kernel_witness(3, 4, 2)
    n, terms = parse_dual_element(str(f), 3)
    assert n == 3
    assert DualElement.from_terms(n, terms).support == f.support
