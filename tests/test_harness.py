"""Enumeration, symmetry reduction, and campaign behavior."""

import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from functools import lru_cache
from itertools import permutations
from pathlib import Path

import pytest

from lefschetz_props.classify import forces_slp, forces_wlp, is_o_sequence
from lefschetz_props.combinatorics import monomial_basis
from lefschetz_props.errors import BudgetExceededError
from lefschetz_props.harness import (
    SearchSpec,
    crosscheck_lemmas,
    enumerate_equigenerated,
    ideal_from_mask,
    iter_support_masks,
    named_examples,
    theorem1_bound,
    theorem2_bound,
    verify_thm1,
    verify_thm2,
    verify_thm37,
    wiebe_initial_ideal_check,
)
from lefschetz_props._ranks_py import rank_gf2_bits
from lefschetz_props.ideals import (
    MonomialIdeal,
    hilbert_function,
    socle_degree,
    support_quotient,
)
from lefschetz_props.lefschetz import (
    _lemma_pair,
    _support_rows,
    check_power_shortcut,
    check_slp,
    check_slp_shortcut,
    check_wlp,
)
from lefschetz_props.parsing import parse_inline_ideal
from lefschetz_props.reporting import VerificationReport


def test_theorem_bounds():
    assert theorem1_bound(3, 3) == 6
    assert theorem1_bound(3, 4) == 10
    assert theorem1_bound(3, 5) == 12
    assert theorem1_bound(4, 2) == 4
    assert theorem1_bound(4, 3) == 6
    assert theorem2_bound(2) == 4
    assert theorem2_bound(5) == 3


def test_enumeration_counts():
    assert len(list(enumerate_equigenerated(SearchSpec(3, 2, 0, 3, symmetry=False)))) == 8
    assert len(list(enumerate_equigenerated(SearchSpec(3, 3, 3, 3, symmetry=False)))) == 35
    assert len(list(enumerate_equigenerated(SearchSpec(3, 3, 0, 0)))) == 1
    full33 = list(enumerate_equigenerated(SearchSpec(3, 3, 0, 7, symmetry=False)))
    assert len(full33) == 128
    assert len(set(i.generators for i in full33)) == 128


def test_enumeration_is_artinian_equigenerated_with_right_hf():
    from lefschetz_props.ideals import is_artinian

    for I in enumerate_equigenerated(SearchSpec(3, 3, 2, 4, symmetry=False)):
        assert is_artinian(I)
        assert I.is_equigenerated() and I.min_degree == 3
        assert 2 <= I.hf(3) <= 4


def test_symmetry_orbit_counts():
    # canonical representatives expand back to the full mask count, each
    # image read from its own lane of the packed tables
    from lefschetz_props.harness import _symmetry_tables

    per_byte, ones, guards = _symmetry_tables(3, 3)
    full = 127  # 7 mixed monomials: one byte, lanes of 8 bits
    assert len(per_byte) == 1
    # every permutation of three variables but the identity, one lane each
    assert ones == sum(1 << 8 * k for k in range(5)) and guards == ones << 7
    canonical = list(iter_support_masks(SearchSpec(3, 3, 0, 7, symmetry=True)))
    seen = set()
    for mask in canonical:
        seen.add(mask)
        images = per_byte[0][mask]
        assert images & guards == 0
        seen.update(images >> 8 * k & full for k in range(5))
    assert len(seen) == 128


def test_import_builds_no_campaign_table():
    # the symmetry tables and the decide lookups are built on first use, so
    # importing the package, which every lefprop invocation does, pays for
    # none of them
    import lefschetz_props

    src = Path(lefschetz_props.__file__).resolve().parent.parent
    code = (
        "import lefschetz_props.cli\n"
        "from lefschetz_props import harness\n"
        "print(harness._symmetry_tables.cache_info().currsize,"
        " harness._mask_decider.cache_info().currsize)"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["0", "0"]


def _permutation_maps(n, d):
    """The image position of every mixed monomial under each permutation of
    the variables, from the exponent vectors themselves (independent of the
    symmetry tables)."""
    mixed = [m for m in monomial_basis(n, d) if sum(1 for e in m if e) > 1]
    pos = {m: p for p, m in enumerate(mixed)}
    return [[pos[tuple(m[s] for s in sigma)] for m in mixed]
            for sigma in permutations(range(n))]


def _moving_permutations(n, d):
    return [t for t in _permutation_maps(n, d) if t != sorted(t)]


def _image(mask, t):
    return sum(1 << t[b] for b in range(len(t)) if mask >> b & 1)


def _brute_canonical(mask, images):
    """``_is_canonical`` from the mask's images, one per moving permutation:
    whether no image is smaller."""
    return min(images) >= mask


@pytest.mark.parametrize("n, d", [(3, 3), (3, 4), (4, 3)])
def test_packed_canonicity_matches_every_image_on_every_mask(n, d):
    # the one-pass test against each permutation's image built bit by bit
    # (each mask's from the mask without its lowest bit): the same verdict,
    # a bool
    from lefschetz_props.harness import _is_canonical, _symmetry_tables

    maps = _moving_permutations(n, d)
    m = len(maps[0])
    tables = _symmetry_tables(n, d)
    assert tables.ones.bit_count() == len(maps)
    images = [[0] * (1 << m) for _ in maps]
    for image, t in zip(images, maps):
        for mask in range(1, 1 << m):
            image[mask] = image[mask & mask - 1] | 1 << t[(mask & -mask).bit_length() - 1]
    accepted = 0
    for mask in range(1 << m):
        got = _is_canonical(mask, tables)
        assert got is _brute_canonical(mask, [image[mask] for image in images]), mask
        accepted += got
    assert 0 < accepted < 1 << m


@pytest.mark.parametrize("n, d, sample", [(3, 5, 1500), (4, 4, 1500), (5, 3, 300)])
def test_packed_canonicity_matches_every_image_on_a_sample(n, d, sample):
    # as above on seeded masks of uneven popcount, and on the orbit minimum
    # of each, so that about half the masks tested are accepted
    from lefschetz_props.harness import _is_canonical, _symmetry_tables

    maps = _moving_permutations(n, d)
    m = len(maps[0])
    tables = _symmetry_tables(n, d)
    assert tables.ones.bit_count() == len(maps)
    rng = random.Random(n * 10 + d)
    accepted = 0
    for _ in range(sample):
        mask = rng.getrandbits(m) >> rng.randrange(m)
        for x in (mask, min(mask, *(_image(mask, t) for t in maps))):
            got = _is_canonical(x, tables)
            assert got is _brute_canonical(x, [_image(x, t) for t in maps]), x
            accepted += got
    assert sample <= accepted < 2 * sample


def _orbit(mask, maps):
    """The images of a mask under every permutation map, itself among them."""
    bits = [p for p in range(len(maps[0])) if (mask >> p) & 1]
    return {sum(1 << image[p] for p in bits) for image in maps}


@lru_cache(maxsize=None)
def orbit_extremes(n, d):
    """The largest mask of every orbit under permuting the variables, mapped
    to its smallest, from the exponent vectors themselves (independent of
    the symmetry tables)."""
    maps = _permutation_maps(n, d)
    m = len(maps[0])
    extremes, seen = {}, set()
    for mask in range(1 << m):
        if mask in seen:
            continue
        orbit = _orbit(mask, maps)
        seen |= orbit
        extremes[max(orbit)] = min(orbit)
    return m, extremes


def _check(n, d, key="wlp", i=None):
    """The campaign check of a key, with the power of a power shortcut."""
    from lefschetz_props import harness

    return harness._mask_decider(n, d, key, i)


def _scan_masks(spec, check):
    """(mask, certified) for each mask of the window in the order a
    campaign scan decides them (preorder of the orderly walk from popcount
    0), certified by the check's critical map."""
    from lefschetz_props import harness

    for x in harness._scan_order(spec, check):
        yield x >> 1, x & 1 == 1


@pytest.mark.parametrize(
    "n, d, lo, hi",
    [(3, 3, 0, 7), (3, 4, 2, 9), (4, 2, 1, 6), (3, 5, 17, 18), (4, 3, 0, 16),
     (3, 5, 0, 11)],
)
@pytest.mark.parametrize("symmetry", [False, True])
def test_support_masks_match_brute_force_filter(n, d, lo, hi, symmetry):
    m, extremes = orbit_extremes(n, d)

    def window(representatives):
        return sorted(
            (mask for mask in range(1 << m)
             if lo <= mask.bit_count() <= hi and (not symmetry or mask in representatives)),
            key=lambda mask: (mask.bit_count(), mask),
        )

    expected = window(set(extremes.values()))
    spec = SearchSpec(n, d, lo, hi, symmetry)
    assert list(iter_support_masks(spec)) == expected
    # a scan decides every orbit once: from popcount 0 as its largest mask,
    # in preorder; from higher as the stream does
    scanned = [mask for mask, _ in _scan_masks(spec, _check(n, d))]
    if lo:
        assert scanned == expected
    else:
        assert sorted(scanned, key=lambda mask: (mask.bit_count(), mask)) == window(extremes)


@pytest.mark.parametrize("n, d, hi", [(3, 5, 11), (4, 4, 5), (5, 3, 4)])
def test_orderly_walk_matches_the_gosper_stream(monkeypatch, n, d, hi):
    # the orderly walk from the empty mask and the Gosper stream give the
    # same orbits, each once: the walk its largest masks in preorder
    # (popcount at most one up from one mask to the next), the stream its
    # smallest by popcount, then ascending; the walk makes fewer canonicity
    # tests
    from lefschetz_props import harness

    tests = []
    original = harness._is_canonical

    def counting(mask, tables):
        tests.append(mask)
        return original(mask, tables)

    monkeypatch.setattr(harness, "_is_canonical", counting)
    spec = SearchSpec(n, d, 0, hi)
    m, tables = harness._window_tables(spec)
    rows = _support_rows(n, d, 1)[0]
    walked = [x >> 1 for x in harness._orderly_walk(m, hi, tables, rows)]
    walk_tests = len(tests)
    gosper = list(iter_support_masks(spec))
    maps = _permutation_maps(n, d)
    orbits = [_orbit(mask, maps) for mask in walked]
    assert all(mask == max(orbit) for mask, orbit in zip(walked, orbits))
    minima = [min(orbit) for orbit in orbits]
    assert sorted(minima, key=lambda mask: (mask.bit_count(), mask)) == gosper
    sizes = [mask.bit_count() for mask in walked]
    assert all(b <= a + 1 for a, b in zip(sizes, sizes[1:]))
    assert 0 < walk_tests < len(tests) - walk_tests


def test_below_bound_scan_holds_one_path():
    # the (3, 5) below-bound scan walks its 38,918 orbits depth first and
    # holds only the path it is on, so its allocations peak under 128 KiB
    # (a scan that held whole popcount levels peaked near 900 KiB)
    import tracemalloc

    from lefschetz_props import harness

    spec = SearchSpec(3, 5, 0, theorem1_bound(3, 5) - 1)
    check = _check(3, 5)
    harness._scan_expected_pass(  # cached tables
        VerificationReport("thm1", {}, False), replace(spec, budget_ideals=1), check
    )
    report = VerificationReport("thm1", {}, False)
    tracemalloc.start()
    try:
        harness._scan_expected_pass(report, spec, check)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.examined == 38918 and not report.failures and not report.partial
    assert peak < 128 * 1024, peak


def test_spec_validation():
    with pytest.raises(ValueError):
        SearchSpec(2, 3, 0, 1)
    with pytest.raises(ValueError):
        SearchSpec(3, 1, 0, 1)
    with pytest.raises(ValueError):
        SearchSpec(3, 3, 0, 8)  # max HF is 7
    with pytest.raises(ValueError):
        SearchSpec(3, 3, 0, 7, threads=0)
    with pytest.raises(ValueError):
        SearchSpec(3, 3, 0, 7, budget_ideals=-1)
    with pytest.raises(ValueError):
        SearchSpec(3, 3, 0, 7, budget_entries=-1)


def test_enumeration_budget():
    spec = SearchSpec(3, 3, 0, 7, symmetry=False, budget_ideals=10)
    with pytest.raises(BudgetExceededError):
        list(enumerate_equigenerated(spec))


def test_campaign_budget_yields_flagged_partial_report():
    r = verify_thm1(3, 3, budget_ideals=5)
    assert r.partial and not r.confirmed
    r = verify_thm1(3, 3, budget_entries=10)
    assert r.partial and not r.confirmed


def test_entry_budget_bounds_the_ideals_built(monkeypatch):
    # a passing mask builds no ideal, so the decides are counted: a scan
    # stopped by either budget decides exactly the masks it examined
    from lefschetz_props import harness

    decided = []
    decide = harness._decide_mask

    def counting(check, mask, certified):
        decided.append(mask)
        return decide(check, mask, certified)

    monkeypatch.setattr(harness, "_decide_mask", counting)
    for budgets in ({"budget_entries": 10}, {"budget_entries": 10**5}, {"budget_ideals": 100}):
        decided[:] = []
        r = verify_thm1(3, 4, **budgets)
        assert r.partial and len(decided) == r.examined > 0, budgets
    assert r.examined == 100


def test_ideal_budget_bounds_the_enumeration(monkeypatch):
    from lefschetz_props import harness

    # every canonicity test of the orderly walk from popcount 0, which is
    # lazy: it tests only the children of the masks the scan has reached
    calls = []
    original = harness._is_canonical

    def counting(mask, tables):
        calls.append(mask)
        return original(mask, tables)

    monkeypatch.setattr(harness, "_is_canonical", counting)
    r = verify_thm1(3, 5, budget_ideals=5)
    assert r.partial and r.examined == 5
    assert 0 < len(calls) < 500  # not the 2^18 masks of the mixed space


def test_budgets_cover_the_witness_search():
    # verify_thm1(3, 5) sweeps 38,918 orbits at a matrix entry cost of
    # 15,188,379 and finds its witness on the fifth mask of the search at
    # the bound; the search gets only what the sweep left of each budget
    full = verify_thm1(3, 5)
    cost = full.details["matrix_entry_cost"]
    assert full.confirmed and full.examined == 38923 and cost == 15_188_379
    assert verify_thm1(3, 5, budget_ideals=38923).to_dict(False) == full.to_dict(False)
    for budgets, examined in (
        ({"budget_ideals": 38918}, 38918),
        ({"budget_ideals": 38920}, 38920),
        ({"budget_entries": cost}, 38919),
    ):
        r = verify_thm1(3, 5, **budgets)
        assert r.partial and not r.confirmed and not r.witnesses, budgets
        assert r.examined == examined and r.details["matrix_entry_cost"] == cost, budgets


def test_partial_report_independent_of_threads():
    reports = [
        verify_thm1(3, 4, threads=t, budget_entries=10).to_dict(include_timing=False)
        for t in (1, 2)
    ]
    for rep in reports:
        del rep["params"]["threads"]
    assert reports[0]["partial"] and reports[0] == reports[1]


def test_verify_thm1_small():
    r = verify_thm1(3, 3)
    assert r.confirmed and r.expected_bound == 6 and r.min_failing_hf == 6
    assert not r.failures and r.witnesses
    r = verify_thm1(4, 2)
    assert r.confirmed and r.expected_bound == 4


def test_verify_thm1_symmetry_soundness():
    for n, d in [(3, 3), (4, 2)]:
        with_sym = verify_thm1(n, d, symmetry=True)
        without = verify_thm1(n, d, symmetry=False)
        assert with_sym.confirmed == without.confirmed
        assert with_sym.min_failing_hf == without.min_failing_hf
        assert with_sym.expected_bound == without.expected_bound
        assert with_sym.examined <= without.examined


def test_verify_thm1_vacuous_case():
    # (3, 2): the bound exceeds every attainable HF; sharpness is vacuous
    r = verify_thm1(3, 2)
    assert r.confirmed
    assert not r.details["bound_attainable"]
    assert not r.witnesses


def test_verify_thm2_witnesses():
    r = verify_thm2(3, 3)
    assert r.confirmed
    w = r.witnesses[0]
    assert w["hf_d"] == 3 and w["achieves_bound"]
    assert "dual_element" in w
    r = verify_thm2(4, 2)
    assert r.confirmed and r.expected_bound == 4
    assert r.min_failing_hf == 4


def test_verify_thm2_power_remark_strict_for_i_one():
    # ell: R_{d-1} -> R_d fails to be onto exactly when the WLP fails, so the
    # bound of the power i = 1 is Theorem 1's, strictly above d+1, and sharp
    for n, d in ((3, 3), (3, 4)):
        r = verify_thm2(n, d, 1)
        assert r.confirmed
        assert r.expected_bound == theorem1_bound(n, d) > d + 1
        assert r.min_failing_hf == r.expected_bound


def _campaign_key(r):
    return (
        r.examined, r.partial, r.confirmed, r.min_failing_hf, r.expected_bound,
        [(w["generators"], w["hf_d"]) for w in r.witnesses],
    )


@pytest.mark.parametrize(
    "n, d, budget",
    [(3, 3, None), (3, 4, None), (3, 5, None), (4, 3, None), (4, 4, None), (5, 3, None),
     (3, 5, 20000)],
)
def test_power_one_campaign_walks_theorem1s_window(n, d, budget):
    # the power-1 campaign sweeps and searches the masks verify_thm1 does,
    # in the same order, and finds the same witness, also when an ideal
    # budget stops it partway
    budgets = {} if budget is None else {"budget_ideals": budget}
    power = verify_thm2(n, d, 1, **budgets)
    wlp = verify_thm1(n, d, **budgets)
    assert _campaign_key(power) == _campaign_key(wlp)
    assert power.partial == (budget is not None)


def test_a_sharp_bound_searches_its_witness_at_the_bound(monkeypatch):
    # every bound is sharp, so its witness is searched at HF b only: with
    # every popcount-b mask made to pass, the campaign has no witness and
    # does not confirm, though ideals of HF b+1 fail (the SLP bound 4 for
    # d = 2, and Theorem 1's bound for the power i = 1)
    from lefschetz_props import harness

    cases = [((5, 2), 4), ((3, 4, 1), theorem1_bound(3, 4))]
    for args, bound in cases:
        assert verify_thm2(*args).min_failing_hf == bound
    decide = harness._decide_mask
    passed = {}  # the popcount made to pass

    def passing(check, mask, certified):
        if mask.bit_count() == passed["bound"]:
            return check.source * passed["bound"]
        return decide(check, mask, certified)

    monkeypatch.setattr(harness, "_decide_mask", passing)
    for args, bound in cases:
        passed["bound"] = bound
        r = verify_thm2(*args)
        assert not r.confirmed and not r.partial and not r.failures and not r.witnesses
        assert r.min_failing_hf is None


@pytest.mark.parametrize("n, d", [(4, 2), (3, 3), (3, 4), (3, 5), (4, 3), (4, 4), (5, 3)])
def test_each_bound_follows_from_the_critical_power(n, d):
    # the bound is d-i+2 for a critical power i >= 2 and Theorem 1's for
    # i = 1, and only a constructed witness carries its dual element; the
    # SLP's critical power is d-1, so its bound is Theorem 2's
    for i in (None, *range(1, d)):
        power = d - 1 if i is None else i
        r = verify_thm2(n, d, i)
        assert r.confirmed and r.witnesses
        assert r.expected_bound == (theorem1_bound(n, d) if power == 1 else d - power + 2)
        if i is None:
            assert r.expected_bound == theorem2_bound(d)
        assert all(("dual_element" in w) == (power >= 2) for w in r.witnesses)


def test_verify_thm2_vacuous_cases():
    # (3, 2): the SLP bound and the power-1 bound, both 4, exceed the
    # attainable maximum 3, so no failure exists at all and sharpness is
    # vacuous
    for r in (verify_thm2(3, 2), verify_thm2(3, 2, 1)):
        assert r.confirmed and not r.details["bound_attainable"] and not r.witnesses
        assert r.expected_bound == 4 and r.min_failing_hf is None


def test_a_failure_below_the_bound_sets_the_minimal_failing_hf(monkeypatch):
    # one HF-2 mask (the largest of mask 3's orbit, which the sweep walks)
    # is sent to the full check, which is made to fail it; the failure is
    # recorded under that mask
    from lefschetz_props import harness

    decide, run_check = harness._decide_mask, harness._run_check
    failing = {}  # mask -> ideal

    def decide_mask(check, mask, certified):
        return None if mask in failing else decide(check, mask, certified)

    def fail_it(I, check):
        rep = run_check(I, check)
        if I in failing.values():
            rep.verdict = False
        return rep

    monkeypatch.setattr(harness, "_decide_mask", decide_mask)
    monkeypatch.setattr(harness, "_run_check", fail_it)
    for campaign, args in ((verify_thm1, (3, 4)), (verify_thm2, (3, 5, 3))):
        top = max(_orbit(3, _permutation_maps(3, args[1])))
        failing.clear()
        failing[top] = ideal_from_mask(3, args[1], top)
        r = campaign(*args)
        assert [w["hf_d"] for w in r.failures] == [2]
        assert r.failures[0]["generators"] == failing[top].generator_strings()
        assert r.min_failing_hf == 2 and not r.confirmed


def test_verify_thm2_power_sharp_for_i_two():
    r = verify_thm2(3, 4, 2)
    assert r.confirmed and r.expected_bound == 4
    assert r.witnesses[0]["achieves_bound"]


def test_verify_thm37_small():
    r = verify_thm37(3, 3, 2)
    assert r.confirmed and r.details["min_support"] == 3
    assert r.details["witness_killed"]
    with pytest.raises(ValueError):
        verify_thm37(3, 3, 3)


@pytest.mark.parametrize("n, d, i", [(3, 5, 1), (3, 7, 1), (4, 4, 2), (3, 6, 3)])
def test_verify_thm37_examined_is_the_budget_its_search_used(n, d, i):
    # examined counts the row sets the search reached, the unit its budget
    # counts: that budget gives the same report, one less stops the search
    full = verify_thm37(n, d, i)
    assert full.confirmed and full.examined > 0
    exact = verify_thm37(n, d, i, budget=full.examined)
    expected = full.to_dict(include_timing=False)
    got = exact.to_dict(include_timing=False)
    assert got["params"].pop("budget") == full.examined
    del expected["params"]["budget"]
    assert got == expected
    with pytest.raises(BudgetExceededError):
        verify_thm37(n, d, i, budget=full.examined - 1)


def test_verify_thm37_validates_before_searching(monkeypatch):
    # fewer than three variables (the witness needs three) and a negative
    # budget are refused before the support search builds its rows
    from lefschetz_props import harness

    def search(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr(harness, "_build_monomial_rows", search)
    for n, d, budget in ((2, 40, 10**7), (1, 3, 10**7), (3, 3, -5)):
        with pytest.raises(ValueError):
            verify_thm37(n, d, 1, budget=budget)


def test_verify_thm37_streams_from_six_variables(monkeypatch):
    # the search builds no symmetry tables (n! - 1 lanes: at (8, 3) they
    # would take gigabytes); each search answers in a fraction of a second
    from lefschetz_props import harness

    def tables(*args):
        raise AssertionError("symmetry tables built")

    monkeypatch.setattr(harness, "_symmetry_tables", tables)
    for n, d, i in ((6, 3, 1), (7, 3, 2), (8, 3, 2)):
        r = verify_thm37(n, d, i)
        assert r.confirmed and r.details["min_support"] == d - i + 2
        assert r.elapsed_seconds < 10

def test_crosscheck_full_small_grids():
    r = crosscheck_lemmas(3, 2)
    assert r.confirmed and r.examined == 8
    assert r.details["agreements"] == r.details["comparisons"]


def test_crosscheck_refuses_degrees_below_two(monkeypatch):
    # no shortcut gate holds below d = 2: refused before any mask is built
    from lefschetz_props import harness

    def no_mask(*args):
        raise AssertionError("a mask was built")

    monkeypatch.setattr(harness, "ideal_from_mask", no_mask)
    for d in (0, 1):
        with pytest.raises(ValueError, match="need d >= 2"):
            crosscheck_lemmas(3, d)
        with pytest.raises(ValueError, match="need d >= 2"):
            crosscheck_lemmas(3, d, sample=4)


def test_crosscheck_sampling_deterministic():
    a = crosscheck_lemmas(3, 4, sample=20, seed=5)
    b = crosscheck_lemmas(3, 4, sample=20, seed=5)
    assert a.confirmed and b.confirmed
    assert a.details == b.details


def test_crosscheck_all_masks_refused_over_budget():
    # (4, 4) has 2^31 masks: refused before any is enumerated
    with pytest.raises(BudgetExceededError):
        crosscheck_lemmas(4, 4)
    with pytest.raises(BudgetExceededError):
        crosscheck_lemmas(4, 4, sample=1 << 31)


def test_crosscheck_sample_refused_over_budget(monkeypatch):
    # an explicit sample larger than the ideal budget is refused before any
    # mask is drawn; a sample within it still runs whole
    from lefschetz_props import harness

    monkeypatch.setattr(harness, "DEFAULT_BUDGET_IDEALS", 10)
    draws = []
    sample = random.Random.sample

    def counted_sample(rng, *args):
        draws.append(args)
        return sample(rng, *args)

    monkeypatch.setattr(random.Random, "sample", counted_sample)
    with pytest.raises(BudgetExceededError):
        crosscheck_lemmas(3, 3, sample=11)
    assert draws == []
    assert crosscheck_lemmas(3, 3, sample=10).examined == 10


def test_crosscheck_refuses_an_empty_sample(monkeypatch):
    # a sample below one would confirm the lemmas on no ideal at all; it is
    # refused before any mask is drawn
    draws = []
    sample = random.Random.sample

    def counted_sample(rng, *args):
        draws.append(args)
        return sample(rng, *args)

    monkeypatch.setattr(random.Random, "sample", counted_sample)
    for bad in (0, -1, -5000):
        with pytest.raises(ValueError, match="at least 1"):
            crosscheck_lemmas(3, 3, sample=bad)
    assert draws == []
    assert crosscheck_lemmas(3, 3, sample=1).examined == 1


def _crosscheck_twin(n, d, sample=None, seed=1):
    """Crosscheck that calls every shortcut and counts a fallback wherever
    its report says so, with the same mask draw and report layout."""
    total = 1 << (len(monomial_basis(n, d)) - n)
    if sample is None:
        masks = range(total)
    else:
        masks = sorted(random.Random(seed).sample(range(total), sample))
    report = VerificationReport(
        "crosscheck-lemmas", {"n": n, "d": d, "sample": sample, "seed": seed}, False
    )
    counts = {"comparisons": 0, "agreements": 0, "fallbacks": 0}
    for mask in masks:
        I = ideal_from_mask(n, d, mask)
        full = check_slp(I, "exact")
        checks = [("slp", check_slp_shortcut(I), full.verdict)]
        for power in range(1, d):
            expected = all(p.maximal for p in full.pairs if p.i == power)
            checks.append((f"power-{power}", check_power_shortcut(I, power), expected))
        for check, short, expected in checks:
            if short.fallback:
                counts["fallbacks"] += 1
                continue
            counts["comparisons"] += 1
            if short.verdict == expected:
                counts["agreements"] += 1
            else:
                report.failures.append(
                    {"mask": mask, "check": check, "full": expected,
                     "shortcut": short.verdict,
                     "generators": I.generator_strings()}
                )
    report.examined = len(masks)
    report.confirmed = not report.failures
    report.details = counts
    return report.to_dict(include_timing=False)


@pytest.mark.parametrize("n, d, sample, seed", [
    (3, 2, None, 1), (3, 3, None, 1), (4, 2, None, 1),
    (3, 4, 300, 7), (4, 3, 120, 33),
])
def test_crosscheck_matches_the_call_every_shortcut_twin(n, d, sample, seed):
    got = crosscheck_lemmas(n, d, sample, seed).to_dict(include_timing=False)
    assert got == _crosscheck_twin(n, d, sample, seed)
    assert got["details"]["comparisons"] > 0


def test_crosscheck_calls_shortcuts_only_inside_the_gate(monkeypatch):
    from lefschetz_props import harness

    calls = []

    def spy(decider, power_of):
        def wrapped(I, *args):
            power = power_of(args)
            calls.append(power)
            assert _lemma_pair(I, power) is not None, (I.generator_strings(), power)
            return decider(I, *args)
        return wrapped

    monkeypatch.setattr(harness, "check_slp_shortcut",
                        spy(check_slp_shortcut, lambda args: None))
    monkeypatch.setattr(harness, "check_power_shortcut",
                        spy(check_power_shortcut, lambda args: args[0]))
    report = crosscheck_lemmas(3, 4, 256, 3)
    assert report.confirmed
    assert len(calls) == report.details["comparisons"]
    assert report.details["fallbacks"] > 0
    assert set(calls) == {None, 1, 2, 3}


ALL_KEYS_3_4 = [("wlp", {}), ("slp_shortcut", {})] + [
    ("power_shortcut", {"i": i}) for i in (1, 2, 3)
]


def _masks(n, d, sample=None, seed=1):
    total = 1 << (len(monomial_basis(n, d)) - n)
    if sample is None:
        return range(total)
    return random.Random(seed).sample(range(total), sample)


@pytest.mark.parametrize("n, d, sample, keys", [
    (3, 4, None, ALL_KEYS_3_4),
    (4, 3, None, [("wlp", {})]),
    (3, 5, 2000, [("wlp", {}), ("power_shortcut", {"i": 2})]),
    (4, 4, 2000, [("wlp", {}), ("power_shortcut", {"i": 1})]),
    (5, 3, 2000, [("wlp", {}), ("power_shortcut", {"i": 1})]),
])
def test_critical_map_decide_matches_the_full_check(n, d, sample, keys):
    # the campaign worker's verdict-only decide against the full check and
    # its reported cost; outside the gate the decide must defer to it
    from lefschetz_props import harness

    for key, args in keys:
        power = {"wlp": 1, "slp_shortcut": None}.get(key, args.get("i"))
        check = _check(n, d, key, args.get("i"))
        decided = 0
        for mask in _masks(n, d, sample, seed=n * 10 + d):
            cost = harness._decide_mask(check, mask, False)
            I = ideal_from_mask(n, d, mask)
            if _lemma_pair(I, power) is None:
                assert cost is None, (n, d, mask, key, args)
                continue
            rep = harness._run_check(I, check)
            assert (cost is not None) == rep.verdict, (n, d, mask, key, args)
            if cost is not None:
                decided += 1
                assert cost == harness._report_cost(rep), (n, d, mask, key, args)
        assert decided > 0, (n, d, key, args)


def _key_window(n, d, key, args):
    """The check of a key, the critical map's power and packed rows, and
    every orbit minimum with the orderly walk's certificate."""
    i = {"wlp": 1, "slp_shortcut": d - 1}.get(key, args.get("i"))
    check = _check(n, d, key, args.get("i"))
    assert check.power == i and check.packed == _support_rows(n, d, i)[0]
    top = len(monomial_basis(n, d)) - n
    return check, i, check.packed, _scan_masks(SearchSpec(n, d, 0, top), check)


KEYS_BY_CASE = [
    (n, d, key, args)
    for n, d in ((3, 3), (3, 4), (4, 3))
    for key, args in [("wlp", {}), ("slp_shortcut", {})]
    + [("power_shortcut", {"i": i}) for i in range(1, d)]
]


@pytest.mark.parametrize("n, d, key, args", KEYS_BY_CASE)
def test_certified_masks_pass_the_full_check_at_their_fast_cost(n, d, key, args):
    # every orbit minimum of the whole mask space, which holds each key's
    # below-bound window: the walk certifies exactly the masks whose rows
    # are independent mod 2, a certified mask passes the full check, and
    # the decide's cost, certified or not, is that full report's cost
    from lefschetz_props import harness

    check, i, packed, window = _key_window(n, d, key, args)
    certified_count = 0
    for mask, certified in window:
        picked = [packed[p] for p in range(len(packed)) if mask >> p & 1]
        assert certified == (rank_gf2_bits(picked) == len(picked)), mask
        certified_count += certified
        cost = harness._decide_mask(check, mask, certified)
        I = ideal_from_mask(n, d, mask)
        if _lemma_pair(I, None if key == "slp_shortcut" else i) is None:
            assert cost is None and not certified, mask
            continue
        rep = harness._run_check(I, check)
        assert rep.verdict or not certified, mask
        assert (cost is not None) == rep.verdict, mask
        if cost is not None:
            assert cost == harness._report_cost(rep), mask
    assert certified_count > 0


def test_fast_wlp_cost_matches_the_quotient_on_every_3_5_mask():
    from lefschetz_props import harness

    below = SearchSpec(3, 5, 0, theorem1_bound(3, 5) - 1)
    check = _check(3, 5)
    pairs = list(_scan_masks(below, check))
    assert len(pairs) == 38918
    for mask, certified in pairs:
        _, hfs = support_quotient(3, 5, mask)
        expected = sum(a * b for a, b in zip(hfs, hfs[1:]))
        assert harness._decide_mask(check, mask, certified) == expected, mask


def test_a_certified_mask_never_ranks_its_rows(monkeypatch):
    from lefschetz_props import harness

    certified_masks, ranked = [], []
    decide, independent = harness._decide_mask, harness._mask_rows_independent

    def decide_mask(check, mask, certified):
        if certified:
            certified_masks.append(mask)
        return decide(check, mask, certified)

    def rows_independent(packed, rows, mask, ncols):
        ranked.append(mask)
        return independent(packed, rows, mask, ncols)

    monkeypatch.setattr(harness, "_decide_mask", decide_mask)
    monkeypatch.setattr(harness, "_mask_rows_independent", rows_independent)
    for campaign in (lambda: verify_thm1(4, 3), lambda: verify_thm2(4, 3, 2)):
        certified_masks[:], ranked[:] = [], []
        assert campaign().confirmed
        assert certified_masks and ranked
        assert not set(certified_masks) & set(ranked)


def test_named_examples_suite():
    r = named_examples()
    assert r.confirmed
    cases = {c["case"]: c for c in r.details["cases"]}
    assert cases["brenner-kaid-3"]["verdict"] is False
    assert cases["mmn-4"]["verdict"] is False
    assert cases["ci-4-4"]["verdict"] is True
    assert cases["all-3-2"]["count"] == 8


def test_monotonicity_adding_generator_never_raises_hf():
    rng = random.Random(77)
    from lefschetz_props.combinatorics import monomial_basis

    basis = monomial_basis(3, 4)
    for _ in range(25):
        gens = rng.sample(basis, rng.randint(1, len(basis) - 1))
        I = MonomialIdeal(3, gens)
        extra = rng.choice([m for m in basis if m not in gens])
        J = MonomialIdeal(3, gens + [extra])
        assert J.hf(4) <= I.hf(4)


def test_witness_replay():
    r = verify_thm1(3, 3)
    w = r.witnesses[0]
    I = parse_inline_ideal(",".join(w["generators"]), w["n"])
    rep = check_wlp(I)
    assert rep.verdict is False
    recorded = w["report"]["pairs"]
    replayed = [p.to_dict() for p in rep.pairs]
    # the stored scan stopped at the witness; replaying reproduces its prefix
    assert replayed[: len(recorded)] == recorded
    assert w["report"]["witness"] == {
        "i": rep.witness[0], "j": rep.witness[1],
    }


def test_classifier_one_directional_soundness():
    # whenever the classifier says "forces", every enumerated monomial
    # algebra with that Hilbert function must have the property.  The (3,4)
    # and (4,3) grids are whole up to symmetry (both properties and the
    # Hilbert function are permutation-invariant); each grid's count of
    # ideals failing the WLP / SLP shows the oracles meet failures
    grids = [
        (SearchSpec(3, 2, 0, 3, symmetry=False), 8, 0, 0),
        (SearchSpec(3, 3, 0, 7, symmetry=False), 128, 1, 7),
        (SearchSpec(3, 4, 0, 12), 752, 2, 69),
        (SearchSpec(4, 3, 0, 16), 3044, 357, 645),
    ]
    for spec, count, wlp_fails, slp_fails in grids:
        by_hf = {}
        for I in enumerate_equigenerated(spec):
            e = socle_degree(I)
            H = hilbert_function(I, e) if e >= 0 else (1,)
            by_hf.setdefault(H, []).append(I)
        assert sum(map(len, by_hf.values())) == count
        failing = [0, 0]
        for H, ideals in by_hf.items():
            assert is_o_sequence(H), H
            for k, (check, forces) in enumerate(((check_wlp, forces_wlp),
                                                 (check_slp, forces_slp))):
                fails = sum(not check(I, early_stop=True).verdict for I in ideals)
                failing[k] += fails
                assert not (fails and forces(H)), (spec.n, spec.d, H)
        assert failing == [wlp_fails, slp_fails], (spec.n, spec.d)


def _without_threads(report) -> dict:
    rep = report.to_dict(include_timing=False)
    del rep["params"]["threads"]
    return rep


@pytest.fixture
def no_fork(monkeypatch):
    # every campaign runs in one process: a fork fails the test
    def refuse():
        raise AssertionError("a campaign forked")

    monkeypatch.setattr(os, "fork", refuse)


@pytest.mark.parametrize("campaign, args, kwargs", [
    (verify_thm1, (3, 3), {}),
    (verify_thm1, (3, 4), {}),
    (verify_thm1, (4, 3), {}),
    (verify_thm1, (3, 5), {}),
    (verify_thm1, (3, 4), {"symmetry": False}),
    (verify_thm1, (3, 4), {"symmetry": False, "budget_entries": 50000}),
    (verify_thm2, (4, 4), {}),
    (verify_thm2, (4, 4, 2), {}),
    (verify_thm2, (4, 4, 2), {"budget_entries": 5000}),
    (verify_thm2, (3, 5, 2), {}),
    (verify_thm1, (5, 3), {}),
    (verify_thm1, (3, 5), {"budget_ideals": 20000}),
    (verify_thm1, (3, 5), {"budget_entries": 10**6}),
    (verify_thm1, (3, 5), {"symmetry": False, "budget_entries": 50000}),
])
def test_split_scan_reports_match_serial(no_fork, campaign, args, kwargs):
    # threads is only validated and echoed in params: the reports for 2 and
    # 3 threads equal the one-thread report, partial ones too
    serial = _without_threads(campaign(*args, threads=1, **kwargs))
    assert serial["partial"] == any("budget" in key for key in kwargs)
    for threads in (2, 3):
        report = campaign(*args, threads=threads, **kwargs)
        assert report.params["threads"] == threads
        assert _without_threads(report) == serial, threads


# Runs a campaign with threads=2 and prints whether it imported multiprocessing.
_THREADS_START_NO_PROCESS = """
import sys
from lefschetz_props.harness import verify_thm1

assert verify_thm1(3, 5, threads=2).confirmed
assert verify_thm1(3, 5, threads=2, budget_entries=10**6).partial
print("multiprocessing" in sys.modules)
"""


def test_split_scan_leaves_no_process(no_fork):
    # a finished scan and one stopped by a budget fork nothing, and a fresh
    # interpreter running them never imports multiprocessing
    assert verify_thm1(3, 4, threads=2).confirmed
    assert verify_thm1(3, 5, threads=2, budget_entries=10**6).partial
    import lefschetz_props

    src = Path(lefschetz_props.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", _THREADS_START_NO_PROCESS], env=env,
        capture_output=True, text=True, check=True,
    ).stdout
    assert out == "False\n"


@lru_cache(maxsize=None)
def _thm1_3_5_costs() -> tuple:
    """(popcount, matrix entry cost) of each mask of the (3, 5) WLP
    below-bound window, in scan order; every one of them passes."""
    from lefschetz_props import harness

    spec = SearchSpec(3, 5, 0, theorem1_bound(3, 5) - 1)
    check = _check(3, 5)
    return tuple(
        (mask.bit_count(), harness._decide_mask(check, mask, certified))
        for mask, certified in _scan_masks(spec, check)
    )


def test_scan_stops_on_the_mask_over_its_entry_budget(monkeypatch):
    # Going over the budget on a mask stops the scan right after it, with
    # no later mask decided: the fifth and sixth masks of (3, 5) in
    # preorder, of popcounts 4 and 5.
    from lefschetz_props import harness

    masks = _thm1_3_5_costs()
    assert [size for size, _ in masks[:6]] == [0, 1, 2, 3, 4, 5]
    decided = []
    decide = harness._decide_mask

    def counting(check, mask, certified):
        decided.append(mask)
        return decide(check, mask, certified)

    monkeypatch.setattr(harness, "_decide_mask", counting)
    for over in (5, 6):
        budget = sum(cost for _, cost in masks[:over]) - 1
        del decided[:]
        r = verify_thm1(3, 5, budget_entries=budget)
        assert r.partial and r.examined == len(decided) == over


def test_scan_reports_every_failure_in_order():
    from lefschetz_props import harness

    check = _check(4, 3)
    order = [mask for mask, _ in _scan_masks(SearchSpec(4, 3, 0, 16), check)]
    mask_of = {tuple(ideal_from_mask(4, 3, mask).generator_strings()): mask for mask in order}

    def scan(**budgets):
        spec = SearchSpec(4, 3, 0, 16, **budgets)
        report = VerificationReport("thm1", {}, False)
        cost = harness._scan_expected_pass(report, spec, check)
        failures = [(mask_of[tuple(w["generators"])], w) for w in report.failures]
        return report.examined, cost, failures, report.partial

    def ordered(masks):
        return sorted(masks, key=lambda mask: (mask.bit_count(), mask))

    # The whole (4, 3) mask space, 357 failures in 3,044 masks; stopped by
    # an entry budget on its 513th mask; and stopped on a failing mask,
    # whose failure is reported.  Failures are listed by popcount, then
    # mask, whatever the scan order.
    whole = scan()
    assert whole[0] == len(order) == 3044 and len(whole[2]) == 357
    failed = {mask for mask, _ in whole[2]}
    assert [mask for mask, _ in whole[2]] == ordered(failed)
    stop = next(k for k, mask in enumerate(order) if k > 2 * 256 and mask in failed)
    runs = [
        ({}, len(order), False),
        ({"budget_entries": scan(budget_ideals=2 * 256 + 1)[1] - 1}, 2 * 256 + 1, True),
        ({"budget_entries": scan(budget_ideals=stop + 1)[1] - 1}, stop + 1, True),
    ]
    for budgets, examined, partial in runs:
        run = scan(**budgets)
        assert run[2] and run[0] == examined and run[3] == partial
        assert [mask for mask, _ in run[2]] == ordered(failed & set(order[:examined]))
    assert order[stop] in {mask for mask, _ in run[2]}


def test_first_failure_ends_the_scan_on_that_mask():
    below = sum(1 for _ in iter_support_masks(SearchSpec(3, 5, 0, 11)))
    at = iter_support_masks(SearchSpec(3, 5, 12, 12))
    witness = next(
        k for k, mask in enumerate(at, 1)
        if not check_wlp(ideal_from_mask(3, 5, mask), early_stop=True).verdict
    )
    assert verify_thm1(3, 5).examined == below + witness


def test_first_failure_window_tests_no_mask_past_its_witness(monkeypatch):
    # the at-bound window of verify_thm1(3, 5) streams popcount 12 lazily,
    # with threads=2 as without: it tests masks for canonicity in ascending
    # order and stops at its witness, not after the 18,564 masks of the level
    from lefschetz_props import harness

    tested, scans = [], []
    canonical, scan = harness._is_canonical, harness._scan_expected_pass

    def counting(mask, tables):
        tested.append(mask)
        return canonical(mask, tables)

    def recording(report, spec, check):
        start, examined = len(tested), report.examined
        cost = scan(report, spec, check)
        if spec.hf_min:
            scans.append((spec, tested[start:], report.examined - examined,
                          report.witnesses[:], report.partial))
        return cost

    monkeypatch.setattr(harness, "_is_canonical", counting)
    monkeypatch.setattr(harness, "_scan_expected_pass", recording)
    assert verify_thm1(3, 5, threads=2).confirmed
    [(at, window, examined, [record], partial)] = scans
    assert (at.hf_min, at.hf_max, at.threads) == (12, 12, 2) and not partial
    witness = next(
        mask for mask in window
        if ideal_from_mask(3, 5, mask).generator_strings() == record["generators"]
    )
    level = [mask for mask in range(1 << 18) if mask.bit_count() == 12]
    assert len(level) == 18564
    assert window == level[:len(window)]
    assert len(window) <= level.index(witness) + 2
    tables = harness._symmetry_tables(3, 5)
    assert examined == sum(
        canonical(mask, tables) for mask in level[:level.index(witness) + 1]
    )


def test_wiebe_small_sample():
    r = wiebe_initial_ideal_check(3, (2, 3), samples=8, seed=21)
    assert r.confirmed
    assert r.examined == 8


@pytest.mark.parametrize("kwargs", [
    {"samples": -2},
    {"degrees": ()},
    {"degrees": (2, 0)},
    {"trials": 0},
    {"n": 0},
], ids=["negative-samples", "no-degrees", "zero-degree", "no-trials", "no-variables"])
def test_wiebe_rejects_bad_arguments_before_drawing(monkeypatch, kwargs):
    from lefschetz_props import harness

    def no_draw(*args, **kw):
        raise AssertionError("a form was drawn")

    monkeypatch.setattr(harness, "random_form_ideal", no_draw)
    args = {"n": 3, "degrees": (2, 3), "samples": 4, "seed": 1, "trials": 3}
    with pytest.raises(ValueError):
        wiebe_initial_ideal_check(**{**args, **kwargs})


BENCH_REFERENCE = Path(__file__).resolve().parent.parent / "campaign_bench" / "reference.json"


@pytest.mark.parametrize("entry, seed, campaign, kwargs", [
    ("thm1-3-5", "any", verify_thm1, {"n": 3, "d": 5, "threads": 1}),
    ("thm1-3-5", "any", verify_thm1, {"n": 3, "d": 5, "threads": 2}),
    ("crosscheck-3-4", "0", crosscheck_lemmas, {"n": 3, "d": 4, "sample": 2048, "seed": 0}),
    ("crosscheck-3-4", "63", crosscheck_lemmas, {"n": 3, "d": 4, "sample": 2048, "seed": 63}),
    ("wiebe-forms", "any", wiebe_initial_ideal_check,
     {"n": 3, "degrees": (2, 3), "samples": 100, "seed": 1}),
], ids=["thm1-3-5", "thm1-3-5-par", "crosscheck-3-4-seed-0", "crosscheck-3-4-seed-63",
        "wiebe-forms"])
def test_benchmark_calls_keep_their_recorded_verdicts(entry, seed, campaign, kwargs):
    # the benchmark's calls against the verdicts it records, so a changed
    # report fails here before the benchmark runs
    expected = json.loads(BENCH_REFERENCE.read_text())[entry][seed]
    got = json.loads(json.dumps(campaign(**kwargs).to_dict(include_timing=False)))
    assert {field: got[field] for field in expected} == expected
