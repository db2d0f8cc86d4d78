"""Enumeration, symmetry reduction, and campaign behavior."""

import json
import os
import random
import signal
import subprocess
import sys
from contextlib import contextmanager
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
    support_positions,
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

    per_byte, ones, guards, full, width = _symmetry_tables(3, 3, support_positions(3, 3))
    assert (len(per_byte), full, width) == (1, 127, 8)  # 7 mixed monomials
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
    """``_is_canonical`` from the mask's images, one per moving permutation."""
    return None if min(images) < mask else max(images + [mask])


@pytest.mark.parametrize("n, d", [(3, 3), (3, 4), (4, 3)])
def test_packed_canonicity_matches_every_image_on_every_mask(n, d):
    # the one-pass test against each permutation's image built bit by bit
    # (each mask's from the mask without its lowest bit): the same
    # None/accept verdict and the same largest image
    from lefschetz_props.harness import _is_canonical, _symmetry_tables

    maps = _moving_permutations(n, d)
    m = len(maps[0])
    tables = _symmetry_tables(n, d, support_positions(n, d))
    assert tables.ones.bit_count() == len(maps) and tables.width == m + 1
    images = [[0] * (1 << m) for _ in maps]
    for image, t in zip(images, maps):
        for mask in range(1, 1 << m):
            image[mask] = image[mask & mask - 1] | 1 << t[(mask & -mask).bit_length() - 1]
    accepted = 0
    for mask in range(1 << m):
        got = _is_canonical(mask, tables)
        assert got == _brute_canonical(mask, [image[mask] for image in images]), mask
        accepted += got is not None
    assert 0 < accepted < 1 << m


@pytest.mark.parametrize("n, d, sample", [(3, 5, 1500), (4, 4, 1500), (5, 3, 300)])
def test_packed_canonicity_matches_every_image_on_a_sample(n, d, sample):
    # as above on seeded masks of uneven popcount, and on the orbit minimum
    # of each, so that about half the masks tested are accepted
    from lefschetz_props.harness import _is_canonical, _symmetry_tables

    maps = _moving_permutations(n, d)
    m = len(maps[0])
    tables = _symmetry_tables(n, d, support_positions(n, d))
    assert tables.ones.bit_count() == len(maps) and tables.width == m + 1
    rng = random.Random(n * 10 + d)
    accepted = 0
    for _ in range(sample):
        mask = rng.getrandbits(m) >> rng.randrange(m)
        for x in (mask, min(mask, *(_image(mask, t) for t in maps))):
            got = _is_canonical(x, tables)
            assert got == _brute_canonical(x, [_image(x, t) for t in maps]), x
            accepted += got is not None
    assert sample <= accepted < 2 * sample


@lru_cache(maxsize=None)
def orbit_minima(n, d):
    """Smallest mask of every orbit under permuting the variables, from the
    exponent vectors themselves (independent of the symmetry tables)."""
    images = _permutation_maps(n, d)
    m = len(images[0])
    minima, seen = set(), set()
    for mask in range(1 << m):
        if mask in seen:
            continue
        bits = [p for p in range(m) if (mask >> p) & 1]
        orbit = {sum(1 << image[p] for p in bits) for image in images}
        seen |= orbit
        minima.add(min(orbit))
    return m, minima


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
    m, minima = orbit_minima(n, d)
    expected = sorted(
        (mask for mask in range(1 << m)
         if lo <= mask.bit_count() <= hi and (not symmetry or mask in minima)),
        key=lambda mask: (mask.bit_count(), mask),
    )
    spec = SearchSpec(n, d, lo, hi, symmetry)
    assert list(iter_support_masks(spec)) == expected
    # a scan decides the same masks once each: in preorder from popcount 0,
    # in the same order from higher
    scanned = [mask for mask, _ in _scan_masks(spec, _check(n, d))]
    assert sorted(scanned, key=lambda mask: (mask.bit_count(), mask)) == expected
    if lo:
        assert scanned == expected


@pytest.mark.parametrize("n, d, hi", [(3, 5, 11), (4, 4, 5), (5, 3, 4)])
def test_orderly_walk_matches_the_gosper_stream(monkeypatch, n, d, hi):
    # the orderly walk from the empty mask and the Gosper stream give the
    # same orbit minima, each once: the walk in preorder (popcount at most
    # one up from one mask to the next), the stream by popcount, then
    # ascending; the walk makes fewer canonicity tests
    from lefschetz_props import harness

    tests = []
    original = harness._is_canonical

    def counting(mask, tables):
        tests.append(mask)
        return original(mask, tables)

    monkeypatch.setattr(harness, "_is_canonical", counting)
    spec = SearchSpec(n, d, 0, hi)
    m, tables = harness._window_tables(spec)
    walked = [x >> 1 for x in harness._orderly_walk(m, hi, tables)]
    walk_tests = len(tests)
    gosper = list(iter_support_masks(spec))
    assert sorted(walked, key=lambda mask: (mask.bit_count(), mask)) == gosper
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


def test_entry_budget_bounds_the_ideals_built(forks, monkeypatch):
    # a passing mask builds no ideal, so the decides are counted: a scan
    # stopped by either budget decides exactly the masks it examined, and
    # decides them all in the parent, also once workers walk the (3, 5)
    # window past its split
    from lefschetz_props import harness

    decided = []
    decide = harness._decide_mask
    parent = os.getpid()

    def counting(check, mask, certified):
        assert os.getpid() == parent, "a campaign worker decided a mask"
        decided.append(mask)
        return decide(check, mask, certified)

    monkeypatch.setattr(harness, "_decide_mask", counting)
    for budgets in ({"budget_entries": 10}, {"budget_entries": 10**5}, {"budget_ideals": 100}):
        decided[:] = []
        r = verify_thm1(3, 4, threads=1, **budgets)
        assert r.partial and len(decided) == r.examined > 0, budgets
    assert r.examined == 100 and not forks
    for threads in (2, 3):
        for budgets, examined in (
            ({"budget_entries": 10**6}, 2212), ({"budget_ideals": 5000}, 5000), ({}, None)
        ):
            decided[:] = []
            with _deadline(60):
                r = verify_thm1(3, 5, threads=threads, **budgets)
            assert r.partial == bool(budgets) and len(decided) == r.examined, budgets
            assert examined in (None, r.examined), budgets
    assert forks == [2] * 3 + [3] * 3


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
    # the i = 1 bound d+1 is not attained: observed minimum is strictly above
    r = verify_thm2(3, 3, 1)
    assert r.confirmed
    assert r.expected_bound == 4
    assert r.min_failing_hf == 6  # the WLP bound, strictly above d+1
    r = verify_thm2(3, 4, 1)
    assert r.confirmed
    assert r.min_failing_hf == 10 > 5


def test_a_sharp_bound_searches_its_witness_at_the_bound(monkeypatch):
    # the SLP bound 4 for d = 2 is sharp, so its witness is searched at HF 4
    # only: with every popcount-4 mask made to pass, verify_thm2(5, 2) has
    # no witness and does not confirm, though ideals of HF 5 fail
    from lefschetz_props import harness

    assert verify_thm2(5, 2).min_failing_hf == 4
    decide = harness._decide_mask

    def passing(check, mask, certified):
        if mask.bit_count() == 4:
            return check.source * 4
        return decide(check, mask, certified)

    monkeypatch.setattr(harness, "_decide_mask", passing)
    r = verify_thm2(5, 2)
    assert not r.confirmed and not r.partial and not r.failures and not r.witnesses
    assert r.min_failing_hf is None


def test_verify_thm2_vacuous_cases():
    # (3, 2): bound 4 exceeds the attainable maximum 3, so no SLP failure
    # exists at all and sharpness is vacuous
    r = verify_thm2(3, 2)
    assert r.confirmed and not r.details["bound_attainable"] and not r.witnesses
    r = verify_thm2(3, 2, 1)
    assert r.confirmed and r.min_failing_hf is None


def test_a_failure_below_the_bound_sets_the_minimal_failing_hf(monkeypatch):
    # one HF-2 mask (3, the smallest mask of popcount 2, so its orbit's
    # representative) is sent to the full check, which is made to fail it
    from lefschetz_props import harness

    decide, run_check = harness._decide_mask, harness._run_check
    failing = []

    def decide_mask(check, mask, certified):
        return None if mask == 3 else decide(check, mask, certified)

    def fail_mask_3(I, check):
        rep = run_check(I, check)
        if I in failing:
            rep.verdict = False
        return rep

    monkeypatch.setattr(harness, "_decide_mask", decide_mask)
    monkeypatch.setattr(harness, "_run_check", fail_mask_3)
    for campaign, args in ((verify_thm1, (3, 4)), (verify_thm2, (3, 5, 3))):
        failing[:] = [ideal_from_mask(3, args[1], 3)]
        r = campaign(*args)
        assert [w["hf_d"] for w in r.failures] == [2]
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
    # from six variables on the search streams its masks and builds no
    # symmetry tables (n! - 1 lanes: at (8, 3) they would take gigabytes);
    # each search answers in a fraction of a second
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


def test_threads_match_serial():
    serial = verify_thm1(3, 3, threads=1)
    parallel = verify_thm1(3, 3, threads=2)
    assert serial.confirmed == parallel.confirmed
    assert serial.examined == parallel.examined
    assert serial.min_failing_hf == parallel.min_failing_hf


@pytest.fixture
def forks(monkeypatch):
    """Split every scan with threads > 1 at popcount 1 and send its masks
    back in chunks of 100, on three usable CPUs; records the workers forked
    per scan."""
    from lefschetz_props import harness

    started = []
    fork = harness._fork_workers

    def spy(shares):
        started.append(len(shares))
        return fork(shares)

    monkeypatch.setattr(harness, "SPLIT_HELD", 1)
    monkeypatch.setattr(harness, "SPLIT_CHUNK", 100)
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(harness, "_fork_workers", spy)
    return started


def test_pool_workers_capped_at_cpu_count(forks, monkeypatch):
    from lefschetz_props import harness

    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    serial = verify_thm1(3, 3, threads=1)
    capped = verify_thm1(3, 3, threads=64)
    assert forks == [2]
    assert capped.confirmed == serial.confirmed
    assert capped.examined == serial.examined
    assert capped.min_failing_hf == serial.min_failing_hf
    # without an affinity mask the CPU count caps the workers
    monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    verify_thm1(3, 3, threads=64)
    assert forks == [2, 2]
    monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
    verify_thm1(3, 3, threads=64)
    assert forks == [2, 2]  # unknown CPU count: no pool


def _without_threads(report) -> dict:
    rep = report.to_dict(include_timing=False)
    del rep["params"]["threads"]
    return rep


def _assert_split_matches_serial(forks, campaign, *args, **kwargs):
    serial = _without_threads(campaign(*args, threads=1, **kwargs))
    for threads in (2, 3):
        del forks[:]
        assert _without_threads(campaign(*args, threads=threads, **kwargs)) == serial
        assert forks == [threads]
    return serial


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
])
def test_split_scan_reports_match_serial(forks, campaign, args, kwargs):
    _assert_split_matches_serial(forks, campaign, *args, **kwargs)


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


def _tops(masks) -> list:
    """The positions in scan order of the masks of popcount at most 1: the
    parent's top of a scan split at popcount 1 (the forks fixture)."""
    return [k for k, (size, _) in enumerate(masks) if size <= 1]


def test_split_scan_ideal_budget_in_the_top_and_in_a_dealt_subtree(forks):
    # the parent walks the empty mask and the four popcount-1 nodes, and
    # reads each node's subtree back from a worker, in chunks of 100
    masks = _thm1_3_5_costs()
    tops = _tops(masks)
    assert tops[:2] == [0, 1] and len(tops) == 5 and tops[2] > 1000
    # on a node of the top after the fork, on the last mask of a subtree,
    # on the last mask of a chunk and the first of the next, and inside
    # the last subtree
    for budget in (tops[2] + 1, tops[2], tops[1] + 1 + 500, tops[1] + 2 + 500,
                   len(masks) - 100):
        rep = _assert_split_matches_serial(forks, verify_thm1, 3, 5, budget_ideals=budget)
        assert rep["partial"] and rep["examined"] == budget


def test_split_scan_entry_budget_across_chunks_subtrees_and_the_top(forks):
    masks = _thm1_3_5_costs()
    total = [0]
    for _, cost in masks:
        total.append(total[-1] + cost)
    tops = _tops(masks)
    # the scan stops right after the mask that goes over the budget, the
    # over-th one: the last of a chunk, the first of the next, a node of
    # the parent's top, and the first mask of that node's subtree
    for over in (tops[1] + 1 + 300, tops[1] + 2 + 300, tops[3] + 1, tops[3] + 2):
        rep = _assert_split_matches_serial(
            forks, verify_thm1, 3, 5, budget_entries=total[over] - 1
        )
        assert rep["partial"] and rep["examined"] == over
        assert rep["details"]["matrix_entry_cost"] == total[over]
    assert masks[tops[3] + 1][0] == 2


def test_split_scan_stops_on_the_mask_over_its_entry_budget(forks, monkeypatch):
    from lefschetz_props import harness

    # Split at popcount 4 (C(18, 4) = 3060 masks, at least 512 per worker):
    # the parent walks down to the first node of popcount 4, the fifth mask
    # in preorder, before it forks.  Going over the budget on a mask stops
    # the scan right after it, with no later mask decided; stopping on
    # that node forks nothing, stopping on the mask after it forks.
    monkeypatch.setattr(harness, "SPLIT_HELD", 512)
    masks = _thm1_3_5_costs()
    assert [size for size, _ in masks[:6]] == [0, 1, 2, 3, 4, 5]
    decided = []
    decide = harness._decide_mask

    def counting(check, mask, certified):
        decided.append(mask)
        return decide(check, mask, certified)

    monkeypatch.setattr(harness, "_decide_mask", counting)
    for over, forked in ((5, []), (6, [2, 3])):
        budget = sum(cost for _, cost in masks[:over]) - 1
        del decided[:], forks[:]
        serial = _without_threads(verify_thm1(3, 5, budget_entries=budget))
        assert serial["partial"] and serial["examined"] == len(decided) == over
        for threads in (2, 3):
            split = verify_thm1(3, 5, threads=threads, budget_entries=budget)
            assert _without_threads(split) == serial
        assert forks == forked


def test_split_scan_reports_every_failure_in_order(forks):
    from lefschetz_props import harness

    check = _check(4, 3)
    order = [mask for mask, _ in _scan_masks(SearchSpec(4, 3, 0, 16), check)]
    mask_of = {tuple(ideal_from_mask(4, 3, mask).generator_strings()): mask for mask in order}

    def scan(threads, **budgets):
        spec = SearchSpec(4, 3, 0, 16, threads=threads, **budgets)
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
    whole = scan(1)
    assert whole[0] == len(order) == 3044 and len(whole[2]) == 357
    failed = {mask for mask, _ in whole[2]}
    assert [mask for mask, _ in whole[2]] == ordered(failed)
    stop = next(k for k, mask in enumerate(order) if k > 2 * 256 and mask in failed)
    runs = [
        ({}, len(order), False),
        ({"budget_entries": scan(1, budget_ideals=2 * 256 + 1)[1] - 1}, 2 * 256 + 1, True),
        ({"budget_entries": scan(1, budget_ideals=stop + 1)[1] - 1}, stop + 1, True),
    ]
    for budgets, examined, partial in runs:
        serial = scan(1, **budgets)
        assert serial[2] and serial == scan(2, **budgets) == scan(3, **budgets)
        assert serial[0] == examined and serial[3] == partial
        assert [mask for mask, _ in serial[2]] == ordered(failed & set(order[:examined]))
    assert order[stop] in {mask for mask, _ in serial[2]}
    assert forks == [2, 3] * 3


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
    # also with threads: it tests masks for canonicity in ascending order
    # and stops at its witness, not after the 18,564 masks of the level
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
    tables = harness._symmetry_tables(3, 5, support_positions(3, 5))
    assert examined == sum(
        canonical(mask, tables) is not None for mask in level[:level.index(witness) + 1]
    )


@contextmanager
def _deadline(seconds: int):
    """Turn a hang of the calls inside into a TimeoutError."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _watch_split_pipes(monkeypatch, stall_at, fail_at=None):
    """Spy on a split scan with two workers: the items each worker walks
    (counted in the forked worker), the chunks the parent reads from it,
    its pipe's capacity and the arguments of its stream.  On its
    ``stall_at``-th decide the parent waits until the workers stop walking
    and worker 0's pipe holds more than half its capacity.  With
    ``fail_at``, worker 0 raises once it has walked that many items."""
    import fcntl
    import multiprocessing
    import struct
    import termios
    import time
    from types import SimpleNamespace

    from lefschetz_props import harness

    spy = SimpleNamespace(walked=multiprocessing.RawArray("q", 2), read=[0, 0],
                          capacity=[], streams=[])
    deal, received, decide = harness._dealt_subtrees, harness._received, harness._decide_mask
    pipes, decided = [], []

    def walk(w, stream):
        for x in stream:
            if w == 0 and spy.walked[0] == fail_at:
                raise RuntimeError("boom")
            spy.walked[w] += 1
            yield x

    def read(w, chunks):
        for chunk in chunks:
            spy.read[w] += 1
            yield chunk

    def counting_deal(*args):
        spy.streams.append(args)
        return walk(args[5], deal(*args))

    def counting_received(process, conn):
        pipes.append(conn)
        spy.capacity.append(fcntl.fcntl(conn.fileno(), fcntl.F_GETPIPE_SZ))
        return read(len(pipes) - 1, received(process, conn))

    def held(conn):
        return struct.unpack("i", fcntl.ioctl(conn, termios.FIONREAD, bytes(4)))[0]

    def stalling(*args):
        decided.append(None)
        if len(decided) == stall_at:
            before = None
            while before != spy.walked[:] or held(pipes[0]) <= spy.capacity[0] // 2:
                before = spy.walked[:]
                time.sleep(0.25)
        return decide(*args)

    monkeypatch.setattr(harness, "_dealt_subtrees", counting_deal)
    monkeypatch.setattr(harness, "_received", counting_received)
    monkeypatch.setattr(harness, "_decide_mask", stalling)
    return spy


def test_split_workers_walk_at_most_a_pipe_past_a_stop(forks, monkeypatch):
    # Nothing goes from the parent to a worker; a worker's send blocks
    # while its pipe is full.  So when a budget stops the scan, each worker
    # has walked at most the chunks the parent read, the full chunks its
    # pipe holds, and one more (the one it was sending, or its short last
    # chunk).  (4, 4) split at popcount 1 deals worker 0 a first subtree of
    # 146,801 masks; the parent stops inside it, after stalling until the
    # workers stop walking and worker 0's pipe is over half full, so a
    # worker that buffered its stream without bound would walk all of it.
    import pickle

    from lefschetz_props import harness

    deal = harness._dealt_subtrees
    spy = _watch_split_pipes(monkeypatch, stall_at=5000)
    with _deadline(60):
        rep = verify_thm1(4, 4, threads=2, budget_ideals=6000)
    assert rep.partial and rep.examined == 6000 and forks == [2]
    size = harness.SPLIT_CHUNK
    for w, args in enumerate(spy.streams):
        stream = list(deal(*args))
        chunks = [stream[k:k + size] for k in range(0, len(stream), size)]
        smallest = min(len(pickle.dumps(chunk)) for chunk in chunks if len(chunk) == size)
        bound = spy.read[w] + spy.capacity[w] // smallest + 1
        walked = -(-spy.walked[w] // size)
        assert spy.read[w] <= walked <= bound, (w, spy.read[w], walked, bound)
        if not w:
            assert spy.read[0] > 50 and len(chunks) > 2 * bound


def test_split_worker_raising_after_its_pipe_filled_is_reraised(forks, monkeypatch):
    # worker 0 fills its pipe while the parent stalls, then raises after
    # 50,000 masks; the parent reads up to there, raises the worker's
    # exception and leaves no process
    import multiprocessing

    spy = _watch_split_pipes(monkeypatch, stall_at=5000, fail_at=50_000)
    with _deadline(60), pytest.raises(RuntimeError, match="boom") as raised:
        verify_thm1(4, 4, threads=2)
    assert spy.walked[0] == 50_000
    assert "in a campaign worker" in "".join(raised.value.__notes__)
    assert not multiprocessing.active_children()


def test_split_scan_leaves_no_process(forks, monkeypatch):
    import multiprocessing

    from lefschetz_props import harness

    # a finished scan, and one stopped by a budget while the workers walk
    # past the stop
    with _deadline(60):
        assert verify_thm1(3, 4, threads=2).confirmed
        assert verify_thm1(3, 5, threads=2, budget_entries=10**6).partial
    assert forks == [2, 2] and not multiprocessing.active_children()
    parent = os.getpid()
    walk = harness._orderly_walk

    def boom(*args):
        if os.getpid() != parent:
            raise RuntimeError("boom")
        return walk(*args)

    # a worker's walk raises, or kills the worker
    monkeypatch.setattr(harness, "_orderly_walk", boom)
    with _deadline(60), pytest.raises(RuntimeError, match="boom"):
        verify_thm1(3, 4, threads=2)
    assert not multiprocessing.active_children()

    def die(*args):
        if os.getpid() != parent:
            os._exit(3)
        return walk(*args)

    monkeypatch.setattr(harness, "_orderly_walk", die)
    with _deadline(60), pytest.raises(RuntimeError, match="exited with code 3"):
        verify_thm1(3, 4, threads=2)
    assert not multiprocessing.active_children()
    assert forks == [2, 2, 2, 2]


# Starts a split scan of verify_thm1(4, 4) with two workers, prints their
# PIDs once both run, and then stalls before its next decide, so the
# workers fill their pipes and block in a send.
_STALLED_SPLIT_SCAN = """
import time
from lefschetz_props import harness

harness.SPLIT_HELD = 1
harness.SPLIT_CHUNK = 100
harness.os.sched_getaffinity = lambda pid: {0, 1, 2}
fork, decide = harness._fork_workers, harness._decide_mask
pids = []

def forked(streams):
    for process, conn in fork(streams):
        pids.append(process.pid)
        yield process, conn
    print(*pids, flush=True)

def stalled(*args):
    if len(pids) == 2:
        time.sleep(300)
    return decide(*args)

harness._fork_workers = forked
harness._decide_mask = stalled
harness.verify_thm1(4, 4, threads=2)
"""


def _running(pid: int) -> bool:
    """Whether the process exists and has not exited (a zombie has)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


def test_split_workers_exit_when_their_parent_is_killed():
    # only the parent holds the read ends of the workers' pipes, so once
    # it is killed each worker's next send fails and the worker exits
    import time

    import lefschetz_props

    src = Path(lefschetz_props.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    scan = subprocess.Popen(
        [sys.executable, "-c", _STALLED_SPLIT_SCAN], env=env,
        stdout=subprocess.PIPE, text=True,
    )
    pids = []
    try:
        with _deadline(60):
            pids = [int(pid) for pid in scan.stdout.readline().split()]
        assert len(pids) == 2
        time.sleep(1)
        scan.kill()
        scan.wait()
        gone = time.monotonic() + 5
        while any(map(_running, pids)) and time.monotonic() < gone:
            time.sleep(0.05)
        assert not [pid for pid in pids if _running(pid)]
    finally:
        scan.kill()
        scan.wait()
        for pid in filter(_running, pids):
            os.kill(pid, signal.SIGKILL)
        scan.stdout.close()


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
