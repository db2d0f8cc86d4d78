"""Enumeration, symmetry reduction, and campaign behavior."""

import random

import pytest

from lefschetz_props.classify import forces_slp, forces_wlp, is_o_sequence
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
from lefschetz_props.ideals import MonomialIdeal, hilbert_function, socle_degree
from lefschetz_props.lefschetz import check_slp, check_wlp
from lefschetz_props.parsing import parse_inline_ideal


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
    # canonical representatives expand back to the full mask count
    from itertools import permutations

    from lefschetz_props.harness import _campaign_space

    _, mixed, maps = _campaign_space(3, 3)
    canonical = list(iter_support_masks(SearchSpec(3, 3, 0, 7, symmetry=True)))
    seen = set()
    for mask in canonical:
        bits = [b for b in range(len(mixed)) if (mask >> b) & 1]
        for pm in maps:
            seen.add(sum(1 << pm[b] for b in bits))
    assert len(seen) == 128


@pytest.mark.parametrize(
    "n, d, lo, hi", [(3, 3, 0, 7), (3, 4, 2, 9), (4, 2, 1, 6), (3, 5, 17, 18)]
)
@pytest.mark.parametrize("symmetry", [False, True])
def test_support_masks_match_brute_force_filter(n, d, lo, hi, symmetry):
    from lefschetz_props.harness import _campaign_space, _is_canonical

    _, mixed, maps = _campaign_space(n, d)
    expected = sorted(
        (mask for mask in range(1 << len(mixed))
         if lo <= mask.bit_count() <= hi
         and (not symmetry or _is_canonical(mask, maps))),
        key=lambda mask: (mask.bit_count(), mask),
    )
    assert list(iter_support_masks(SearchSpec(n, d, lo, hi, symmetry))) == expected


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
    from lefschetz_props import harness

    built = []

    def counting(n, d, mask):
        built.append(mask)
        return ideal_from_mask(n, d, mask)

    monkeypatch.setattr(harness, "ideal_from_mask", counting)
    r = verify_thm1(3, 4, budget_entries=10)
    assert r.partial and 0 < len(built) <= r.examined


def test_ideal_budget_bounds_the_enumeration(monkeypatch):
    from lefschetz_props import harness

    calls = []
    original = harness._is_canonical

    def counting(mask, maps):
        calls.append(mask)
        return original(mask, maps)

    monkeypatch.setattr(harness, "_is_canonical", counting)
    r = verify_thm1(3, 5, budget_ideals=5)
    assert r.partial and r.examined == 5
    assert len(calls) < 500  # not the 2^18 masks of the mixed space


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


def test_verify_thm2_vacuous_cases():
    # (3, 2): bound 4 exceeds the attainable maximum 3, so no SLP failure
    # exists at all and sharpness is vacuous
    r = verify_thm2(3, 2)
    assert r.confirmed and not r.details["bound_attainable"] and not r.witnesses
    r = verify_thm2(3, 2, 1)
    assert r.confirmed and r.min_failing_hf is None


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


def test_crosscheck_full_small_grids():
    r = crosscheck_lemmas(3, 2)
    assert r.confirmed and r.examined == 8
    assert r.details["agreements"] == r.details["comparisons"]


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
    # algebra with that Hilbert function must have the property
    by_hf = {}
    for d in (2, 3):
        spec = SearchSpec(3, d, 0, (3, 7)[d == 3], symmetry=False)
        for I in enumerate_equigenerated(spec):
            e = socle_degree(I)
            H = hilbert_function(I, e) if e >= 0 else (1,)
            by_hf.setdefault(H, []).append(I)
    assert by_hf
    for H, ideals in by_hf.items():
        if not is_o_sequence(H):
            continue
        if forces_wlp(H):
            assert all(check_wlp(I).verdict for I in ideals), H
        if forces_slp(H):
            assert all(check_slp(I).verdict for I in ideals), H


def test_threads_match_serial():
    serial = verify_thm1(3, 3, threads=1)
    parallel = verify_thm1(3, 3, threads=2)
    assert serial.confirmed == parallel.confirmed
    assert serial.examined == parallel.examined
    assert serial.min_failing_hf == parallel.min_failing_hf


def test_pool_workers_capped_at_cpu_count(monkeypatch):
    from concurrent.futures import Future

    from lefschetz_props import harness

    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, job):
            future = Future()
            future.set_result(fn(job))
            return future

    monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    serial = verify_thm1(3, 3, threads=1)
    capped = verify_thm1(3, 3, threads=64)
    assert started == [2]
    assert capped.confirmed == serial.confirmed
    assert capped.examined == serial.examined
    assert capped.min_failing_hf == serial.min_failing_hf
    monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
    verify_thm1(3, 3, threads=64)
    assert started == [2]  # unknown CPU count: no pool


def test_wiebe_small_sample():
    r = wiebe_initial_ideal_check(3, (2, 3), samples=8, seed=21)
    assert r.confirmed
    assert r.examined == 8
