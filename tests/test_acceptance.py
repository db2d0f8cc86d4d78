"""Acceptance suite: the eight exit criteria, one test (and one printed
PASS/FAIL line) per criterion.  Every value asserted here is an exact
integer; there are no tolerances anywhere.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import time

from lefschetz_props.classify import forces_slp, forces_wlp
from lefschetz_props.combinatorics import macaulay_lower
from lefschetz_props.duality import contraction_matrix, extremal_dual
from lefschetz_props.exactlinalg import rank
from lefschetz_props.harness import (
    SearchSpec,
    crosscheck_lemmas,
    enumerate_equigenerated,
    named_examples,
    verify_thm1,
    verify_thm2,
    verify_thm37,
    wiebe_initial_ideal_check,
)
from lefschetz_props.ideals import socle_degree
from lefschetz_props.lefschetz import check_slp, has_maximal_rank, mult_map_matrix


def _report(criterion: str, ok: bool, t0: float, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    elapsed = time.perf_counter() - t0
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status} [{elapsed:.1f}s]{suffix}")


def test_criterion_1_theorem1_bounds():
    t0 = time.perf_counter()
    expected = {(3, 3): 6, (3, 4): 10, (3, 5): 12, (4, 2): 4, (4, 3): 6,
                (5, 3): 6, (6, 3): 6}
    ok = True
    details = []
    for (n, d), bound in expected.items():
        r = verify_thm1(n, d, symmetry=True)
        case_ok = (
            r.expected_bound == bound
            and r.confirmed
            and not r.failures          # zero WLP failures below the bound
            and len(r.witnesses) >= 1   # a failing witness at the bound
            and r.min_failing_hf == bound
        )
        ok = ok and case_ok
        details.append(f"({n},{d})->{r.expected_bound}:{'ok' if case_ok else 'FAIL'}")
    _report("1 theorem-1 WLP bounds", ok, t0, " ".join(details))
    assert ok


def test_criterion_2_theorem2_slp_bounds():
    t0 = time.perf_counter()
    ok = True
    details = []
    for n, d, bound in [(3, 3, 3), (3, 4, 3), (3, 5, 3), (4, 3, 3),
                        (4, 2, 4), (5, 2, 4)]:
        r = verify_thm2(n, d, symmetry=True)
        case_ok = r.confirmed and r.expected_bound == bound and not r.failures
        ok = ok and case_ok
        details.append(f"({n},{d})->{bound}:{'ok' if case_ok else 'FAIL'}")
    # the constructed witness y1^(d-2) (y2-y3)^2 fails the SLP with HF = 3
    for d in range(3, 7):
        f, I = extremal_dual(3, d, d - 1)
        rep = check_slp(I, "exact", early_stop=True)
        case_ok = (not rep.verdict) and I.hf(d) == 3 == len(f.support)
        ok = ok and case_ok
        details.append(f"witness d={d}:{'ok' if case_ok else 'FAIL'}")
    _report("2 theorem-2(i) SLP bounds", ok, t0, " ".join(details))
    assert ok


def test_criterion_3_theorem2_power_bounds():
    t0 = time.perf_counter()
    ok = True
    details = []
    for d in (4, 5, 6):
        for i in range(2, d):
            f, I = extremal_dual(3, d, i)
            surjective, r = has_maximal_rank(I, None, i, d - i)
            hf_ok = I.hf(d) == d - i + 2
            not_surj = r < I.hf(d)
            ok = ok and hf_ok and not_surj
            details.append(f"(3,{d},{i}):{'ok' if hf_ok and not_surj else 'FAIL'}")
    for i in (2, 3):  # exhaustive at (3, 4): nothing below d-i+2 fails
        r = verify_thm2(3, 4, i, symmetry=True)
        case_ok = r.confirmed and not r.failures and r.expected_bound == 4 - i + 2
        ok = ok and case_ok
        details.append(f"exhaustive(3,4,{i}):{'ok' if case_ok else 'FAIL'}")
    _report("3 theorem-2(ii) power bounds", ok, t0, " ".join(details))
    assert ok


def test_criterion_4_theorem37_min_support():
    t0 = time.perf_counter()
    ok = True
    details = []
    for n, d, i in [(3, 4, 2), (3, 5, 2), (3, 5, 3), (4, 3, 2)]:
        r = verify_thm37(n, d, i)
        case_ok = r.confirmed and r.details["min_support"] == d - i + 2
        ok = ok and case_ok
        details.append(f"({n},{d},{i})->{r.details['min_support']}:"
                       f"{'ok' if case_ok else 'FAIL'}")
    _report("4 theorem-3.7 minimal support", ok, t0, " ".join(details))
    assert ok


def test_criterion_5_lemma_equivalence():
    t0 = time.perf_counter()
    ok = True
    details = []
    for n, d, sample in [(3, 2, None), (3, 3, None), (4, 2, None), (3, 4, 500)]:
        r = crosscheck_lemmas(n, d, sample=sample, seed=1)
        case_ok = (
            r.confirmed
            and not r.failures
            and r.details["agreements"] == r.details["comparisons"]
        )
        ok = ok and case_ok
        details.append(
            f"({n},{d},{sample or 'all'}): {r.details['agreements']}"
            f"/{r.details['comparisons']} agree, "
            f"{r.details['fallbacks']} fallbacks"
        )
    _report("5 lemma shortcut equivalence", ok, t0, "; ".join(details))
    assert ok


def test_criterion_6_named_examples():
    t0 = time.perf_counter()
    r = named_examples()
    ok = r.confirmed
    detail = " ".join(
        f"{c['case']}:{'ok' if c['ok'] else 'FAIL'}" for c in r.details["cases"]
    )
    _report("6 named examples", ok, t0, detail)
    assert ok


def test_criterion_7_classifier_vectors():
    t0 = time.perf_counter()
    checks = [
        forces_slp((1, 2, 2, 1)) is True,
        forces_slp((1, 3, 3, 1)) is False,
        forces_wlp((1, 4, 10, 5, 1)) is False,
    ]
    identity_ok = all(
        macaulay_lower(m, d) == m - 1
        for d in range(2, 11)
        for m in range(d + 1, 2 * d)
    )
    ok = all(checks) and identity_ok
    _report("7 classifier vectors", ok, t0,
            f"vectors:{all(checks)} lower-identity:{identity_ok}")
    assert ok


def test_criterion_8_duality_and_initial_ideals():
    t0 = time.perf_counter()
    # rank duality on the full (3, 3) enumeration
    duality_ok = True
    checked = 0
    for I in enumerate_equigenerated(SearchSpec(3, 3, 0, 7, symmetry=False)):
        e = socle_degree(I)
        for i in range(1, e + 1):
            for j in range(e - i + 1):
                primal = rank(mult_map_matrix(I, None, i, j))
                dualr = rank(contraction_matrix(I, i, j + i))
                checked += 1
                if primal != dualr:
                    duality_ok = False
    # Hilbert-function preservation under degreewise initial ideals and the
    # one-directional transfer on 100 random form ideals, seeds recorded
    w = wiebe_initial_ideal_check(3, (2, 3), samples=100, seed=1, trials=3)
    ok = duality_ok and w.confirmed
    _report(
        "8 duality and initial ideals", ok, t0,
        f"rank-duality pairs:{checked} ok:{duality_ok}; "
        f"wiebe samples:{w.examined} ok:{w.confirmed} "
        f"(ini-SLP hits: {w.details['initial_ideal_slp_count']})",
    )
    assert ok
