"""Enumeration of equigenerated artinian monomial ideals and the
verification campaigns for the sharp Hilbert-function bounds.

Enumeration is keyed on dual supports: an equigenerated artinian ideal in
degree d is the complement of a subset T of the non-pure-power degree-d
monomials (the pure powers are forced by artinianness), and HF(R, d) = |T|.
Supports are walked as bitmasks by popcount (= HF(R, d)), then ascending,
optionally reduced to canonical representatives under variable permutations;
both Lefschetz properties are permutation-invariant, so campaign conclusions
are unchanged by the reduction.  Campaigns are deterministic: fixed
enumeration order, recorded seeds, and order-preserving merges of any
parallel work.
"""

from __future__ import annotations

import os
import random
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import islice, permutations

from .combinatorics import basis_size, monomial_basis
from .duality import (
    dual_ideal_from_support,
    ell_power_contract,
    extremal_dual,
    kernel_witness,
    min_kernel_support,
)
from .errors import BudgetExceededError, CapExceededError
from .ideals import (
    FormIdeal,
    MonomialIdeal,
    hilbert_function,
    initial_ideal_degreewise,
    is_artinian,
    monomial_ideal_from_leads,
    socle_degree,
)
from .lefschetz import (
    check_power,  # unused here; campaign_bench wraps harness.check_power
    check_power_shortcut,
    check_slp,
    check_slp_shortcut,
    check_wlp,
)
from .reporting import VerificationReport

DEFAULT_SEED = 1
DEFAULT_BUDGET_IDEALS = 10**6
DEFAULT_BUDGET_ENTRIES = 10**8
# Masks per scan job: the granularity at which budgets stop a scan.
SCAN_CHUNK = 256


def theorem1_bound(n: int, d: int) -> int:
    """Sharp lower bound for HF(R, d) when an equigenerated quotient fails
    the WLP: 3(d-1) (n=3, d odd), 3(d-1)+1 (n=3, d even), 2d (n >= 4)."""
    if n < 3 or d < 2:
        raise ValueError("need n >= 3 and d >= 2")
    if n == 3:
        return 3 * (d - 1) if d % 2 == 1 else 3 * (d - 1) + 1
    return 2 * d


def theorem2_bound(d: int) -> int:
    """Sharp lower bound for HF(R, d) when the quotient fails the SLP."""
    if d < 2:
        raise ValueError("need d >= 2")
    return 4 if d == 2 else 3


@dataclass
class SearchSpec:
    """Enumeration window over equigenerated artinian (n, d) ideals."""

    n: int
    d: int
    hf_min: int
    hf_max: int
    symmetry: bool = True
    threads: int = 1
    budget_ideals: int = DEFAULT_BUDGET_IDEALS
    budget_entries: int = DEFAULT_BUDGET_ENTRIES

    def __post_init__(self):
        if self.n < 3 or self.d < 2:
            raise ValueError("need n >= 3 and d >= 2")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")
        if self.budget_ideals < 0 or self.budget_entries < 0:
            raise ValueError("budgets must be non-negative")
        top = basis_size(self.n, self.d) - self.n
        if not 0 <= self.hf_min <= self.hf_max <= top:
            raise ValueError(f"HF range must lie within [0, {top}]")


@lru_cache(maxsize=None)
def _campaign_space(n: int, d: int):
    """(pure indices, mixed indices, permutation maps on mixed positions)."""
    basis = monomial_basis(n, d)
    pure, mixed = [], []
    for idx, m in enumerate(basis):
        (pure if sum(1 for e in m if e) == 1 else mixed).append(idx)
    index = {m: i for i, m in enumerate(basis)}
    mixed_pos = {g: p for p, g in enumerate(mixed)}
    maps = []
    for sigma in permutations(range(n)):
        pm = []
        for g in mixed:
            m = basis[g]
            permuted = tuple(m[sigma[t]] for t in range(n))
            pm.append(mixed_pos[index[permuted]])
        maps.append(tuple(pm))
    return tuple(pure), tuple(mixed), tuple(maps)


def _is_canonical(mask: int, maps) -> bool:
    bits = []
    m = mask
    while m:
        low = m & -m
        bits.append(low.bit_length() - 1)
        m ^= low
    for pm in maps:
        image = 0
        for b in bits:
            image |= 1 << pm[b]
        if image < mask:
            return False
    return True


def iter_support_masks(spec: SearchSpec):
    """Bitmasks over the mixed monomials with popcount in the HF window, by
    popcount, then ascending; Gosper's hack (HAKMEM item 175) visits only
    masks of the wanted popcount."""
    _, mixed, maps = _campaign_space(spec.n, spec.d)
    end = 1 << len(mixed)
    for k in range(spec.hf_min, spec.hf_max + 1):
        mask = (1 << k) - 1
        while mask < end:
            if not spec.symmetry or _is_canonical(mask, maps):
                yield mask
            if not mask:
                break
            low = mask & -mask
            ripple = mask + low
            mask = ripple | ((mask ^ ripple) >> 2) // low


def ideal_from_mask(n: int, d: int, mask: int) -> MonomialIdeal:
    """Equigenerated artinian ideal whose dual support is the given mask."""
    basis = monomial_basis(n, d)
    pure, mixed, _ = _campaign_space(n, d)
    gens = [basis[g] for g in pure]
    gens += [basis[g] for p, g in enumerate(mixed) if not (mask >> p) & 1]
    return MonomialIdeal(n, gens)


def enumerate_equigenerated(spec: SearchSpec):
    """Stream every in-range ideal exactly once (up to symmetry when on)."""
    count = 0
    for mask in iter_support_masks(spec):
        count += 1
        if count > spec.budget_ideals:
            raise BudgetExceededError(f"ideal budget {spec.budget_ideals} exceeded")
        yield ideal_from_mask(spec.n, spec.d, mask)


# ---------------------------------------------------------------------------
# campaign plumbing


def _report_cost(rep) -> int:
    return sum(p.dim_source * p.dim_target for p in rep.pairs)


def _run_check(I, key: str, args: dict):
    if key == "wlp":
        return check_wlp(I, "exact", early_stop=True)
    if key == "slp_shortcut":
        return check_slp_shortcut(I)
    if key == "power_shortcut":
        return check_power_shortcut(I, args["i"])
    raise ValueError(f"unknown check {key!r}")


def _campaign_worker(job):
    n, d, masks, key, args, first = job
    failures = []
    cost = 0
    for k, mask in enumerate(masks, 1):
        rep = _run_check(ideal_from_mask(n, d, mask), key, args)
        cost += _report_cost(rep)
        if not rep.verdict:
            failures.append((mask, rep))
            if first:
                return k, cost, failures
    return len(masks), cost, failures


def _job_results(jobs, workers: int):
    """Results of ``_campaign_worker`` in job order, pulled lazily: the
    builtin map when serial, else a process pool holding at most two jobs
    per worker in flight.  Closing the generator cancels the jobs that have
    not started."""
    if workers == 1:
        yield from map(_campaign_worker, jobs)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        window = deque()
        try:
            for job in jobs:
                window.append(pool.submit(_campaign_worker, job))
                if len(window) == 2 * workers:
                    yield window.popleft().result()
            while window:
                yield window.popleft().result()
        finally:
            for future in window:
                future.cancel()


def _scan_expected_pass(spec: SearchSpec, key: str, args: dict, first: bool = False):
    """Run a check over the window in enumeration order, collecting failures.

    Returns (examined, cost, failures, partial).  Masks are streamed in
    chunks of ``SCAN_CHUNK`` and results merged in job order, so no report
    depends on ``spec.threads``; the pool never starts more workers than
    there are CPUs.  The scan stops, partial, once either budget is exceeded,
    and with ``first`` at the first failing ideal.
    """
    masks = iter_support_masks(spec)
    budgeted = islice(masks, spec.budget_ideals)
    chunks = iter(lambda: list(islice(budgeted, SCAN_CHUNK)), [])
    jobs = ((spec.n, spec.d, chunk, key, args, first) for chunk in chunks)
    workers = min(spec.threads, os.cpu_count() or 1)
    examined = 0
    cost = 0
    failures = []
    with closing(_job_results(jobs, workers)) as results:
        for count, c, fails in results:
            examined += count
            cost += c
            failures.extend(fails)
            if first and fails:
                return examined, cost, failures, False
            if cost > spec.budget_entries:
                return examined, cost, failures, True
    return examined, cost, failures, next(masks, None) is not None


def _scan_window(report, spec: SearchSpec, key: str, args: dict, first: bool = False):
    """Scan the window into the report: adds the ideals examined, sets
    partial and records each failure, which is a counterexample below the
    bound or, with ``first``, the witness (the window's first failure, so a
    minimal-HF one).  Returns (matrix entry cost, partial)."""
    examined, cost, failures, partial = _scan_expected_pass(spec, key, args, first)
    report.examined += examined
    report.partial = partial
    for mask, rep in failures:
        record = _witness_record(spec.n, spec.d, ideal_from_mask(spec.n, spec.d, mask), rep)
        (report.witnesses if first else report.failures).append(record)
    return cost, partial


def _witness_record(n: int, d: int, I: MonomialIdeal, rep) -> dict:
    return {
        "n": n,
        "d": d,
        "generators": I.generator_strings(),
        "hf_d": I.hf(d),
        "report": rep.to_dict(),
    }


# ---------------------------------------------------------------------------
# campaigns


def verify_thm1(
    n: int,
    d: int,
    *,
    symmetry: bool = True,
    threads: int = 1,
    budget_ideals: int = DEFAULT_BUDGET_IDEALS,
    budget_entries: int = DEFAULT_BUDGET_ENTRIES,
) -> VerificationReport:
    """Confirm the WLP bound: no failures below it, a witness at it."""
    t0 = time.perf_counter()
    bound = theorem1_bound(n, d)
    top = basis_size(n, d) - n
    params = {"n": n, "d": d, "symmetry": symmetry, "threads": threads}
    report = VerificationReport("thm1", params, False, expected_bound=bound)
    below = SearchSpec(
        n, d, 0, min(bound - 1, top), symmetry, threads, budget_ideals, budget_entries
    )
    cost, partial = _scan_window(report, below, "wlp", {})
    witness_possible = bound <= top
    if witness_possible and not partial:
        at = replace(below, hf_min=bound, hf_max=bound, threads=1)
        _, partial = _scan_window(report, at, "wlp", {}, first=True)
    if report.failures:
        report.min_failing_hf = min(w["hf_d"] for w in report.failures)
    elif report.witnesses:
        report.min_failing_hf = bound
    report.confirmed = (
        not report.failures
        and not partial
        and (len(report.witnesses) > 0 or not witness_possible)
    )
    report.details = {
        "bound_attainable": witness_possible,
        "matrix_entry_cost": cost,
    }
    report.elapsed_seconds = time.perf_counter() - t0
    return report


def verify_thm2(
    n: int,
    d: int,
    i: int | None = None,
    *,
    symmetry: bool = True,
    threads: int = 1,
    budget_ideals: int = DEFAULT_BUDGET_IDEALS,
    budget_entries: int = DEFAULT_BUDGET_ENTRIES,
) -> VerificationReport:
    """Confirm the SLP bound (no i) or the per-power bound d-i+2 (with i).

    Below the bound every ideal must pass; at the bound the witness is the
    constructed support-complement ideal of the extremal dual element for
    i >= 2 (and for the SLP case with d >= 3), and is searched for otherwise.
    """
    t0 = time.perf_counter()
    top = basis_size(n, d) - n
    if i is None:
        bound = theorem2_bound(d)
        campaign = "thm2"
        key, args = "slp_shortcut", {}
    else:
        if not 1 <= i <= d - 1:
            raise ValueError("power must satisfy 1 <= i <= d-1")
        bound = d - i + 2
        campaign = "thm2-power"
        key, args = "power_shortcut", {"i": i}
    params = {"n": n, "d": d, "symmetry": symmetry, "threads": threads}
    if i is not None:
        params["i"] = i
    report = VerificationReport(campaign, params, False, expected_bound=bound)
    below = SearchSpec(
        n, d, 0, min(bound - 1, top), symmetry, threads, budget_ideals, budget_entries
    )
    cost, partial = _scan_window(report, below, key, args)
    witness = None
    constructed = (i is not None and i >= 2) or (i is None and d >= 3)
    if constructed:
        power = (d - 1) if i is None else i
        f, ideal = extremal_dual(n, d, power)
        rep = _run_check(ideal, key, args)
        witness = _witness_record(n, d, ideal, rep)
        witness["dual_element"] = str(f)
        ok = (not rep.verdict) and ideal.hf(d) == bound
        witness["achieves_bound"] = ok
        report.witnesses.append(witness)
        if ok:
            report.min_failing_hf = bound
        witness = witness if ok else None
    elif bound <= top and not partial:
        # searched witness: d = 2 SLP case and the i = 1 power case, where
        # the bound need not be attained; record the observed minimum, which
        # is the HF of the first failure over [bound, top].
        at = replace(below, hf_min=bound, hf_max=top, threads=1)
        _, partial = _scan_window(report, at, key, args, first=True)
        if report.witnesses:
            witness = report.witnesses[0]
            report.min_failing_hf = witness["hf_d"]
    sharp_required = constructed or (i is None and d == 2 and bound <= top)
    report.confirmed = (
        not report.failures
        and not partial
        and (witness is not None or not sharp_required)
        and (report.min_failing_hf is None or report.min_failing_hf >= bound)
    )
    report.details = {"matrix_entry_cost": cost, "bound_attainable": bound <= top}
    report.elapsed_seconds = time.perf_counter() - t0
    return report


def verify_thm37(
    n: int,
    d: int,
    i: int,
    *,
    budget: int = 10_000_000,
) -> VerificationReport:
    """Confirm that the minimal support of a degree-d dual element killed by
    the i-th power of the all-ones form is exactly d-i+2 over the full dual
    space (1 <= i <= d-1), with the constructed witness achieving it."""
    t0 = time.perf_counter()
    if not 1 <= i <= d - 1:
        raise ValueError("need 1 <= i <= d-1")
    expected = d - i + 2
    params = {"n": n, "d": d, "i": i, "budget": budget}
    report = VerificationReport("thm37", params, False, expected_bound=expected)
    zero = MonomialIdeal(n, [])
    found = min_kernel_support(zero, d, i, bound=expected, budget=budget)
    f = kernel_witness(n, d, i)
    killed = ell_power_contract(f, i).is_zero()
    report.details = {
        "min_support": found,
        "witness": str(f),
        "witness_support_size": len(f.support),
        "witness_killed": killed,
    }
    report.examined = basis_size(n, d)
    report.min_failing_hf = found
    report.confirmed = found == expected and killed and len(f.support) == expected
    report.elapsed_seconds = time.perf_counter() - t0
    return report


def crosscheck_lemmas(
    n: int,
    d: int,
    sample: int | None = None,
    seed: int = DEFAULT_SEED,
) -> VerificationReport:
    """Shortcut deciders against the full deciders on enumerated ideals.

    Wherever the shortcut gates hold the verdicts must agree exactly; gate
    violations fall back to the full check and are counted, not failed.
    Any disagreement is a hard failure.  Walking every mask (no sample, or
    one at least as large as the mask space) is refused with
    ``BudgetExceededError`` when there are more masks than the default ideal
    budget.
    """
    t0 = time.perf_counter()
    _, mixed, _ = _campaign_space(n, d)
    total = 1 << len(mixed)
    if sample is None or sample >= total:
        if total > DEFAULT_BUDGET_IDEALS:
            raise BudgetExceededError(
                f"{total} masks exceed the ideal budget {DEFAULT_BUDGET_IDEALS}; "
                "pass a sample size"
            )
        masks = range(total)
        sample_used = None
    else:
        rng = random.Random(seed)
        masks = sorted(rng.sample(range(total), sample))
        sample_used = sample
    params = {"n": n, "d": d, "sample": sample_used, "seed": seed}
    report = VerificationReport("crosscheck-lemmas", params, False)
    agreements = 0
    fallbacks = 0
    comparisons = 0
    disagreements = []
    for mask in masks:
        I = ideal_from_mask(n, d, mask)
        full = check_slp(I, "exact")
        short = check_slp_shortcut(I)
        if short.fallback:
            fallbacks += 1
        else:
            comparisons += 1
            if short.verdict == full.verdict:
                agreements += 1
            else:
                disagreements.append(
                    {"mask": mask, "check": "slp", "full": full.verdict,
                     "shortcut": short.verdict,
                     "generators": I.generator_strings()}
                )
        for power in range(1, d):
            ps = check_power_shortcut(I, power)
            full_power = all(p.maximal for p in full.pairs if p.i == power)
            if ps.fallback:
                fallbacks += 1
            else:
                comparisons += 1
                if ps.verdict == full_power:
                    agreements += 1
                else:
                    disagreements.append(
                        {"mask": mask, "check": f"power-{power}",
                         "full": full_power, "shortcut": ps.verdict,
                         "generators": I.generator_strings()}
                    )
    report.examined = len(masks)
    report.failures = disagreements
    report.confirmed = not disagreements
    report.details = {
        "comparisons": comparisons,
        "agreements": agreements,
        "fallbacks": fallbacks,
    }
    report.elapsed_seconds = time.perf_counter() - t0
    return report


NAMED_CASES = ("brenner-kaid-3", "mmn-4", "mmn-5")


def _almost_complete_intersection(n: int) -> MonomialIdeal:
    gens = [tuple(n if t == s else 0 for t in range(n)) for s in range(n)]
    gens.append((1,) * n)
    return MonomialIdeal(n, gens)


def monomial_complete_intersection(n: int, d: int) -> MonomialIdeal:
    return MonomialIdeal(n, [tuple(d if t == s else 0 for t in range(n)) for s in range(n)])


def named_examples() -> VerificationReport:
    """Canonical sanity suite: the almost complete intersections fail the
    WLP, monomial complete intersections have the SLP, and every (3, 2)
    quotient has both properties."""
    t0 = time.perf_counter()
    report = VerificationReport("named-examples", {}, False)
    cases = []
    for name, arity in zip(NAMED_CASES, (3, 4, 5)):
        I = _almost_complete_intersection(arity)
        rep = check_wlp(I, "exact", early_stop=True)
        cases.append(
            {"case": name, "property": "WLP", "expected": False,
             "verdict": rep.verdict, "ok": rep.verdict is False,
             "witness": None if rep.witness is None else list(rep.witness)}
        )
    for arity in (3, 4):
        for deg in (2, 3, 4):
            I = monomial_complete_intersection(arity, deg)
            rep = check_slp(I, "exact")
            cases.append(
                {"case": f"ci-{arity}-{deg}", "property": "SLP", "expected": True,
                 "verdict": rep.verdict, "ok": rep.verdict is True}
            )
    spec = SearchSpec(3, 2, 0, 3, symmetry=False)
    both_ok = True
    count = 0
    for I in enumerate_equigenerated(spec):
        count += 1
        ok = check_wlp(I, "exact").verdict and check_slp(I, "exact").verdict
        both_ok = both_ok and ok
    cases.append(
        {"case": "all-3-2", "property": "WLP+SLP", "expected": True,
         "verdict": both_ok, "ok": both_ok, "count": count}
    )
    report.details = {"cases": cases}
    report.examined = len(cases)
    report.confirmed = all(c["ok"] for c in cases)
    report.elapsed_seconds = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# form-ideal campaigns


def random_form_ideal(n: int, d: int, rng: random.Random, max_attempts: int = 100) -> FormIdeal:
    """Random artinian ideal of forms of degree d with small coefficients."""
    basis = monomial_basis(n, d)
    for _ in range(max_attempts):
        s = n + rng.choice((0, 1, 2))
        gens = []
        for _ in range(s):
            coeffs = {m: Fraction(rng.randint(-3, 3)) for m in basis}
            coeffs = {m: c for m, c in coeffs.items() if c}
            if not coeffs:
                coeffs = {basis[rng.randrange(len(basis))]: Fraction(1)}
            gens.append(coeffs)
        I = FormIdeal(n, gens)
        try:
            if is_artinian(I):
                return I
        except CapExceededError:
            continue
    raise RuntimeError("could not sample an artinian form ideal")


def wiebe_initial_ideal_check(
    n: int = 3,
    degrees: tuple[int, ...] = (2, 3),
    samples: int = 100,
    seed: int = DEFAULT_SEED,
    trials: int = 3,
) -> VerificationReport:
    """Degreewise initial ideals on random form ideals: the Hilbert function
    is preserved, and whenever the monomial quotient by the initial ideal has
    the SLP, the randomized check confirms it for the original quotient."""
    t0 = time.perf_counter()
    rng = random.Random(seed)
    params = {"n": n, "degrees": list(degrees), "samples": samples,
              "seed": seed, "trials": trials}
    report = VerificationReport("wiebe-initial", params, False)
    hf_mismatches = []
    wiebe_violations = []
    ini_slp_count = 0
    for idx in range(samples):
        d = degrees[idx % len(degrees)]
        I = random_form_ideal(n, d, rng)
        e = socle_degree(I)
        leads = initial_ideal_degreewise(I, "degrevlex", upto=e + 1)
        J = monomial_ideal_from_leads(leads, n)
        if hilbert_function(I, e + 1) != hilbert_function(J, e + 1):
            hf_mismatches.append(idx)
            continue
        if check_slp(J, "exact").verdict:
            ini_slp_count += 1
            trial_seed = seed + 1000 * (idx + 1)
            if not check_slp(I, "randomized", seed=trial_seed, trials=trials).verdict:
                wiebe_violations.append({"index": idx, "seed": trial_seed})
    report.examined = samples
    report.failures = [{"hf_mismatch_index": k} for k in hf_mismatches] + wiebe_violations
    report.confirmed = not report.failures
    report.details = {"initial_ideal_slp_count": ini_slp_count}
    report.elapsed_seconds = time.perf_counter() - t0
    return report
