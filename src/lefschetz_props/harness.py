"""Enumeration of equigenerated artinian monomial ideals and the
verification campaigns for the sharp Hilbert-function bounds.

Enumeration is keyed on dual supports: an equigenerated artinian ideal in
degree d is the complement of a subset T of the non-pure-power degree-d
monomials (the pure powers are forced by artinianness), and HF(R, d) = |T|.
Supports are bitmasks, optionally reduced to one representative per orbit
under variable permutations; both Lefschetz properties are
permutation-invariant, so campaign conclusions are unchanged by the
reduction.  A mask is the smallest of its orbit when no permutation image
is smaller: one byte lookup per mask byte gives every image at once,
packed into the lanes of one int, and one subtraction compares them all
with the mask.  The below-bound window of a campaign starts at the empty
mask and is walked depth first on the orderly tree (one node per orbit,
its largest mask, or per subset without symmetry), in preorder, holding
only the path it is on.  A window that starts higher is the at-bound
witness search: one popcount, which streams the smallest mask of each
orbit in ascending order and stops at its first failure.  So a sweep
records a failure under its orbit's largest mask, a witness search under
its smallest.

A campaign runs one check, a value built once per (n, d, key, i)
(``_mask_decider``) that every scan function takes: the key that
``_run_check(I, check)`` dispatches on, the critical map's power, gate and
rows, and what the cost reads.  It decides each visited mask from that
critical map (``_decide_mask(check, mask, certified)``) and builds no
ideal or report for a mask that passes.  Inside the lemma gate
HF(d-i) = dim S_{d-i} >= HF(d) (i = 1 for the WLP, the shortcut's power,
d-1 for the SLP) the check passes exactly when ell^i maps R_{d-i} onto R_d,
that is, when the rows of that map for the mask's monomials are
independent; for the WLP the pairs below it are free and every later pair
is onto by propagation.  The walk certifies most below-bound masks as it
goes: each node extends its parent's GF(2) echelon basis of those rows by
the row of its one new bit, and a nonzero remainder shows the rows
independent mod 2, hence over Q, for the whole orbit.  A certified mask is
decided without ranking anything.  The rest rank their rows from scratch:
masks whose rows are dependent mod 2 (which may still be independent over
Q), and every streamed mask.  Only a mask that fails, or lies outside the
gate, becomes a ``SupportIdeal`` (its standard monomials one bitmask over
the box [0, d)^n, so its Hilbert function and matrices equal those of the
same MonomialIdeal) and goes through the full check, whose report is
recorded with that ideal.  The matrix entry cost a budget counts is
HF(j) HF(j+1) summed over the pairs the full check would list, not over
the one map that is ranked, so it is the same either way; a passing mask's
cost needs only the Hilbert function above d.

One loop scans every window, mask by mask (``_scan_expected_pass(report,
spec, check)``): a window from popcount 0 is a sweep that records every
failure, one from higher a witness search that stops at its first.  Its
budgets stop it right after the mask that uses one up.  ``verify_thm1``
and ``verify_thm2`` only pick the check.  One driver (``_verify_bound``)
reads the bound and the witness off the check's critical power i, since
every campaign bound is sharp: d-i+2 with the extremal dual witness for
i >= 2, Theorem 1's bound with a witness searched for at it for i = 1.
It sweeps below the bound, then builds or searches for the witness with
what the sweep left of each budget.  Every campaign runs in one process.
Failures are listed by popcount, then mask, so no complete report depends
on the scan order.

``min_kernel_support`` (behind ``verify_thm37``) finds the girth of the
rows of ell^i: S_{d-i} -> S_d on an ideal's degree-d standard monomials
by a search of its own, which ranks only the row sets that can be
dependent.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from functools import lru_cache, reduce
from itertools import permutations
from typing import NamedTuple

from ._ranks_py import _packed_rows
from .combinatorics import basis_index, basis_size, monomial_basis
from .duality import ell_power_contract, extremal_dual, kernel_witness
from .errors import BudgetExceededError, CapExceededError
from .ideals import (
    FormIdeal,
    MonomialIdeal,
    SupportIdeal,
    _BoxTables,
    _box_tables,
    _support_std,
    byte_or_tables,
    hilbert_function,
    initial_ideal_degreewise,
    is_artinian,
    monomial_ideal_from_leads,
    socle_degree,
    support_positions,
)
from .lefschetz import (
    DEFAULT_SEED,
    _build_monomial_rows,
    _lemma_pair,
    _lemma_power,
    _mask_rows_independent,
    _support_rows,
    check_power,  # unused here; campaign_bench wraps harness.check_power
    check_power_shortcut,
    check_slp,
    check_slp_shortcut,
    check_wlp,
    ones_form,
)
from .reporting import VerificationReport

DEFAULT_BUDGET_IDEALS = 10**6
DEFAULT_BUDGET_ENTRIES = 10**8
DEFAULT_RANK_BUDGET = 10_000_000


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
    """Enumeration window over equigenerated artinian (n, d) ideals.

    ``threads`` selects nothing: every scan runs in this process.  It is
    validated and echoed in a campaign report's ``params``, and goes with
    the ``thm1-3-5-par`` benchmark workload, which passes it."""

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


class _SymmetryTables(NamedTuple):
    """Every moving permutation image of a mask in one int
    (``_symmetry_tables``): P lanes of m+1 bits, lane k holding the k-th
    image in its low m bits over a clear guard bit m."""

    per_byte: tuple[tuple[int, ...], ...]  # byte k, value v -> packed images
    ones: int                              # bit 0 of every lane
    guards: int                            # bit m of every lane


@lru_cache(maxsize=None)
def _symmetry_tables(n: int, d: int) -> _SymmetryTables:
    """Byte lookup tables (``byte_or_tables``) of the images of a support
    mask over the m ``support_positions`` under the P permutations of the
    variables that move one of its bits, packed into one int, for
    ``_is_canonical``.  Mask bit b goes to lane k's bit sigma_k(b), so the
    packed images of a mask are the OR of the entries of its bytes.  They
    hold 256 ceil(m/8) ints of P(m+1) bits: at (4, 4) 1,024 ints of 736
    bits, at (6, 3) 1,792 ints of 36,669 bits (8 MiB)."""
    positions = support_positions(n, d)
    basis = monomial_basis(n, d)
    index = basis_index(n, d)
    bit_of = {g: p for p, g in enumerate(positions)}
    m = len(positions)
    width = m + 1
    identity = list(range(m))
    bit_images = [0] * m
    lane = 0
    for sigma in permutations(range(n)):
        targets = [bit_of[index[tuple(basis[g][s] for s in sigma)]] for g in positions]
        if targets == identity:
            continue
        for b, t in enumerate(targets):
            bit_images[b] |= 1 << lane * width + t
        lane += 1
    ones = sum(1 << k * width for k in range(lane))
    return _SymmetryTables(byte_or_tables(bit_images), ones, ones << m)


def _is_canonical(mask: int, tables: _SymmetryTables) -> bool:
    """Whether no permutation image (``_symmetry_tables``) of the mask is
    smaller than the mask itself, that is, whether the mask is the smallest
    of its orbit.

    One pass over the mask's bytes gives every image, and one subtraction
    compares them all with the mask (SWAR, Knuth, TAOCP 4A, 7.1.3): with
    every guard bit set, lane k of the packed images minus the mask in
    every lane is 2^m + image_k - mask, which stays in its lane and keeps
    its guard bit exactly when image_k >= mask.  So some image is smaller
    exactly when a guard bit is cleared.  Images of a complement are the
    complements of the images, so a mask is the largest of its orbit
    exactly when its complement passes."""
    per_byte, ones, guards = tables
    images = 0
    rest = mask
    for table in per_byte:
        images |= table[rest & 255]
        rest >>= 8
    return ((images | guards) - mask * ones) & guards == guards


def _orderly_walk(m: int, depth: int, tables, rows):
    """Every orbit of masks over m bits up to popcount ``depth``, one node
    of the orderly tree each (Read, Ann. Discrete Math. 1978; McKay,
    J. Algorithms 1998), in preorder, yielded as mask << 1 | certified.
    ``tables`` None is the trivial group: every subset is a node.

    The nodes are the orbit maxima, and the walk yields them as they are.
    Removing the lowest bit of an orbit maximum leaves an orbit maximum, so
    the children of a node p are its extensions by one bit below its
    lowest set bit whose complement passes ``_is_canonical``.  They are
    walked largest new bit first, each with its subtree, so the walk holds
    one path: at most m pending siblings per depth.

    ``rows`` holds one packed GF(2) row per mask bit
    (``lefschetz._support_rows``).  Each node on the path whose rows are
    independent mod 2 keeps a GF(2) echelon basis of them as one int, the
    basis row with leading bit p in bits p*w .. p*w + w-1 for rows of
    width w.  A child reduces the row of its new bit against its parent's
    basis; a remainder that reaches an empty slot certifies the child's
    rows independent mod 2, hence over Q, and fills that slot of its
    basis.  A permutation of the variables permutes the rows and the
    columns of multiplication by ell^i on any ideal it fixes, so the
    certificate holds for the whole orbit.
    """
    full = (1 << m) - 1
    width = max(rows).bit_length()
    slot = (1 << width) - 1
    # Each pending node waits on the stack as its yield, or as the one's
    # complement of it when it may have children, with its basis on a stack
    # of its own.
    stack = [~1]
    bases = [0]
    while stack:
        x = stack.pop()
        expand = x < 0
        if expand:
            x = ~x
            basis = bases.pop()
        yield x
        if not expand:
            continue
        parent = x >> 1
        size = parent.bit_count()
        low = (parent & -parent or 1 << m).bit_length() - 1
        if size >= depth or not low:
            continue
        inner = size + 1 < depth
        for b in range(low):
            child = parent | 1 << b
            if tables is not None and not _is_canonical(full ^ child, tables):
                continue
            certified = 0
            v = 0 if basis is None else rows[b]
            while v:
                p = v.bit_length() - 1
                row = basis >> p * width & slot
                if not row:
                    certified = 1
                    break
                v ^= row
            x = child << 1 | certified
            if b and inner:
                stack.append(~x)
                bases.append(basis | v << p * width if certified else None)
            else:
                stack.append(x)


def _window_tables(spec: SearchSpec):
    """The window's mask width m and its symmetry tables (None without)."""
    tables = _symmetry_tables(spec.n, spec.d) if spec.symmetry else None
    return len(support_positions(spec.n, spec.d)), tables


def iter_support_masks(spec: SearchSpec):
    """Bitmasks over the mixed monomials with popcount in the HF window, by
    popcount, then ascending (Gosper's hack, HAKMEM item 175), lazily; with
    symmetry, only the smallest mask of each orbit."""
    m, tables = _window_tables(spec)
    for k in range(spec.hf_min, spec.hf_max + 1):
        mask = (1 << k) - 1
        while mask >> m == 0:
            if tables is None or _is_canonical(mask, tables):
                yield mask
            if not mask:
                break
            low = mask & -mask
            ripple = mask + low
            mask = ripple | ((mask ^ ripple) >> 2) // low


def ideal_from_mask(n: int, d: int, mask: int) -> SupportIdeal:
    """Equigenerated artinian ideal whose dual support is the given mask."""
    return SupportIdeal(n, d, mask)


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


def _run_check(I, check: _Check):
    if check.key == "wlp":
        return check_wlp(I, "exact", early_stop=True)
    if check.key == "slp_shortcut":
        return check_slp_shortcut(I)
    return check_power_shortcut(I, check.power)


class _Check(NamedTuple):
    """One campaign check (``_mask_decider``): the key that ``_run_check``
    dispatches on, and what ``_decide_mask`` and the orderly walk read of
    its critical map ell^i: S_{d-i} -> S_d."""

    key: str                   # "wlp", "slp_shortcut" or "power_shortcut"
    power: int                 # i of the critical map; a power shortcut's own
    source: int                # dim S_{d-i}
    free: int | None           # WLP cost of the pairs below d-1; None: shortcut
    box: _BoxTables            # ``_box_tables(n, d)``
    above: tuple[int, ...]     # the box positions of each degree above d
    packed: tuple[int, ...]    # the map's rows, packed mod 2 (``_support_rows``)
    rows: tuple[tuple, ...]    # and as integers


@lru_cache(maxsize=None)
def _mask_decider(n: int, d: int, key: str, i: int | None) -> _Check:
    """The check ``key`` of the (n, d) campaigns, with the power i of a
    power shortcut (None for the other keys).  The critical map's power is
    that of its lemma gate (``_lemma_power``): 1 for the WLP, the
    shortcut's i, d-1 for the SLP.  Campaigns only pass powers
    1 <= i <= d-1.  Below degree d a support ideal is all of S, so
    HF(d-i) = dim S_{d-i}, and a mask is inside the gate exactly when its
    popcount is at most that.  The WLP pairs j < d-1 cost dim S_j
    dim S_{j+1} for every support ideal in degree d."""
    i = _lemma_power(
        d, 1 if key == "wlp" else i, lambda k: basis_size(n, k) if k < d else 0
    )
    free = None
    if key == "wlp":
        free = sum(basis_size(n, j) * basis_size(n, j + 1) for j in range(d - 1))
    box = _box_tables(n, d)
    return _Check(
        key, i, basis_size(n, d - i), free, box, box.degree[d + 1:], *_support_rows(n, d, i)
    )


def _decide_mask(check: _Check, mask: int, certified: int) -> int | None:
    """The matrix entry cost ``_run_check(I, check)`` reports for a mask
    that passes, decided from the check's one critical map without building
    an ideal or a report; None when the mask is outside the gate or fails,
    and only the full check may report it.

    Every check's gate is the lemma gate of its power (``_mask_decider``):
    HF(d-i) = dim S_{d-i} >= HF(d) = popcount.  Inside it the map ell^i
    from R_{d-i} = S_{d-i} to R_d must be onto, which is independence of
    the rows of the mask's monomials; for the WLP the pairs below it are
    free and every pair after an onto one is onto
    (``lefschetz._scan_pairs``).  A mask ``certified`` by the orderly walk
    (``_orderly_walk``) has independent rows; any other mask ranks the
    check's rows that it picks (``_mask_rows_independent``).  The cost sums
    HF(j) HF(j+1) over the pairs the full check lists without building the
    quotient: for the WLP a per-(n, d) constant for the pairs below d-1,
    then dim S_{d-1} HF(d), then the degrees above d, each one popcount of
    the mask's standard monomials over the box (``ideals._support_std``),
    up to the first zero (every later one is zero too, since
    R_{k+1} = R_1 R_k); for a shortcut the lemma pair alone,
    dim S_{d-i} HF(d)."""
    _, _, source, free, box, above, packed, rows = check
    size = mask.bit_count()
    if size > source or not (certified or _mask_rows_independent(packed, rows, mask, source)):
        return None
    if free is None:
        return source * size
    cost = free + source * size
    std = _support_std(box, mask)
    for degree in above:
        h = (degree & std).bit_count()
        if not h:
            break
        cost += size * h
        size = h
    return cost


def _scan_order(spec: SearchSpec, check: _Check):
    """The masks of the window in the order a scan decides them, each as
    mask << 1 | certified by the check's critical map: the orderly walk's
    orbit maxima in preorder from popcount 0 (a campaign's sweep below its
    bound), and the orbit minima by popcount, then ascending, from higher
    (``iter_support_masks``; a witness search)."""
    if spec.hf_min:
        return (mask << 1 for mask in iter_support_masks(spec))
    m, tables = _window_tables(spec)
    return _orderly_walk(m, spec.hf_max, tables, check.packed)


def _scan_expected_pass(report, spec: SearchSpec, check: _Check) -> int:
    """Run the check over the window in scan order (``_scan_order``) into
    the report, and return the window's matrix entry cost.

    A window from popcount 0 is a sweep: each failure is a counterexample,
    recorded in ``report.failures`` under its orbit's largest mask, by
    (popcount, mask).  A window from higher is a witness search: it stops
    at its first failure, a minimal-HF one, recorded in
    ``report.witnesses``.  A failure is recorded from the ``SupportIdeal``
    it was checked on.  The budgets count mask by mask: the scan stops,
    partial, right after the mask whose cost takes the total over the entry
    budget, that mask counted, or once the ideal budget is used up with
    masks left.  A mask the critical map leaves
    undecided (``_decide_mask``) goes through the full check
    (``_run_check``).  Adds the masks examined to ``report.examined`` and
    sets ``report.partial``."""
    n, d = spec.n, spec.d
    ideals, entries = spec.budget_ideals, spec.budget_entries
    search = spec.hf_min > 0
    examined = cost = 0
    failures = []
    partial = False
    for x in _scan_order(spec, check):
        if examined == ideals:
            partial = True
            break
        mask = x >> 1
        spent = _decide_mask(check, mask, x & 1)
        if spent is None:
            I = ideal_from_mask(n, d, mask)
            rep = _run_check(I, check)
            spent = _report_cost(rep)
            if not rep.verdict:
                failures.append((mask, I, rep))
        examined += 1
        cost += spent
        if search and failures:
            break
        if cost > entries:
            partial = True
            break
    failures.sort(key=lambda failure: (failure[0].bit_count(), failure[0]))
    records = report.witnesses if search else report.failures
    records.extend(_witness_record(n, d, I, rep) for _, I, rep in failures)
    report.examined += examined
    report.partial = partial
    return cost


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


def _verify_bound(
    campaign: str, params: dict, spec: SearchSpec, check: _Check
) -> VerificationReport:
    """A bound's campaign: every ideal with HF(d) below the bound passes the
    check, and one at the bound fails it.  The check's critical power i
    (``check.power``) sets both.

    ``spec`` gives the campaign's (n, d), symmetry, threads and budgets,
    at the HF window [0, 0], and ``params`` the report's parameters past
    those.  For i >= 2 the bound is d-i+2 and the witness is built: the
    support-complement ideal of the extremal dual element
    (``extremal_dual``), which must fail at HF exactly the bound.  For
    i = 1, ell: R_{d-1} -> R_d fails to be onto exactly when the WLP fails,
    so the bound is Theorem 1's (``theorem1_bound``) and the witness is
    searched for at the bound only.  The sweep scans HF 0 .. bound-1.  The
    search gets what the sweep left of each budget, so the budgets cover
    the whole campaign; ``matrix_entry_cost`` is the sweep's."""
    t0 = time.perf_counter()
    n, d, i = spec.n, spec.d, check.power
    bound = theorem1_bound(n, d) if i == 1 else d - i + 2
    top = basis_size(n, d) - n
    attainable = bound <= top
    params = {"n": n, "d": d, "symmetry": spec.symmetry, "threads": spec.threads, **params}
    report = VerificationReport(campaign, params, False, expected_bound=bound)
    below = replace(spec, hf_max=min(bound - 1, top))
    cost = _scan_expected_pass(report, below, check)
    attained = False
    if i >= 2:
        f, ideal = extremal_dual(n, d, i)
        rep = _run_check(ideal, check)
        witness = _witness_record(n, d, ideal, rep)
        witness["dual_element"] = str(f)
        attained = witness["achieves_bound"] = not rep.verdict and ideal.hf(d) == bound
        report.witnesses.append(witness)
    elif attainable and not report.partial:
        search = replace(
            below, hf_min=bound, hf_max=bound,
            budget_ideals=spec.budget_ideals - report.examined,
            budget_entries=spec.budget_entries - cost,
        )
        _scan_expected_pass(report, search, check)
        attained = bool(report.witnesses)
    failing = [w["hf_d"] for w in report.failures]
    report.min_failing_hf = min(failing, default=bound if attained else None)
    report.confirmed = not failing and not report.partial and (attained or not attainable)
    report.details = {"bound_attainable": attainable, "matrix_entry_cost": cost}
    report.elapsed_seconds = time.perf_counter() - t0
    return report


def verify_thm1(
    n: int,
    d: int,
    *,
    symmetry: bool = True,
    threads: int = 1,
    budget_ideals: int = DEFAULT_BUDGET_IDEALS,
    budget_entries: int = DEFAULT_BUDGET_ENTRIES,
) -> VerificationReport:
    """Confirm the WLP bound: no failures below it, a witness at it.  The
    budgets cover the whole campaign.  ``threads`` is only validated and
    recorded in ``params`` (``SearchSpec``)."""
    spec = SearchSpec(n, d, 0, 0, symmetry, threads, budget_ideals, budget_entries)
    return _verify_bound("thm1", {}, spec, _mask_decider(n, d, "wlp", None))


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
    """Confirm the SLP bound (no i) or the bound of the power i (with i),
    each read off its critical power (``_verify_bound``).  The SLP's is
    d-1, so its bound is ``theorem2_bound(d)``: 3, or Theorem 1's 4 for
    d = 2.  The budgets cover the whole campaign.  ``threads`` is only
    validated and recorded in ``params`` (``SearchSpec``)."""
    if i is None:
        campaign, params, key = "thm2", {}, "slp_shortcut"
    elif 1 <= i <= d - 1:
        campaign, params, key = "thm2-power", {"i": i}, "power_shortcut"
    else:
        raise ValueError("power must satisfy 1 <= i <= d-1")
    spec = SearchSpec(n, d, 0, 0, symmetry, threads, budget_ideals, budget_entries)
    return _verify_bound(campaign, params, spec, _mask_decider(n, d, key, i))


def min_kernel_support(
    I: MonomialIdeal,
    d: int,
    i: int,
    bound: int,
    budget: int = DEFAULT_RANK_BUDGET,
) -> int | None:
    """Smallest support size <= bound of a nonzero degree-d dual element
    killed by the i-th power of the all-ones form, or None.

    x^c o y^a = (a!/(a-c)!) y^(a-c), so the contraction matrix is the
    transpose of multiplication by ell^i into degree d with row a scaled by
    a! and column b by 1/b!, and the answer is the girth of that map's rows,
    the fewest dependent ones.  Their support touches each of its columns
    at least twice (a stopping set; Di et al., IEEE Trans. Inf. Theory
    2002) and is connected through shared columns.  So the search grows
    each row set from its smallest row (after Rosnes and Ytrehus, IEEE
    Trans. Inf. Theory 2009): while a column is touched once, by each row
    that touches the one with the fewest such rows; else it ranks the
    stopping set (``_mask_rows_independent``), which lowers the bound to
    its size - 1 if dependent and grows by each row that shares one of its
    columns if not.  Each branch excludes the rows its earlier siblings
    took, so no set is reached twice.  ``budget`` counts the sets reached,
    each before it is handled.
    """
    return _kernel_support_search(I, d, i, bound, budget)[0]


def _kernel_support_search(I, d, i, bound, budget):
    """``min_kernel_support``'s answer and the row sets its search reached."""
    if I.n < 1:
        raise ValueError("need n >= 1")
    if not 1 <= i <= d:
        raise ValueError("need 1 <= i <= d")
    if budget < 0:
        raise ValueError("budget must be non-negative")
    nrows = len(I.standard_indices(d))
    if not nrows:
        raise ValueError(f"R_{d} is zero: every monomial of degree {d} is in the ideal")
    if not 1 <= bound <= nrows:
        raise ValueError(f"bound must lie in 1..{nrows}")
    rows, _, ncols, _ = _build_monomial_rows(I, ones_form(I.n), i, d - i)
    packed = _packed_rows(rows)
    touches = [sum(1 << c for c, e in enumerate(row) if e) for row in rows]
    touched_by = [sum(1 << r for r, t in enumerate(touches) if t >> c & 1) for c in range(ncols)]
    found = None
    reached = 0
    # a set: its rows, the columns they touch once and twice or more, and
    # the rows no branch from it may take: its own and those below its anchor
    stack = [(1 << a, touches[a], 0, (2 << a) - 1) for a in reversed(range(nrows))]
    while stack:
        taken, once, twice, excluded = stack.pop()
        size = taken.bit_count()
        if size > bound:
            continue  # pushed before a dependent set lowered the bound
        reached += 1
        if reached > budget:
            raise BudgetExceededError(f"minimal-support search exceeded {budget} row sets")
        if not once and not _mask_rows_independent(packed, rows, taken, ncols):
            found, bound = size, size - 1
            continue
        if size == bound:
            continue
        # grow by the free rows of the once-touched column with the fewest, or of any
        free = []
        cover = once or twice
        while cover:
            low = cover & -cover
            cover ^= low
            free.append(touched_by[low.bit_length() - 1] & ~excluded)
        branch = min(free, key=int.bit_count) if once else reduce(int.__or__, free, 0)
        while branch:
            low = branch & -branch
            branch ^= low
            excluded |= low
            t = touches[low.bit_length() - 1]
            stack.append((taken | low, (once ^ t) & ~twice, twice | once & t, excluded))
    return found, reached


def verify_thm37(
    n: int,
    d: int,
    i: int,
    *,
    budget: int = DEFAULT_RANK_BUDGET,
) -> VerificationReport:
    """Confirm that the minimal support of a degree-d dual element killed by
    the i-th power of the all-ones form is exactly d-i+2 over the full dual
    space (1 <= i <= d-1), with the constructed witness achieving it.
    ``examined`` is the row sets the search reached, the unit ``budget``
    counts."""
    t0 = time.perf_counter()
    if n < 3 or not 1 <= i <= d - 1:
        raise ValueError("need n >= 3 and 1 <= i <= d-1")
    expected = d - i + 2
    params = {"n": n, "d": d, "i": i, "budget": budget}
    report = VerificationReport("thm37", params, False, expected_bound=expected)
    zero = MonomialIdeal(n, [])
    found, reached = _kernel_support_search(zero, d, i, expected, budget)
    f = kernel_witness(n, d, i)
    killed = ell_power_contract(f, i).is_zero()
    report.details = {
        "min_support": found,
        "witness": str(f),
        "witness_support_size": len(f.support),
        "witness_killed": killed,
    }
    report.examined = reached
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

    Each ideal gets one full SLP check.  The SLP shortcut and each power
    shortcut i = 1..d-1 run only where their gate (``_lemma_pair``) holds,
    and must agree exactly with the full verdict, or with that power's pairs
    of the full check; outside the gate a fallback is counted and no
    shortcut runs.  Any disagreement is a hard failure.  A run of more
    ideals than the default ideal budget (every mask, with no sample or one
    at least as large as the mask space, or an explicit sample) is refused
    with ``BudgetExceededError`` before any mask is drawn.  A sample below one
    would examine no ideal and confirm nothing, and below d = 2 no shortcut
    gate holds, so either is a ``ValueError``.
    """
    if d < 2:
        raise ValueError("need d >= 2")
    if sample is not None and sample < 1:
        raise ValueError(f"crosscheck sample must be at least 1, got {sample}")
    t0 = time.perf_counter()
    total = 1 << len(support_positions(n, d))
    walk_all = sample is None or sample >= total
    count = total if walk_all else sample
    if count > DEFAULT_BUDGET_IDEALS:
        hint = "pass a sample size" if walk_all else "pass a smaller sample"
        raise BudgetExceededError(
            f"{count} masks exceed the ideal budget {DEFAULT_BUDGET_IDEALS}; {hint}"
        )
    if walk_all:
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
        for power in (None, *range(1, d)):
            if _lemma_pair(I, power) is None:
                fallbacks += 1
                continue
            if power is None:
                check, expected = "slp", full.verdict
                short = check_slp_shortcut(I)
            else:
                check = f"power-{power}"
                expected = all(p.maximal for p in full.pairs if p.i == power)
                short = check_power_shortcut(I, power)
            comparisons += 1
            if short.verdict == expected:
                agreements += 1
            else:
                disagreements.append(
                    {"mask": mask, "check": check, "full": expected,
                     "shortcut": short.verdict,
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


def random_form_ideal(n: int, d: int, rng: random.Random) -> FormIdeal:
    """Random artinian ideal of forms of degree d with small coefficients,
    from at most 100 draws."""
    basis = monomial_basis(n, d)
    for _ in range(100):
        s = n + rng.choice((0, 1, 2))
        gens = []
        for _ in range(s):
            coeffs = {m: rng.randint(-3, 3) for m in basis}
            coeffs = {m: c for m, c in coeffs.items() if c}
            if not coeffs:
                coeffs = {basis[rng.randrange(len(basis))]: 1}
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
    if n < 1:
        raise ValueError("need n >= 1")
    if not degrees or min(degrees) < 1:
        raise ValueError("need at least one degree, each at least 1")
    if samples < 0:
        raise ValueError("samples must be non-negative")
    if trials < 1:
        raise ValueError("randomized mode needs at least one trial")
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
        leads = initial_ideal_degreewise(I, upto=e + 1)
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
