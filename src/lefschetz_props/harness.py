"""Enumeration of equigenerated artinian monomial ideals and the
verification campaigns for the sharp Hilbert-function bounds.

Enumeration is keyed on dual supports: an equigenerated artinian ideal in
degree d is the complement of a subset T of the non-pure-power degree-d
monomials (the pure powers are forced by artinianness), and HF(R, d) = |T|.
Supports are walked as bitmasks by popcount (= HF(R, d)), then ascending,
optionally reduced to canonical representatives under variable permutations;
both Lefschetz properties are permutation-invariant, so campaign conclusions
are unchanged by the reduction.  A mask is canonical when no permutation
image is smaller: one byte lookup per mask byte gives every image at once,
packed into the lanes of one int, and one subtraction compares them all with
the mask.  The below-bound window of a campaign starts at the empty mask and
is walked orderly: each popcount level is grown from the orbit maxima of the
level before, so only their one-bit extensions are tested, and each kept
orbit contributes its smallest image.  Windows that start higher (the
at-bound and searched-witness windows, which stop at their first failure)
or run without symmetry stream every mask of each popcount instead.

A campaign decides each visited mask from its one critical map and builds
no ideal or report for a mask that passes.  Inside the lemma gate
HF(d-i) = dim S_{d-i} >= HF(d) (i = 1 for the WLP, the shortcut's power,
d-1 for the SLP) the check passes exactly when ell^i maps R_{d-i} onto R_d,
that is, when the rows of that map for the mask's monomials are
independent; for the WLP the pairs below it are free and every later pair
is onto by propagation.  The orderly walk certifies most below-bound masks
as it grows them: each kept orbit maximum extends its parent's GF(2)
echelon basis of those rows by the row of its one new bit, and a nonzero
remainder shows the rows independent mod 2, hence over Q, for the whole
orbit.  A certified mask is decided without ranking anything.  The rest
rank their rows from scratch: masks whose rows are dependent mod 2 (which
may still be independent over Q), and every mask of the Gosper stream.
Only a mask that fails, or lies outside the gate, becomes a
``SupportIdeal`` (its standard monomials one bitmask over the box
[0, d)^n, so its Hilbert function and matrices equal those of the same
MonomialIdeal) and goes through the full check, whose report is recorded.
The matrix entry cost a budget counts is HF(j) HF(j+1) summed over the
pairs the full check would list, not over the one map that is ranked, so
it is the same either way; a passing mask's cost needs only the Hilbert
function above d.  Everything a decide reads that depends only on the
campaign, not on the mask, is one cached lookup.

With more than one thread, a below-bound window is split level by level:
the parent walks it until a level holds enough orbit maxima, then deals
them to forked workers.  Each orbit maximum has exactly one parent in the
orderly tree, so the workers' subtrees are disjoint; each worker grows and
decides its share of every later level, and the parent merges the shares
back into enumeration order.  Campaigns are deterministic: fixed
enumeration order, recorded seeds, and budgets counted over the merged
order, so no report depends on the number of threads.
"""

from __future__ import annotations

import os
import random
import time
from bisect import bisect_left, bisect_right
from contextlib import closing, suppress
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, islice, permutations
from math import comb
from typing import NamedTuple

from .combinatorics import basis_index, basis_size, monomial_basis
from .duality import (
    DEFAULT_RANK_BUDGET,
    ell_power_contract,
    extremal_dual,
    kernel_witness,
    min_kernel_support,
)
from .errors import BudgetExceededError, CapExceededError
from .ideals import (
    FormIdeal,
    MonomialIdeal,
    SupportIdeal,
    _box_tables,
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
    _lemma_pair,
    _lemma_power,
    _support_rows,
    check_power,  # unused here; campaign_bench wraps harness.check_power
    check_power_shortcut,
    check_slp,
    check_slp_shortcut,
    check_wlp,
    support_rows_independent,
)
from .reporting import VerificationReport

DEFAULT_BUDGET_IDEALS = 10**6
DEFAULT_BUDGET_ENTRIES = 10**8
# Masks per budget chunk: the granularity at which the entry budget stops a scan.
SCAN_CHUNK = 256
# Held orbit maxima per worker before a scan's levels are split across workers.
SPLIT_HELD = 512


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


class _SymmetryTables(NamedTuple):
    """Every moving permutation image of a support mask in one int
    (``_symmetry_tables``): P lanes of m+1 bits, lane k holding the k-th
    image in its low m bits over a clear guard bit m."""

    per_byte: tuple[tuple[int, ...], ...]  # byte k, value v -> packed images
    ones: int                              # bit 0 of every lane
    guards: int                            # bit m of every lane
    full: int                              # the m bits of one lane
    width: int                             # m + 1


@lru_cache(maxsize=None)
def _symmetry_tables(n: int, d: int) -> _SymmetryTables:
    """Byte lookup tables (``byte_or_tables``) of the images of a support
    mask under the P permutations of the variables that move one of its m
    bits, all packed into one int.  Mask bit b goes to lane k's bit
    sigma_k(b), so the packed images of a mask are the OR of the entries of
    its bytes, ceil(m/8) lookups for all P images at once.  The tables hold
    256 ceil(m/8) ints of P(m+1) bits: at (4, 4) 1,024 ints of 736 bits, at
    (6, 3) 1,792 ints of 36,669 bits (8 MiB)."""
    basis = monomial_basis(n, d)
    index = basis_index(n, d)
    mixed = support_positions(n, d)
    mixed_pos = {g: p for p, g in enumerate(mixed)}
    m = len(mixed)
    width = m + 1
    identity = list(range(m))
    bit_images = [0] * m
    lane = 0
    for sigma in permutations(range(n)):
        targets = [mixed_pos[index[tuple(basis[g][s] for s in sigma)]] for g in mixed]
        if targets == identity:
            continue
        for b, t in enumerate(targets):
            bit_images[b] |= 1 << lane * width + t
        lane += 1
    ones = sum(1 << k * width for k in range(lane))
    return _SymmetryTables(
        byte_or_tables(bit_images), ones, ones << m, (1 << m) - 1, width
    )


def _is_canonical(mask: int, tables: _SymmetryTables) -> int | None:
    """The largest permutation image (``_symmetry_tables``) of the mask when
    no image is smaller than the mask itself, that is, when the mask is the
    smallest of its orbit; else None.

    One pass over the mask's bytes gives every image, and one subtraction
    compares them all with the mask (SWAR, Knuth, TAOCP 4A, 7.1.3): with
    every guard bit set, lane k of the packed images minus the mask in
    every lane is 2^m + image_k - mask, which stays in its lane and keeps
    its guard bit exactly when image_k >= mask.  So some image is smaller
    exactly when a guard bit is cleared.  Only a mask that passes scans the
    lanes for the largest image.

    Images of a complement are the complements of the images, so the mask's
    complement is then the largest of its orbit, and the complement of the
    returned image is the smallest image of that complement."""
    per_byte, ones, guards, full, width = tables
    images = 0
    rest = mask
    for table in per_byte:
        images |= table[rest & 255]
        rest >>= 8
    if ((images | guards) - mask * ones) & guards != guards:
        return None
    top = mask
    while images:
        image = images & full
        if image > top:
            top = image
        images >>= width
    return top


def _grow_level(held: tuple, keep: bool, m: int, tables, rows=None):
    """One level of the orderly walk (Read, Ann. Discrete Math. 1978; McKay,
    J. Algorithms 1998), grown from the held orbit maxima of popcount k, a
    pair of lists (maxima, bases) that it uses up.  Returns the sorted orbit
    minima of popcount k+1, each as minimum << 1 | certified, and, with
    ``keep``, the pair held to grow the level after.

    Removing the lowest bit of an orbit maximum leaves an orbit maximum, so
    each orbit maximum of popcount k+1 is a parent p of popcount k with one
    bit below its lowest set; a child is kept when its complement passes
    ``_is_canonical``, whose one pass also gives the child's orbit minimum.
    A maximum that can have no children (lowest bit 0, or on the last
    level) is not held at all.

    ``rows`` holds one packed GF(2) row per mask bit
    (``lefschetz._support_rows``); without it nothing is certified.  Every
    held maximum whose rows are independent mod 2 keeps a GF(2) echelon
    basis of them as one int: the basis row with leading bit p sits in slot
    p, bits p*w .. p*w + w-1 for rows of width w.  A kept child reduces
    only the row of its new bit against its parent's basis, leading bit by
    leading bit.  A remainder that reaches an empty slot certifies that the
    child's rows are independent mod 2, hence over Q, and fills that slot
    of the child's basis.  A permutation of the variables permutes the rows
    and the columns of every power of the all-ones form, so the certificate
    also holds for the child's orbit minimum.  A parent's basis is dropped
    once its children are made.
    """
    full = (1 << m) - 1
    width = max(rows or (0,)).bit_length()
    slot = (1 << width) - 1
    maxima, bases = held
    minima = []
    children = []
    child_bases = []
    while maxima:
        parent = maxima.pop()
        basis = bases.pop()
        for b in range((parent & -parent or 1 << m).bit_length() - 1):
            child = parent | 1 << b
            top = _is_canonical(full ^ child, tables)
            if top is None:
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
            minima.append((full ^ top) << 1 | certified)
            if b and keep:
                children.append(child)
                child_bases.append(basis | v << p * width if certified else None)
    minima.sort()
    return minima, (children, child_bases)


def _orderly_levels(m: int, hf_max: int, tables, rows=None, k: int = 0, held=None):
    """The levels of the orderly walk up to popcount ``hf_max``, each as
    ``_grow_level`` returns it: from the empty mask, or, given the ``held``
    maxima of popcount k, from their children.  Only the current level is
    held: the next one is built only when asked for, and the list of the
    last one is emptied first."""
    if held is None:
        held = [0], [None if rows is None else 0]
        yield [0 if rows is None else 1], held
    for k in range(k, hf_max):
        level, held = _grow_level(held, k + 1 < hf_max, m, tables, rows)
        yield level, held
        level.clear()


def _gosper_level(m: int, k: int, tables):
    """Masks over m bits with popcount k, ascending (Gosper's hack, HAKMEM
    item 175); with symmetry ``tables``, only the canonical ones."""
    end = 1 << m
    mask = (1 << k) - 1
    while mask < end:
        if tables is None or _is_canonical(mask, tables) is not None:
            yield mask
        if not mask:
            return
        low = mask & -mask
        ripple = mask + low
        mask = ripple | ((mask ^ ripple) >> 2) // low


def iter_support_masks(spec: SearchSpec, rows=None):
    """Bitmasks over the mixed monomials with popcount in the HF window, by
    popcount, then ascending; with symmetry, only the smallest mask of each
    orbit.

    Two walks give this sequence.  A window from popcount 0 with symmetry
    (the below-bound window of every campaign) is walked orderly
    (``_orderly_levels``): it tests only children of orbit maxima, a
    fraction of the masks, and holds one popcount level at a time.  Any
    other window streams every mask of each popcount (``_gosper_level``) and
    keeps the canonical ones.  Orderly generation must start at the empty
    mask and build a whole level before yielding any of it, which costs
    more than it saves on the at-bound and searched-witness windows that
    stop at their first failure; without symmetry there is nothing to
    reduce.

    A campaign scan passes the packed rows of its critical map
    (``lefschetz._support_rows``) as ``rows`` and gets pairs (mask,
    certified) instead: certified when the orderly walk has shown the
    mask's rows independent mod 2, always False on the Gosper stream."""
    m = len(support_positions(spec.n, spec.d))
    tables = _symmetry_tables(spec.n, spec.d) if spec.symmetry else None
    if spec.symmetry and spec.hf_min == 0:
        for level, _ in _orderly_levels(m, spec.hf_max, tables, rows):
            if rows is None:
                yield from (x >> 1 for x in level)
            else:
                yield from ((x >> 1, (x & 1) == 1) for x in level)
        return
    for k in range(spec.hf_min, spec.hf_max + 1):
        for mask in _gosper_level(m, k, tables):
            yield mask if rows is None else (mask, False)


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


def _run_check(I, key: str, args: dict):
    if key == "wlp":
        return check_wlp(I, "exact", early_stop=True)
    if key == "slp_shortcut":
        return check_slp_shortcut(I)
    if key == "power_shortcut":
        return check_power_shortcut(I, args["i"])
    raise ValueError(f"unknown check {key!r}")


class _MaskDecider(NamedTuple):
    """What ``_decide_mask`` reads for one (n, d, check key, power)."""

    power: int                 # i of the critical map ell^i: S_{d-i} -> S_d
    source: int                # dim S_{d-i}
    free: int | None           # WLP cost of the pairs below d-1; None: shortcut
    mixed: int                 # every support mask bit
    cleared: tuple[tuple[int, ...], ...]  # ``_box_tables(n, d).cleared``
    above: tuple[int, ...]     # the box positions of each degree above d


@lru_cache(maxsize=None)
def _mask_decider(n: int, d: int, key: str, i: int | None) -> _MaskDecider:
    """The per-(n, d, key, i) part of ``_decide_mask``.  The critical map's
    power is that of its lemma gate (``_lemma_power``): 1 for the WLP, the
    shortcut's i, d-1 for the SLP (i None).  Campaigns only pass powers
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
    return _MaskDecider(
        i, basis_size(n, d - i), free, box.mixed, box.cleared, box.degree[d + 1:]
    )


def _decide_mask(
    n: int, d: int, mask: int, key: str, args: dict, certified: bool = False
) -> int | None:
    """The matrix entry cost ``_run_check`` reports for a mask that passes,
    decided from the one critical map without building an ideal or a
    report; None when the mask is outside the gate or fails, and only the
    full check may report it.

    Every key's gate is the lemma gate of its power (``_mask_decider``):
    HF(d-i) = dim S_{d-i} >= HF(d) = popcount.  Inside it the map ell^i
    from R_{d-i} = S_{d-i} to R_d must be onto, which is independence of
    the rows of the mask's monomials; for the WLP the pairs below it are
    free and every pair after an onto one is onto
    (``lefschetz._scan_pairs``).  A mask ``certified`` by the orderly walk
    (``_grow_level``) has independent rows; any other mask ranks them
    (``support_rows_independent``).  The cost sums HF(j) HF(j+1) over the
    pairs the full check lists without building the quotient: for the WLP
    a per-(n, d) constant for the pairs below d-1, then dim S_{d-1} HF(d),
    then the degrees above d, each one popcount of the box positions that
    no cleared bit's box multiples reach (as ``ideals.support_quotient``
    counts them), up to the first zero (every later one is zero too, since
    R_{k+1} = R_1 R_k); for a shortcut the lemma pair alone,
    dim S_{d-i} HF(d)."""
    i, source, free, mixed, cleared, above = _mask_decider(n, d, key, args.get("i"))
    size = mask.bit_count()
    if size > source or not (certified or support_rows_independent(n, d, i, mask)):
        return None
    if free is None:
        return source * size
    cost = free + source * size
    rest = mixed & ~mask
    killed = 0
    for table in cleared:
        killed |= table[rest & 255]
        rest >>= 8
    std = ~killed
    for degree in above:
        h = (degree & std).bit_count()
        if not h:
            break
        cost += size * h
        size = h
    return cost


def _full_check(n: int, d: int, mask: int, key: str, args: dict):
    """(matrix entry cost, failing report or None) of a mask that
    ``_decide_mask`` leaves to the full check."""
    rep = _run_check(ideal_from_mask(n, d, mask), key, args)
    return _report_cost(rep), None if rep.verdict else rep


def _serial_results(spec: SearchSpec, key: str, args: dict, rows, first: bool):
    """The window's masks decided in-process in enumeration order, at most
    ``spec.budget_ideals`` of them, yielded as one batch (costs, [(position,
    mask, failing report)]) per chunk of ``SCAN_CHUNK`` masks, which ends at
    its first failure with ``first``.  Returns whether any mask is left
    beyond the ideal limit."""
    n, d = spec.n, spec.d
    masks = iter_support_masks(spec, rows)
    budgeted = islice(masks, spec.budget_ideals)
    for chunk in iter(lambda: list(islice(budgeted, SCAN_CHUNK)), []):
        costs = []
        failures = []
        for mask, certified in chunk:
            cost = _decide_mask(n, d, mask, key, args, certified)
            if cost is None:
                cost, failure = _full_check(n, d, mask, key, args)
                if failure is not None:
                    failures.append((len(costs), mask, failure))
            costs.append(cost)
            if first and failures:
                break
        yield costs, failures
    return next(masks, None) is not None


def _usable_cpus() -> int | None:
    """The CPUs this process may run on; None when unknown."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count()


def _split_results(spec: SearchSpec, key: str, args: dict, rows, workers: int):
    """What ``_serial_results`` yields and returns without ``first``, one
    batch per popcount level, with the levels past the first wide one
    decided by ``workers`` forked processes.

    The levels are walked in-process, as the serial scan walks them, until
    a level is wide: its held orbit maxima (orderly walk) or the masks of
    the next popcount (Gosper stream) number at least ``SPLIT_HELD`` per
    worker.  A window that never gets that wide forks nothing.  Otherwise
    worker w takes every workers-th held maximum, with its GF(2) basis, and
    grows its own subtree from them, level by level; each orbit maximum has
    exactly one parent, so the subtrees are disjoint.  On the Gosper stream
    worker w keeps the positions = w mod workers of each level.  Each level
    is decided by ``_decide_share``, in-process or in every worker for its
    share, and the shares are merged back into ascending order, so the
    stream, and every report, is the serial one.
    """
    n, d, hf_max = spec.n, spec.d, spec.hf_max
    m = len(support_positions(n, d))
    tables = _symmetry_tables(n, d) if spec.symmetry else None
    orderly = spec.symmetry and spec.hf_min == 0
    walk = _orderly_levels(m, hf_max, tables, rows) if orderly else None
    bits = _cost_bits(n, d)
    low = (1 << bits) - 1
    left = spec.budget_ideals
    spent = 0
    crew = []
    idle = True
    try:
        for k in range(spec.hf_min, hf_max + 1):
            entries = spec.budget_entries - spent
            if crew:
                idle = False
                for _, conn in crew:
                    conn.send((left, entries))
                replies = [_reply(process, conn) for process, conn in crew]
                idle = True
            else:
                if orderly:
                    level, held = next(walk)
                else:
                    level = [mask << 1 for mask in _gosper_level(m, k, tables)]
                replies = [_decide_share(level, left, entries, n, d, key, args)]
            size = sum(reply[0] for reply in replies)
            decided = sorted(chain.from_iterable(reply[1] for reply in replies))
            # A share decided only in part is in order only up to its first
            # undecided mask.
            cutoff = min((reply[3] for reply in replies if reply[3] is not None), default=None)
            if cutoff is not None:
                decided = decided[:bisect_left(decided, cutoff << bits)]
            take = min(left, size)
            costs = [x & low for x in islice(decided, take)]
            failures = sorted(
                (bisect_left(decided, mask << bits), mask, rep)
                for reply in replies for mask, rep in reply[2]
            )
            yield costs, [f for f in failures if f[0] < len(costs)]
            if len(costs) < take:
                raise RuntimeError("campaign scan read past what its workers decided")
            left -= take
            spent += sum(costs)
            if not left or k == hf_max:
                # Every popcount 0..m has a mask, and hf_max <= m.
                return take < size or k < hf_max
            if not crew and (
                len(held[0]) if orderly else comb(m, k + 1)
            ) >= SPLIT_HELD * workers:
                shares = [
                    _orderly_share(m, hf_max, tables, rows, k, [h[w::workers] for h in held])
                    if orderly else _gosper_share(m, hf_max, tables, k, w, workers)
                    for w in range(workers)
                ]
                for worker in _fork_workers(shares, n, d, key, args):
                    crew.append(worker)
    finally:
        for process, conn in crew:
            if idle:
                with suppress(OSError):
                    conn.send(None)
            else:
                process.terminate()
        for process, conn in crew:
            process.join()
            conn.close()


def _orderly_share(m: int, hf_max: int, tables, rows, k: int, held):
    """The levels above k of the orderly subtrees below the held maxima."""
    return (level for level, _ in _orderly_levels(m, hf_max, tables, rows, k, held))


def _gosper_share(m: int, hf_max: int, tables, k: int, w: int, workers: int):
    """Positions = w mod workers of the Gosper levels above k."""
    for j in range(k + 1, hf_max + 1):
        yield [mask << 1 for mask in islice(_gosper_level(m, j, tables), w, None, workers)]


@lru_cache(maxsize=None)
def _cost_bits(n: int, d: int) -> int:
    """Bits that hold the matrix entry cost of any one (n, d) mask: each
    pair costs HF(j) HF(j+1) <= dim S_j dim S_{j+1}, and R_j = 0 past the
    socle degree, which is at most n(d-1) since every x_t^d is in I."""
    return sum(basis_size(n, j) * basis_size(n, j + 1) for j in range(n * (d - 1) + 1)).bit_length()


def _decide_share(level: list, ideals: int, entries: int, n, d, key, args):
    """Decide a sorted level, or a worker's share of one, of masks encoded
    mask << 1 | certified, in order and in place: no more masks than the
    ``ideals`` left of the ideal budget, and once its own cost passes the
    ``entries`` left (the scan then stops within one chunk) at most one
    chunk more.  Returns (size, the list cut to the decided masks, each now
    mask << ``_cost_bits`` | cost, [(mask, failing report)], the first
    undecided mask or None); one int per mask keeps the replies small and
    sorts them by mask."""
    bits = _cost_bits(n, d)
    size = len(level)
    failures = []
    spent = 0
    stop = min(ideals, size)
    j = 0
    while j < stop:
        mask = level[j] >> 1
        cost = _decide_mask(n, d, mask, key, args, level[j] & 1)
        if cost is None:
            cost, failure = _full_check(n, d, mask, key, args)
            if failure is not None:
                failures.append((mask, failure))
        if cost >> bits:
            raise OverflowError(f"mask cost {cost} exceeds {bits} bits")
        level[j] = mask << bits | cost
        spent += cost
        j += 1
        if spent > entries:
            stop = min(stop, j + SCAN_CHUNK - 1)
    cutoff = level[j] >> 1 if j < size else None
    del level[j:]
    return size, level, failures, cutoff


def _fork_workers(shares: list, n: int, d: int, key: str, args: dict):
    """Fork one ``_split_worker`` per share of levels, yielding each as a
    (process, connection) pair once it runs.  Workers are forked (pinned,
    since the default start method on Linux changes in Python 3.14), so
    they start without re-importing the package and with their share
    already in memory."""
    import multiprocessing

    context = multiprocessing.get_context("fork")
    for levels in shares:
        conn, child_conn = context.Pipe()
        process = context.Process(
            target=_split_worker, args=(child_conn, levels, n, d, key, args), daemon=True
        )
        process.start()
        child_conn.close()
        yield process, conn


def _split_worker(conn, levels, n: int, d: int, key: str, args: dict) -> None:
    """Grow and decide (``_decide_share``) the next level of a share per
    request, (ideals left, entries left) of the scan's budgets before the
    level; None ends the worker.  Replies with what ``_decide_share``
    returns, or with the exception it raised, its traceback as a note."""
    try:
        for ideals, entries in iter(conn.recv, None):
            conn.send(_decide_share(next(levels), ideals, entries, n, d, key, args))
    except Exception as exc:
        if hasattr(exc, "add_note"):
            import traceback

            exc.add_note(f"in a campaign worker:\n{traceback.format_exc()}")
        conn.send(exc)


def _reply(process, conn):
    """A worker's reply; raises the exception it sent, or if it died (only
    the worker holds the other end of its connection)."""
    try:
        reply = conn.recv()
    except EOFError:
        process.join()
        raise RuntimeError(f"campaign worker exited with code {process.exitcode}") from None
    if isinstance(reply, Exception):
        raise reply
    return reply


def _scan_expected_pass(spec: SearchSpec, key: str, args: dict, first: bool = False):
    """Run a check over the window in enumeration order, collecting failures.

    Returns (examined, cost, failures, partial).  The budgets count in
    enumeration order over chunks of ``SCAN_CHUNK`` masks: the scan stops,
    partial, at the end of the chunk in which the entry budget is
    exceeded, or once the ideal budget is used up with masks left.  With
    ``first`` it stops at the first failing ideal.  A scan with
    ``spec.threads`` > 1 (never a ``first`` one) splits its wide levels
    across that many forked workers, at most one per usable CPU
    (``_split_results``); the batches are the serial stream cut
    differently, so no report depends on ``spec.threads``.
    """
    i = _mask_decider(spec.n, spec.d, key, args.get("i")).power
    rows = _support_rows(spec.n, spec.d, i)[0]
    workers = 1 if first else min(spec.threads, _usable_cpus() or 1)
    if workers == 1:
        batches = _serial_results(spec, key, args, rows, first)
    else:
        batches = _split_results(spec, key, args, rows, workers)
    examined = 0
    cost = 0
    failures = []
    with closing(batches):
        while True:
            try:
                costs, fails = next(batches)
            except StopIteration as end:
                return examined, cost, failures, cost > spec.budget_entries or end.value
            # totals[j]: the cost after the batch's first j masks
            totals = list(accumulate(costs, initial=cost))
            over = bisect_right(totals, spec.budget_entries)
            stop = len(costs)
            if over <= stop:
                # the end of the chunk that first goes over the entry budget
                edge = -(-(examined + over) // SCAN_CHUNK) * SCAN_CHUNK
                stop = min(stop, edge - examined)
            if first and fails and fails[0][0] < stop:
                j, mask, rep = fails[0]
                failures.append((mask, rep))
                return examined + j + 1, totals[j + 1], failures, False
            failures.extend((mask, rep) for j, mask, rep in fails if j < stop)
            examined += stop
            cost = totals[stop]
            if over <= len(costs) and not examined % SCAN_CHUNK:
                return examined, cost, failures, True


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
    if report.failures:
        report.min_failing_hf = min(w["hf_d"] for w in report.failures)
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
    budget: int = DEFAULT_RANK_BUDGET,
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

    Each ideal gets one full SLP check.  The SLP shortcut and each power
    shortcut i = 1..d-1 run only where their gate (``_lemma_pair``) holds,
    and must agree exactly with the full verdict, or with that power's pairs
    of the full check; outside the gate a fallback is counted and no
    shortcut runs.  Any disagreement is a hard failure.  A run of more
    ideals than the default ideal budget (every mask, with no sample or one
    at least as large as the mask space, or an explicit sample) is refused
    with ``BudgetExceededError`` before any mask is drawn.  A sample below one
    would examine no ideal and confirm nothing, so it is a ``ValueError``.
    """
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
