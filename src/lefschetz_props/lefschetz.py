"""Multiplication-map matrices and the Lefschetz-property deciders.

Every matrix is read from one cached table of the full ring, ``_columns``,
which sends a source monomial and an offset exponent c of degree i to the
target index, together with the coefficients of ell^i over their common
denominator (``_integer_weights``): a monomial quotient keeps the rows and
columns of its standard monomials, and a form quotient reduces each column
modulo the ideal's degrevlex span.  A form column is expanded with the
integer weights and reduced fraction-free, so it comes out as integers over
a positive scale; the deciders rank the integer rows (scaling a column, or
the whole matrix, keeps the rank), and only ``mult_map_matrix`` divides the
scales back out.

Monomial quotients are decided with the all-ones linear form, which suffices
for monomial algebras; form quotients use seeded random trial forms, with the
per-map convention that maximal rank achieved in any trial stands (specializing
a form can only drop rank) and a failure is only reported when every trial
fails.  Every reported rank is exact: each matrix goes through the one rank
policy of ``_kernels``, where a rank mod 2 or mod the word prime
only certifies maximal rank (a modular rank is a lower bound), and anything
smaller is recomputed with fraction-free exact elimination.

Maps whose source and target both sit below the minimal generator degree are
multiplication maps of the full polynomial ring; those are injective, hence
recorded as maximal without building a matrix.  Neither is a matrix built
for a map past an onto one: if ell^i maps R_j onto R_{j+i}, it maps every
later R_k onto R_{k+i} (Migliore-Miro-Roig-Nagel, Trans. AMS 2011,
Prop. 2.1), so such a pair is recorded with rank HF(k+i).

An exact scan of any ideal, monomial or form, decides two more kinds of
pair without a matrix (``_scan_pairs``), each with its exact rank:

- a pair its exact scans decided before under the same form, read from the
  ideal's record cache: a rank depends only on the ideal, the form and the
  pair, so a shortcut after the full check re-ranks nothing;
- a power ell^i = ell^(i-a) ell^a through R_{j+a} whose two factors are in
  the cache: by Sylvester's inequality its rank is at least
  r_1 + r_2 - HF(j+a), and a bound that reaches min(HF(j), HF(j+i)) is the
  rank.

On a monomial ideal it decides a third: a map with a one-dimensional side
under a form with no zero coefficient has rank one, since every coefficient
of ell^i is nonzero and the divisors of a standard monomial are standard,
so the one row or column has a nonzero entry.  A form quotient's entries
are reduced modulo its span, and ell^i itself can lie in a form ideal, so
there that map is built.  Randomized scans build every map: a randomized
record is the best rank of several trial forms.

Both row builders pack each integer column mod 2 into one int as they fill
the rows, and every map enters the rank policy (``_kernels.rank_rows``)
with its integer rows and those parity columns, so its GF(2) rank, the
policy's first step, never packs its rows again.  A support ideal holds
its Hilbert function as one tuple, so the dimensions of a pair are two
lookups.  A campaign that needs only the verdict of the map from S_{d-i}
to S_d skips the ideal: it picks that map's rows for the monomials of a
support mask out of one cached per-(n, d, i) table (``_support_rows``, the
zero ideal's rows from the same builder, which its check holds), packed
mod 2 and as integers, and runs them through ``_mask_rows_independent``,
as ``min_kernel_support`` does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from . import _kernels
from .combinatorics import basis_index, basis_size, monomial_basis, multinomial
from .exactlinalg import ExactMatrix
from ._ranks_py import _packed_rows
from .ideals import (
    FormIdeal,
    MonomialIdeal,
    reduce_mod_piece,
    socle_degree,
    support_positions,
)
from .reporting import LefschetzReport, PairRecord

DEFAULT_TRIALS = 3
DEFAULT_COEFF_BOUND = 1000
DEFAULT_SEED = 1


@dataclass(frozen=True)
class LinearForm:
    """Linear form given by its coefficient vector (not all zero)."""

    coefficients: tuple

    def __post_init__(self):
        for a in self.coefficients:
            if not isinstance(a, (int, Fraction)):
                raise TypeError(f"coefficient {a!r} is not an int or Fraction")
        if not self.coefficients or all(c == 0 for c in self.coefficients):
            raise ValueError("linear form must be nonzero")

    @property
    def n(self) -> int:
        return len(self.coefficients)


@lru_cache(maxsize=None)
def ones_form(n: int) -> LinearForm:
    return LinearForm((1,) * n)


def random_linear_form(n: int, seed: int) -> LinearForm:
    """Integer coefficients uniform in [1, DEFAULT_COEFF_BOUND]; deterministic
    in the seed."""
    rng = random.Random(seed)
    return LinearForm(tuple(rng.randint(1, DEFAULT_COEFF_BOUND) for _ in range(n)))


@lru_cache(maxsize=None)
def _columns(n: int, j: int, i: int) -> tuple:
    """Multiplication of the full ring from degree j to degree j+i by every
    offset monomial x^c of degree i at once: for each index into
    monomial_basis(n, j), the pairs (target index into monomial_basis(n, j+i),
    offset index c into monomial_basis(n, i))."""
    tgt_index = basis_index(n, j + i)
    offsets = monomial_basis(n, i)
    return tuple(
        tuple(
            (tgt_index[tuple(x + y for x, y in zip(a, c))], k)
            for k, c in enumerate(offsets)
        )
        for a in monomial_basis(n, j)
    )


@lru_cache(maxsize=128)
def _integer_weights(n: int, i: int, coefficients: tuple) -> tuple[tuple[int, ...], int]:
    """Coefficients of the i-th power of the linear form, one per offset of
    monomial_basis(n, i): multinomial(i; c) times the product of the
    coefficients to the powers c, over one common denominator D, the LCM of
    theirs: (the integers weight*D, D).  Integer coefficients are multiplied
    as ints, without a Fraction.  The cache is keyed on the form and the
    randomized deciders draw fresh forms per seed, so it keeps only the
    recent entries; one check reuses a form's weights for every degree."""
    weights = []
    for c in monomial_basis(n, i):
        w = multinomial(i, c)
        for a, e in zip(coefficients, c):
            w *= a ** e
        weights.append(w)
    denom = lcm(*(w.denominator for w in weights))
    return tuple(w.numerator * (denom // w.denominator) for w in weights), denom


def _build_monomial_rows(I: MonomialIdeal, ell: LinearForm, i: int, j: int):
    """Rows of the quotient multiplication map, scaled to integers by the
    common denominator of the weights of ell^i (``_integer_weights``), which
    leaves the rank unchanged; returns (rows, nrows, ncols, parity).  In the
    same pass each column is packed mod 2 into one int, bit r the parity of
    row r, and ``parity`` lists them."""
    src = I.standard_indices(j)
    tgt = I.standard_indices(j + i)
    rowmap = [-1] * basis_size(I.n, j + i)
    for r, gi in enumerate(tgt):
        rowmap[gi] = r
    cols = _columns(I.n, j, i)
    weights = _integer_weights(I.n, i, tuple(ell.coefficients))[0]
    rows = [[0] * len(src) for _ in tgt]
    parity = []
    for ci, gi in enumerate(src):
        bits = 0
        for tg, c in cols[gi]:
            rr = rowmap[tg]
            if rr >= 0:
                rows[rr][ci] = weights[c]
                if weights[c] & 1:
                    bits |= 1 << rr
        parity.append(bits)
    return rows, len(tgt), len(src), parity


@lru_cache(maxsize=None)
def _support_rows(n: int, d: int, i: int) -> tuple[tuple, tuple]:
    """Rows of multiplication by the i-th power of the all-ones form from
    S_{d-i} to S_d (the zero ideal's map), one per mixed degree-d monomial
    in support mask bit order (``support_positions``), kept twice: packed
    mod 2 into one int each (bit c is the parity of column c), and as
    tuples of ints."""
    rows = _build_monomial_rows(MonomialIdeal(n, []), ones_form(n), i, d - i)[0]
    mixed = [rows[g] for g in support_positions(n, d)]
    return tuple(_packed_rows(mixed)), tuple(tuple(row) for row in mixed)


def _mask_rows_independent(packed, rows, mask: int, ncols: int) -> bool:
    """Whether the rows that the set bits of the mask pick are linearly
    independent over Q, given as ``packed`` mod 2 (``_packed_rows``) and as
    integer ``rows``, by the rank policy (``_kernels.rank_rows``)."""
    picked = [p for p in range(mask.bit_length()) if mask >> p & 1]
    parity = [packed[p] for p in picked]
    return _kernels.rank_rows([rows[p] for p in picked], ncols, parity) == len(picked)


def _form_columns(I: FormIdeal, ell: LinearForm, i: int, j: int):
    """Columns of the quotient multiplication map for a form ideal, on
    integers: each source monomial's image is expanded with the integer
    weights of ell^i, reduced modulo the degree-(j+i) span
    (``reduce_mod_piece``) and projected onto the standard monomials.
    Returns (columns, scales, nrows): the exact column ci is columns[ci]
    divided by the positive integer scales[ci].  A piece lists its columns
    in monomial_basis order, so ``_columns`` indexes them directly."""
    pji = I.piece(j + i)
    src_index = basis_index(I.n, j)
    cols = _columns(I.n, j, i)
    weights, denom = _integer_weights(I.n, i, tuple(ell.coefficients))
    columns, scales = [], []
    for a in I.piece(j).standard:
        vec = [0] * len(pji.columns)
        for tg, c in cols[src_index[a]]:
            vec[tg] = weights[c]
        part, scale = reduce_mod_piece(pji, vec)
        columns.append(part)
        scales.append(scale * denom)
    return columns, scales, len(pji.standard)


def _build_form_rows(I: FormIdeal, ell: LinearForm, i: int, j: int):
    """Rows of a form ideal's multiplication map with every column scaled
    to integers (``_form_columns``), which leaves the rank unchanged;
    returns (rows, nrows, ncols, parity) like ``_build_monomial_rows``, each
    integer column packed mod 2 into one int."""
    columns, _, nrows = _form_columns(I, ell, i, j)
    rows = [[col[r] for col in columns] for r in range(nrows)]
    parity = [sum(1 << r for r, e in enumerate(col) if e & 1) for col in columns]
    return rows, nrows, len(columns), parity


def _build_rows(I, ell: LinearForm, i: int, j: int):
    if isinstance(I, MonomialIdeal):
        return _build_monomial_rows(I, ell, i, j)
    return _build_form_rows(I, ell, i, j)


def _checked_form(I, ell: LinearForm | None, i: int, j: int) -> LinearForm:
    """The form of the map ell^i from degree j (the all-ones form for None),
    after checking the map: i >= 1, j >= 0 and one coefficient per
    variable."""
    if i < 1 or j < 0:
        raise ValueError("need i >= 1 and j >= 0")
    if ell is None:
        return ones_form(I.n)
    if ell.n != I.n:
        raise ValueError(f"linear form has {ell.n} coefficients for {I.n} variables")
    return ell


def mult_map_matrix(I, ell: LinearForm | None, i: int, j: int) -> ExactMatrix:
    """Matrix of multiplication by the i-th power of ell from degree j to
    degree j+i, rows indexed by the target standard monomials."""
    ell = _checked_form(I, ell, i, j)
    if isinstance(I, MonomialIdeal):
        rows, nrows, ncols, _ = _build_monomial_rows(I, ell, i, j)
        denom = _integer_weights(I.n, i, tuple(ell.coefficients))[1]
        if denom > 1:
            rows = [[Fraction(e, denom) if e else 0 for e in row] for row in rows]
        return ExactMatrix(nrows, ncols, rows)
    columns, scales, nrows = _form_columns(I, ell, i, j)
    rows = [
        [col[r] // s if col[r] % s == 0 else Fraction(col[r], s)
         for col, s in zip(columns, scales)]
        for r in range(nrows)
    ]
    return ExactMatrix(nrows, len(columns), rows)


def _pair_rank(I, ell: LinearForm, i: int, j: int) -> tuple[int, int, int]:
    """(exact rank, rows, columns) of multiplication by ell^i from degree j:
    the builder's integer rows and parity columns through the rank policy
    (``_kernels.rank_rows``)."""
    rows, nrows, ncols, parity = _build_rows(I, ell, i, j)
    return _kernels.rank_rows(rows, ncols, parity), nrows, ncols


def has_maximal_rank(I, ell: LinearForm | None, i: int, j: int) -> tuple[bool, int]:
    """Whether multiplication by ell^i from degree j has maximal rank; the
    exact rank is returned alongside.  The pair is scanned like any exact
    pair (``_scan_pairs``)."""
    ell = _checked_form(I, ell, i, j)
    rec = _scan_pairs(I, [(i, j)], "exact", ell, [], False)[0][0]
    return rec.maximal, rec.rank


def _resolve_mode(I, mode: str | None) -> str:
    if mode in (None, "auto"):
        return "exact" if isinstance(I, MonomialIdeal) else "randomized"
    if mode not in ("exact", "randomized"):
        raise ValueError(f"unknown mode {mode!r}")
    return mode


def _pair_via_forms(I, forms, i, j) -> PairRecord:
    """Per-map randomized record: best exact rank over the trial forms."""
    best = -1
    for ell in forms:
        r, nrows, ncols = _pair_rank(I, ell, i, j)
        best = max(best, r)
        if r == min(nrows, ncols):
            break
    return PairRecord(i, j, ncols, nrows, best, best == min(nrows, ncols))


def _pair_exact(I, ell, i, j) -> PairRecord:
    r, nrows, ncols = _pair_rank(I, ell, i, j)
    return PairRecord(i, j, ncols, nrows, r, r == min(nrows, ncols))


def _rank_one_record(nonzero: bool, i, j, hj, hji) -> PairRecord | None:
    """The record of a map with a one-dimensional side when ``nonzero``
    says the rule holds: a monomial quotient under a form with no zero
    coefficient, where the rank is one, since every coefficient of ell^i
    is nonzero and a standard monomial's divisors are standard, so the one
    source monomial divides every standard target, and the one target has
    a standard divisor in the source.  It fails on form quotients: in
    (x1^2, x2^2, x3^2, x1*x2 + x1*x3 + x2*x3), (x1 + x2 + x3)^2 lies in the
    ideal, so the map from R_0 has rank 0.  None when the rule does not
    apply."""
    if nonzero and min(hj, hji) == 1:
        return PairRecord(i, j, hj, hji, 1, True)
    return None


def _composed_record(known: dict, i, j, hj, hji) -> PairRecord | None:
    """The record of ell^i from R_j read off two known records of the same
    form: ell^i = ell^(i-a) ell^a through R_{j+a}, so by Sylvester's
    inequality its rank is at least r_1 + r_2 - HF(j+a), and a bound that
    reaches min(HF(j), HF(j+i)) is the rank.  None when no split
    1 <= a < i has both records known and reaches it."""
    low = min(hj, hji)
    for a in range(1, i):
        first = known.get((a, j))
        if first is None:
            continue
        second = known.get((i - a, j + a))
        if second is not None and first.rank + second.rank - first.dim_target >= low:
            return PairRecord(i, j, hj, hji, low, True)
    return None


def _scan_pairs(
    I, pair_list, mode, ell, forms, early_stop
) -> tuple[list[PairRecord], tuple[int, int] | None]:
    """Evaluate (i, j) pairs in the given order; free pairs (both degrees
    below the minimal generator degree, or zero target) skip the matrix.

    So do pairs past an onto map of the same power: once ell^i maps R_j
    onto R_{j+i}, R_{j+1+i} = R_1 R_{j+i} = ell^i R_{j+1}, so the map is onto
    from every later degree (in randomized mode the trial form that was
    onto stays onto), with its target dimension as rank.  This relies on
    each pair list ascending in j within one power i, as the WLP, SLP and
    power lists do.

    An exact scan of any ideal tries more routes before it builds a
    matrix, each giving the exact rank:

    - the record cache: the ideal keeps every record its exact scans
      decided, per form (``_records``), and a record already there is
      read, not decided again; a rank depends only on the ideal, the form
      and the pair;
    - rank one (``_rank_one_record``), on a monomial ideal only: under a
      form with no zero coefficient, a map with a one-dimensional side has
      rank one, since every coefficient of ell^i is nonzero and the
      divisors of a standard monomial are standard; a form ideal can
      contain ell^i, so there the map is built;
    - composition (``_composed_record``): ell^i from R_j is ell^(i-a)
      after ell^a through R_{j+a}, so its rank is at least r_1 + r_2 -
      HF(j+a) (Sylvester), and a bound that reaches min(HF(j), HF(j+i))
      is the rank; the two records are read from the cache, which the
      SLP's ascending powers fill first.

    Randomized scans neither read nor fill the cache and take none of
    these routes: a randomized record is the best of several trial
    forms."""
    d = I.min_degree
    hf = I.hf
    records: list[PairRecord] = []
    witness = None
    onto_powers: set[int] = set()
    known = None
    if mode == "exact":
        known = I._records.setdefault(ell.coefficients, {})
        nonzero = isinstance(I, MonomialIdeal) and all(ell.coefficients)
    for i, j in pair_list:
        rec = None if known is None else known.get((i, j))
        if rec is None:
            hj = hf(j)
            hji = hf(j + i)
            if hji == 0:
                rec = PairRecord(i, j, hj, 0, 0, True)
            elif d is not None and j + i < d:
                # full polynomial ring below the generators: injective
                rec = PairRecord(i, j, hj, hji, hj, True)
            elif i in onto_powers:
                rec = PairRecord(i, j, hj, hji, hji, True)
            elif mode == "randomized":
                rec = _pair_via_forms(I, forms, i, j)
            else:
                rec = (
                    _rank_one_record(nonzero, i, j, hj, hji)
                    or _composed_record(known, i, j, hj, hji)
                    or _pair_exact(I, ell, i, j)
                )
            if known is not None:
                known[i, j] = rec
        records.append(rec)
        if rec.rank == rec.dim_target:
            onto_powers.add(i)
        if not rec.maximal and witness is None:
            witness = (i, j)
            if early_stop:
                break
    return records, witness


def _full_check(
    I, prop, pairs_of, mode, seed, trials, early_stop, power=None
) -> LefschetzReport:
    """The one full decider: every (i, j) pair that ``pairs_of(socle degree)``
    lists must have maximal rank.  Exact mode uses the all-ones form;
    randomized mode draws ``trials`` forms from consecutive seeds."""
    mode = _resolve_mode(I, mode)
    pair_list = pairs_of(socle_degree(I))
    ell, forms, seeds = None, [], ()
    if mode == "randomized":
        if trials < 1:
            raise ValueError("randomized mode needs at least one trial")
        seeds = tuple(seed + t for t in range(trials))
        forms = [random_linear_form(I.n, s) for s in seeds]
    else:
        ell = ones_form(I.n)
    records, witness = _scan_pairs(I, pair_list, mode, ell, forms, early_stop)
    return LefschetzReport(
        property=prop,
        verdict=witness is None,
        method="full",
        mode=mode,
        pairs=tuple(records),
        witness=witness,
        power=power,
        ell=None if ell is None else ell.coefficients,
        seeds=seeds,
        trials=len(seeds),
    )


def check_wlp(
    I,
    mode: str | None = None,
    *,
    seed: int = DEFAULT_SEED,
    trials: int = DEFAULT_TRIALS,
    early_stop: bool = False,
) -> LefschetzReport:
    """Weak Lefschetz check: multiplication from every degree up to the socle
    must have maximal rank."""
    return _full_check(
        I, "WLP", lambda e: [(1, j) for j in range(e + 1)],
        mode, seed, trials, early_stop,
    )


def check_slp(
    I,
    mode: str | None = None,
    *,
    seed: int = DEFAULT_SEED,
    trials: int = DEFAULT_TRIALS,
    early_stop: bool = False,
) -> LefschetzReport:
    """Strong Lefschetz check: every power map between nonzero graded pieces
    must have maximal rank; pairs scanned in lexicographic (i, j) order."""
    return _full_check(
        I, "SLP", lambda e: [(i, j) for i in range(1, e + 1) for j in range(e - i + 1)],
        mode, seed, trials, early_stop,
    )


def check_power(
    I,
    i: int,
    mode: str | None = None,
    *,
    seed: int = DEFAULT_SEED,
    trials: int = DEFAULT_TRIALS,
    early_stop: bool = False,
) -> LefschetzReport:
    """Full check that multiplication by the i-th power has maximal rank in
    every degree."""
    if i < 1:
        raise ValueError("power must be positive")
    return _full_check(
        I, "power", lambda e: [(i, j) for j in range(max(e - i + 1, 0))],
        mode, seed, trials, early_stop, power=i,
    )


def _lemma_power(d: int, power: int | None, hf) -> int | None:
    """The shortcut gate on a Hilbert function ``hf`` with minimal generator
    degree d: the power i (``power``, or for None the SLP lemma's i = d-1),
    or None outside d >= 2, 1 <= i <= d-1, HF(R, d-i) >= HF(R, d)."""
    i = d - 1 if power is None else power
    if d >= 2 and 1 <= i < d and hf(d - i) >= hf(d):
        return i
    return None


def _lemma_pair(I: MonomialIdeal, power: int | None) -> tuple[int, int] | None:
    """The shortcut gate of ``_lemma_power`` on a monomial ideal: the lemma
    pair (i, d-i), where d is the minimal generator degree, or None."""
    d = I.min_degree or 0
    i = _lemma_power(d, power, I.hf)
    return None if i is None else (i, d - i)


def _shortcut_check(I: MonomialIdeal, power: int | None) -> LefschetzReport:
    """The one shortcut decider: the single surjectivity test of the i-th
    power on the lemma pair of ``_lemma_pair``.  Outside that gate the full
    check runs instead and the fallback is recorded, never silent.  Inside
    it the pair is scanned like any other, and maximal rank is
    surjectivity."""
    if not isinstance(I, MonomialIdeal):
        raise TypeError("the shortcut applies to monomial ideals")
    if power is not None and power < 1:
        raise ValueError("power must be positive")
    pair = _lemma_pair(I, power)
    if pair is None:
        rep = check_slp(I, "exact") if power is None else check_power(I, power, "exact")
        rep.fallback = True
        return rep
    ell = ones_form(I.n)
    records, witness = _scan_pairs(I, [pair], "exact", ell, [], False)
    return LefschetzReport(
        property="SLP" if power is None else "power",
        verdict=witness is None,
        method="shortcut",
        mode="exact",
        pairs=tuple(records),
        witness=witness,
        power=power,
        ell=ell.coefficients,
    )


def check_power_shortcut(I: MonomialIdeal, i: int) -> LefschetzReport:
    """Decide everywhere-maximal rank of the i-th power map from the single
    surjectivity test in degree d-i.

    Valid for monomial ideals with minimal generator degree d >= 2 when
    1 <= i <= d-1 and HF(R, d-i) >= HF(R, d); outside the gate the full check
    runs instead and the fallback is recorded, never silent.
    """
    return _shortcut_check(I, i)


def check_slp_shortcut(I: MonomialIdeal) -> LefschetzReport:
    """Decide the SLP from the single surjectivity test of the (d-1)-st power
    from degree 1 to degree d.

    Valid for monomial ideals with minimal generator degree d >= 2 when
    HF(R, 1) >= HF(R, d); outside the gate the full SLP check runs and the
    fallback is recorded.
    """
    return _shortcut_check(I, None)
