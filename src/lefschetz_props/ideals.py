"""Monomial and form ideals: graded pieces, Hilbert functions, socle degree,
and degreewise initial ideals.

Graded pieces of a monomial ideal are computed by degree-by-degree
divisibility propagation over the cached monomial bases, stored as bitmasks.
The equigenerated artinian ideals of the campaigns (``SupportIdeal``) skip
that: every standard monomial lies in the box [0, d)^n, whose positions
sum_t a_t d^t order each degree exactly as monomial_basis does, so the whole
quotient is one bitmask over the box, cut out of per-(n, d) tables built on
first use, and its whole Hilbert function is counted once, one popcount per
degree.  Its ``standard_indices`` read the set bits of that mask, so the
multiplication maps of ``lefschetz`` are built from it like those of any
monomial ideal.
Form ideals never go through a Groebner engine: for an ideal with minimal
generator degree d, the degree-k piece is the explicit span of all
monomial-times-generator products over the columns monomial_basis(n, k),
reduced once per degree and cached.  That basis is descending degrevlex, so
the pivots of a piece are the degrevlex leading monomials, the one term
order of this package: a Hilbert function or a rank does not depend on the
order, and Wiebe's transfer concerns the degrevlex initial ideal.  The whole
form path runs on integers: each generator is scaled to integer
coefficients, each product is read off the shared table
``product_table``, a piece whose GF(2) rank already equals its column
count is all of S_k and skips the elimination (a modular rank only ever
certifies full rank), any other piece keeps the integer rows of
fraction-free forward elimination in row-echelon form, and vectors are
reduced modulo a piece fraction-free, returning integers over a positive
scale.  The reduced rational rows are derived only on demand.  Ideals are
immutable after construction and their caches only grow, so concurrent
readers are safe.
That holds for every ideal's record cache too (``_records``), which
``lefschetz._scan_pairs`` fills in exact mode with the exact record of
each map it decides, per form: a record depends only on the ideal, the
form and the pair, so a second writer stores an equal one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from ._ranks_py import integer_echelon, rank_gf2_bits
from .combinatorics import (
    Monomial,
    basis_index,
    basis_size,
    macaulay_growth,
    monomial_basis,
    product_table,
)
from .errors import CapExceededError, NotArtinianError
from .exactlinalg import ExactMatrix, row_reduce

SOCLE_CAP_MARGIN = 8


def divides(g: Monomial, m: Monomial) -> bool:
    return all(ge <= me for ge, me in zip(g, m))


@lru_cache(maxsize=None)
def _parent_table(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """For each degree-k monomial, the indices of its degree-(k-1) divisors."""
    idx_prev = basis_index(n, k - 1)
    table = []
    for m in monomial_basis(n, k):
        parents = []
        for t in range(n):
            if m[t] > 0:
                parents.append(idx_prev[m[:t] + (m[t] - 1,) + m[t + 1:]])
        table.append(tuple(parents))
    return tuple(table)


# ---------------------------------------------------------------------------
# monomial ideals


class MonomialIdeal:
    """Ideal generated by monomials; generators kept divisibility-minimal."""

    __slots__ = ("n", "generators", "_masks", "_hf", "_records")

    def __init__(self, n: int, generators):
        gens = []
        for g in generators:
            g = tuple(int(e) for e in g)
            if len(g) != n:
                raise ValueError(f"generator {g} has arity {len(g)}, expected {n}")
            if any(e < 0 for e in g):
                raise ValueError(f"negative exponent in {g}")
            if sum(g) == 0:
                raise ValueError("constant monomial cannot be a generator")
            gens.append(g)
        gens = _minimal_subset(set(gens))
        gens.sort(key=lambda g: (sum(g), basis_index(n, sum(g))[g]))
        self.n = n
        self.generators = tuple(gens)
        self._masks: dict[int, int] = {}
        self._hf: dict[int, int] = {}
        self._records: dict[tuple, dict] = {}

    @property
    def min_degree(self) -> int | None:
        """Minimal generator degree; None for the zero ideal."""
        if not self.generators:
            return None
        return sum(self.generators[0])

    @property
    def max_degree(self) -> int | None:
        if not self.generators:
            return None
        return sum(self.generators[-1])

    def is_equigenerated(self) -> bool:
        return bool(self.generators) and self.min_degree == self.max_degree

    def degree_mask(self, k: int) -> int:
        """Bitmask over monomial_basis(n, k): bit set iff the monomial lies
        in the ideal.  I_k = S_1 * I_{k-1} + (degree-k generators), filled
        degree by degree from the minimal generator degree."""
        if k < 0:
            raise ValueError("degree must be nonnegative")
        cached = self._masks.get(k)
        if cached is not None:
            return cached
        lo = self.min_degree
        if lo is None or k < lo:
            self._masks[k] = 0
            return 0
        for deg in range(lo, k + 1):
            if deg in self._masks:
                continue
            mask = 0
            if deg > lo:
                prev = self._masks[deg - 1]
                if prev:
                    for idx, parents in enumerate(_parent_table(self.n, deg)):
                        for p in parents:
                            if (prev >> p) & 1:
                                mask |= 1 << idx
                                break
            idxmap = basis_index(self.n, deg)
            for g in self.generators:
                if sum(g) == deg:
                    mask |= 1 << idxmap[g]
            self._masks[deg] = mask
        return self._masks[k]

    def hf(self, k: int) -> int:
        cached = self._hf.get(k)
        if cached is None:
            cached = basis_size(self.n, k) - self.degree_mask(k).bit_count()
            self._hf[k] = cached
        return cached

    def standard_indices(self, k: int) -> tuple[int, ...]:
        """Ascending positions in monomial_basis(n, k) of the standard
        monomials of degree k."""
        mask = self.degree_mask(k)
        return tuple(i for i in range(basis_size(self.n, k)) if not (mask >> i) & 1)

    def standard_monomials(self, k: int) -> tuple[Monomial, ...]:
        basis = monomial_basis(self.n, k)
        return tuple(basis[i] for i in self.standard_indices(k))

    def pure_power_degrees(self) -> dict[int, int]:
        """Variable index -> degree of its pure-power generator, if any."""
        out: dict[int, int] = {}
        for g in self.generators:
            nz = [t for t in range(self.n) if g[t] > 0]
            if len(nz) == 1:
                out[nz[0]] = g[nz[0]]
        return out

    def generator_strings(self) -> list[str]:
        from .parsing import format_monomial

        return [format_monomial(g, "x") for g in self.generators]

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.n == other.n and self.generators == other.generators

    def __hash__(self):
        return hash((self.n, self.generators))

    def __repr__(self) -> str:
        return f"MonomialIdeal(n={self.n}, gens={len(self.generators)})"


def _minimal_subset(mons: set[Monomial]) -> list[Monomial]:
    # drop first each monomial m with some m / x_t in the set: following
    # such quotients down ends at a monomial that stays and divides m, so
    # the minimal set is unchanged
    mons = [
        m for m in mons
        if not any(e and m[:t] + (e - 1,) + m[t + 1:] in mons for t, e in enumerate(m))
    ]
    by_degree = sorted(mons, key=sum)
    kept: list[Monomial] = []
    for m in by_degree:
        if not any(divides(g, m) for g in kept if sum(g) < sum(m)):
            kept.append(m)
    return kept


def minimalize(monomials) -> MonomialIdeal:
    """Divisibility-minimal generating set for the given monomials."""
    mons = list(monomials)
    if not mons:
        raise ValueError("need at least one monomial")
    n = len(mons[0])
    return MonomialIdeal(n, mons)


# ---------------------------------------------------------------------------
# support ideals


@dataclass(frozen=True)
class _BoxTables:
    """Per-(n, d) tables over the box [0, d)^n, where the exponent vector a
    sits at bit position sum_t a_t * d^t."""

    full: int                          # every box position
    degree: tuple[int, ...]            # k -> mask of the box positions of degree k
    positions: tuple[tuple[int, ...], ...]  # k -> those positions, ascending
    mixed: int                         # every support mask bit
    cleared: tuple[tuple[int, ...], ...]  # byte k, value v -> box multiples of
                                       # the mixed positions 8k + (bits of v)
    index: tuple[int, ...]             # box position -> monomial_basis index
    generators: tuple[tuple[Monomial, int], ...]  # degree-d basis, mixed position or -1


def byte_or_tables(images) -> tuple[tuple[int, ...], ...]:
    """Byte lookup tables of the map sending bit b of a mask to images[b]
    and a mask to the OR of the images of its bits: entry [k][v] is the
    image of the byte value v placed at bits 8k..8k+7."""
    tables = []
    for base in range(0, len(images), 8):
        table = [0] * 256
        for v in range(1, 256):
            b = base + (v & -v).bit_length() - 1
            table[v] = table[v & (v - 1)] | (images[b] if b < len(images) else 0)
        tables.append(tuple(table))
    return tuple(tables)


@lru_cache(maxsize=None)
def support_positions(n: int, d: int) -> tuple[int, ...]:
    """Indices into monomial_basis(n, d) of the mixed (non-pure-power)
    monomials; bit p of a support mask stands for the p-th of them."""
    return tuple(
        g for g, m in enumerate(monomial_basis(n, d)) if sum(1 for e in m if e) > 1
    )


@lru_cache(maxsize=None)
def _box_tables(n: int, d: int) -> _BoxTables:
    box = [tuple(pos // d**t % d for t in range(n)) for pos in range(d**n)]
    positions = [[] for _ in range(n * (d - 1) + 1)]
    index = []
    for pos, a in enumerate(box):
        positions[sum(a)].append(pos)
        index.append(basis_index(n, sum(a))[a])
    basis = monomial_basis(n, d)
    mixed_pos = {g: p for p, g in enumerate(support_positions(n, d))}
    generators = tuple((m, mixed_pos.get(g, -1)) for g, m in enumerate(basis))
    orthant = [
        sum(1 << pos for pos, a in enumerate(box) if divides(basis[g], a))
        for g in mixed_pos
    ]
    return _BoxTables(
        (1 << len(box)) - 1,
        tuple(sum(1 << pos for pos in ps) for ps in positions),
        tuple(tuple(ps) for ps in positions),
        (1 << len(orthant)) - 1,
        byte_or_tables(orthant),
        tuple(index),
        generators,
    )


def _support_std(box: _BoxTables, mask: int) -> int:
    """The standard monomials of the support ideal of the mask as one mask
    over the box: the full box minus the box multiples of every cleared
    mixed bit, read one byte of cleared bits at a time."""
    cleared = box.mixed & ~mask
    killed = 0
    for table in box.cleared:
        killed |= table[cleared & 255]
        cleared >>= 8
    return box.full & ~killed


def support_quotient(n: int, d: int, mask: int) -> tuple[int, tuple[int, ...]]:
    """(std, Hilbert function) of the support ideal of the mask
    (``SupportIdeal``): the standard monomials over the box
    (``_support_std``), and HF(k) for every box degree k, one popcount
    each."""
    box = _box_tables(n, d)
    std = _support_std(box, mask)
    return std, tuple([(std & m).bit_count() for m in box.degree])


class SupportIdeal(MonomialIdeal):
    """Equigenerated artinian ideal in degree d given by its dual support.

    Bit p of ``mask`` stands for the p-th non-pure-power monomial of
    monomial_basis(n, d) (``support_positions``).  The ideal is generated by
    the n pure powers x_t^d and the non-pure-power monomials whose bit is
    clear, so HF(R, d) is the popcount of the mask.  Those generators have
    one degree, so they are already minimal.

    The quotient is ``std``, the standard monomials as one bitmask over the
    box [0, d)^n: the pure powers put every standard monomial inside the
    box, and a box position is standard iff no generator divides it, so
    ``std`` is the full box minus the box multiples of the mixed generators
    (``support_quotient``; a campaign reads only the degrees above d off
    the same tables, without an ideal, in ``harness._decide_mask(check,
    mask, certified)``, and builds a support ideal only for a mask that
    fails there, whose report ``harness._scan_expected_pass(report, spec,
    check)`` records from that ideal).
    Two equal-degree monomials in the box compare like their last differing
    exponents (base-d digits), so box order within one degree is the colex
    order of monomial_basis, and standard_indices and every matrix built
    from them match MonomialIdeal's entry for entry.  The whole Hilbert
    function is counted once, at construction, as one popcount of ``std``
    per box degree; ``hf`` and ``socle_degree`` read that tuple.  The
    standard indices of a degree are read off ``std`` on first use and
    kept, since one check builds many maps between the same degrees.
    """

    __slots__ = ("d", "std", "_box", "_hfs", "_indices")

    def __init__(self, n: int, d: int, mask: int):
        box = _box_tables(n, d)
        self.n = n
        self.d = d
        self.generators = tuple(
            [m for m, p in box.generators if p < 0 or not mask >> p & 1]
        )
        self.std, self._hfs = support_quotient(n, d, mask)
        self._box = box
        self._indices: dict[int, tuple[int, ...]] = {}
        self._records: dict[tuple, dict] = {}

    @property
    def min_degree(self) -> int:
        return self.d

    @property
    def max_degree(self) -> int:
        return self.d

    def pure_power_degrees(self) -> dict[int, int]:
        return dict.fromkeys(range(self.n), self.d)

    def hf(self, k: int) -> int:
        if k < 0:
            raise ValueError("degree must be nonnegative")
        hfs = self._hfs
        return hfs[k] if k < len(hfs) else 0

    def standard_indices(self, k: int) -> tuple[int, ...]:
        """Read off the set bits of ``std`` in degree k once; later calls
        for the same degree return the stored tuple."""
        cached = self._indices.get(k)
        if cached is not None:
            return cached
        if k < 0:
            raise ValueError("degree must be nonnegative")
        positions = self._box.positions
        std = self.std
        index = self._box.index
        cached = () if k >= len(positions) else tuple(
            [index[p] for p in positions[k] if std >> p & 1]
        )
        self._indices[k] = cached
        return cached

    def degree_mask(self, k: int) -> int:
        mask = (1 << basis_size(self.n, k)) - 1
        for i in self.standard_indices(k):
            mask ^= 1 << i
        return mask


# ---------------------------------------------------------------------------
# form ideals


class FormIdeal:
    """Ideal generated by homogeneous polynomials with exact coefficients."""

    __slots__ = ("n", "generators", "_pieces", "_records")

    def __init__(self, n: int, generators):
        gens = []
        for g in generators:
            terms = dict(g)
            clean: dict[Monomial, Fraction] = {}
            deg = None
            for mon, coeff in terms.items():
                mon = tuple(int(e) for e in mon)
                coeff = Fraction(coeff)
                if coeff == 0:
                    continue
                if len(mon) != n or any(e < 0 for e in mon):
                    raise ValueError(f"bad monomial {mon} for arity {n}")
                if deg is None:
                    deg = sum(mon)
                elif sum(mon) != deg:
                    raise ValueError("generator is not homogeneous")
                clean[mon] = coeff
            if not clean:
                raise ValueError("zero generator")
            if deg < 1:
                raise ValueError("generators must have degree at least 1")
            items = tuple(sorted(clean.items(), key=lambda kv: basis_index(n, deg)[kv[0]]))
            gens.append((deg, items))
        if not gens:
            raise ValueError("need at least one generator")
        gens.sort(key=lambda g: g[0])
        self.n = n
        self.generators = tuple(gens)
        self._pieces: dict[int, _FormPiece] = {}
        self._records: dict[tuple, dict] = {}

    @property
    def min_degree(self) -> int:
        return self.generators[0][0]

    def piece(self, k: int) -> "_FormPiece":
        cached = self._pieces.get(k)
        if cached is None:
            cached = _build_form_piece(self, k)
            self._pieces[k] = cached
        return cached

    def hf(self, k: int) -> int:
        """HF(S/I, k): the standard monomials of the degree-k piece."""
        return len(self.piece(k).standard)

    def standard_monomials(self, k: int) -> tuple[Monomial, ...]:
        return self.piece(k).standard

    def generator_strings(self) -> list[str]:
        from .parsing import format_terms

        return [format_terms(items, "x") for _, items in self.generators]

    def __repr__(self) -> str:
        return f"FormIdeal(n={self.n}, gens={len(self.generators)})"


@dataclass(frozen=True)
class _FormPiece:
    """Degree-k span of a form ideal in row-echelon form, kept on integers:
    the rows of ``integer_echelon``, each with a positive pivot and zeros
    before it, not back-substituted and not divided by the pivot.  The
    columns are monomial_basis(n, k), descending degrevlex, so the pivots
    are the degrevlex leading monomials and the other columns the standard
    ones."""

    columns: tuple[Monomial, ...]      # monomial_basis(n, k)
    rows: tuple[tuple[int, ...], ...]  # integer echelon rows over the columns
    pivots: tuple[int, ...]
    leads: tuple[Monomial, ...]        # pivot monomials = leading monomials
    standard: tuple[Monomial, ...]     # the non-pivot monomials
    standard_columns: tuple[int, ...]  # their positions among the columns

    @property
    def rref_rows(self) -> tuple[tuple, ...]:
        """The reduced row echelon form, derived on demand: ``row_reduce``
        of the echelon rows back-substitutes over them and divides each by
        its pivot, giving ints where that is exact and Fractions
        otherwise."""
        rref, _ = row_reduce(ExactMatrix(len(self.rows), len(self.columns), self.rows))
        return tuple(rref.row(i) for i in range(rref.rows))


def _build_form_piece(I: FormIdeal, k: int) -> _FormPiece:
    """The degree-k span of the monomial-times-generator products, each
    generator scaled to integer coefficients once and each product read off
    the shared table ``product_table``.  Rows are packed mod 2 as they are
    filled; when there are at least as many rows as columns and their GF(2)
    rank is the column count, the span is all of S_k and no elimination
    runs.  Otherwise ``integer_echelon`` reduces the rows."""
    cols = monomial_basis(I.n, k)
    ncols = len(cols)
    rows: list[list[int]] = []
    parity: list[int] = []
    for deg, items in I.generators:
        if deg > k:
            continue
        denom = lcm(*(c.denominator for _, c in items))
        index = basis_index(I.n, deg)
        terms = [(index[mon], c.numerator * (denom // c.denominator)) for mon, c in items]
        for products in product_table(I.n, k - deg, deg):
            row = [0] * ncols
            bits = 0
            for c, coeff in terms:
                pos = products[c][0]
                row[pos] = coeff
                if coeff & 1:
                    bits |= 1 << pos
            rows.append(row)
            parity.append(bits)
    if len(rows) >= ncols and rank_gf2_bits(parity) == ncols:
        rows = [[int(c == r) for c in range(ncols)] for r in range(ncols)]
        pivots = tuple(range(ncols))
    else:
        pivots = integer_echelon(rows, ncols)
    pivot_set = set(pivots)
    standard_columns = tuple(c for c in range(ncols) if c not in pivot_set)
    return _FormPiece(
        cols, tuple(map(tuple, rows[:len(pivots)])), pivots,
        tuple(cols[c] for c in pivots), tuple(cols[c] for c in standard_columns),
        standard_columns,
    )


def reduce_mod_piece(piece: _FormPiece, vec: list[int]) -> tuple[list[int], int]:
    """Reduce an integer coefficient vector (in the piece's column order)
    modulo the span, fraction-free: for each pivot c in ascending order with
    f = v[c] != 0 and pivot p, v becomes (p/g)*v - (f/g)*row with
    g = gcd(p, f).  An echelon row is zero before its pivot, so a later row
    never refills an earlier pivot column, and the result is zero on every
    pivot column: the unique normal form, whatever echelon rows span the
    piece.  Returns (part, scale): the reduced vector is part/scale on the
    standard columns (in the order of ``standard``) and zero elsewhere;
    scale > 0, and the content common to part and scale is divided out."""
    v = list(vec)
    scale = 1
    for row, c in zip(piece.rows, piece.pivots):
        f = v[c]
        if f:
            p = row[c]
            g = gcd(p, f)
            a, b = p // g, f // g
            if a == 1:
                v = [x - b * y for x, y in zip(v, row)]
            else:
                v = [a * x - b * y for x, y in zip(v, row)]
                scale *= a
    part = [v[c] for c in piece.standard_columns]
    g = gcd(scale, *part)
    if g > 1:
        part = [x // g for x in part]
        scale //= g
    return part, scale


# ---------------------------------------------------------------------------
# shared operations


def _check_cap(cap: int | None) -> None:
    if cap is not None and cap < 0:
        raise ValueError(f"socle cap must be non-negative, got {cap}")


def is_artinian(I, cap: int | None = None) -> bool:
    """Finite dimensionality of S/I.

    Monomial case: every variable must carry a pure-power generator (exact,
    no search).  Form case: artinian if the Hilbert function vanishes at or
    below the socle cap; not artinian once it grows maximally, HF(k) =
    macaulay_growth(HF(k-1), k-1) > 0, from a degree k-1 at or past the
    largest generator degree, since by Gotzmann persistence it then grows
    maximally, and stays positive, in every later degree.  If neither
    happens by the cap the test is indeterminate and CapExceededError is
    raised.  A negative cap is a ValueError.
    """
    _check_cap(cap)
    if isinstance(I, MonomialIdeal):
        return len(I.pure_power_degrees()) == I.n
    cap = default_socle_cap(I) if cap is None else cap
    top = max(deg for deg, _ in I.generators)
    prev = None
    for k in range(cap + 2):
        h = I.hf(k)
        if h == 0:
            return True
        if k - 1 >= top and h == macaulay_growth(prev, k - 1):
            return False
        prev = h
    raise CapExceededError(
        f"Hilbert function still positive at degree {cap + 1}; raise the cap"
    )


def default_socle_cap(I) -> int:
    """n*(d_max - 1) + margin; the monomial complete intersection attains
    n*(d-1), so this covers every admissible input with room to spare."""
    if isinstance(I, MonomialIdeal):
        dmax = I.max_degree or 1
    else:
        dmax = max(deg for deg, _ in I.generators)
    return I.n * (dmax - 1) + SOCLE_CAP_MARGIN


def hilbert_function(I, upto: int) -> tuple[int, ...]:
    """h_0, ..., h_upto of S/I."""
    if upto < 0:
        raise ValueError("upto must be nonnegative")
    return tuple(I.hf(k) for k in range(upto + 1))


def socle_degree(I, cap: int | None = None) -> int:
    """Largest e with HF(S/I, e) > 0; requires an artinian ideal.

    The quotient is standard graded, so the scan stops at the first zero.
    A support ideal is artinian and holds its whole Hilbert function, so its
    socle degree is the last nonzero entry of that tuple.  A negative cap
    is a ValueError.
    """
    _check_cap(cap)
    if isinstance(I, SupportIdeal):
        e = len(I._hfs) - 1
        while not I._hfs[e]:
            e -= 1
        if cap is not None and e > cap:
            raise CapExceededError(f"no vanishing up to degree {cap + 1}")
        return e
    if not is_artinian(I, cap=cap):
        raise NotArtinianError("socle degree needs an artinian ideal")
    cap = default_socle_cap(I) if cap is None else cap
    for k in range(cap + 2):
        if I.hf(k) == 0:
            return k - 1
    raise CapExceededError(f"no vanishing up to degree {cap + 1}")


def initial_ideal_degreewise(I: FormIdeal, upto: int) -> dict[int, tuple[Monomial, ...]]:
    """Degrevlex leading monomials of each graded span I_k for k <= upto.

    For artinian ideals with known minimal generator degree the degreewise
    spans are complete, so no Groebner computation is involved; by rank,
    |leads(k)| = HF(S, k) - HF(S/I, k) in every degree.
    """
    if upto < I.min_degree:
        raise ValueError("upto must reach the minimal generator degree")
    out: dict[int, tuple[Monomial, ...]] = {}
    for k in range(upto + 1):
        out[k] = I.piece(k).leads if k >= I.min_degree else ()
    return out


def monomial_ideal_from_leads(
    leads: dict[int, tuple[Monomial, ...]], n: int
) -> MonomialIdeal:
    """Minimalized monomial ideal generated by all degreewise leads."""
    gens = [m for mons in leads.values() for m in mons]
    if not gens:
        raise ValueError("no leading monomials given")
    return MonomialIdeal(n, gens)
