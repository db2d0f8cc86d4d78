"""Graded pieces, Hilbert functions, socle degrees, and initial ideals."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from lefschetz_props import _kernels
from lefschetz_props.combinatorics import basis_index, basis_size, monomial_basis
from lefschetz_props.cli import run
from lefschetz_props.errors import CapExceededError, NotArtinianError
from lefschetz_props.harness import random_form_ideal
from lefschetz_props.ideals import (
    FormIdeal,
    MonomialIdeal,
    SupportIdeal,
    _build_form_piece,
    default_socle_cap,
    graded_piece,
    hilbert_function,
    initial_ideal_degreewise,
    is_artinian,
    minimalize,
    monomial_ideal_from_leads,
    reduce_mod_piece,
    socle_degree,
)
from lefschetz_props.parsing import parse_inline_ideal
from test_exactlinalg import fraction_row_reduce

BK_GENS = [(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)]


def brute_standard_monomials(n, gens, k):
    """Divisibility filter over raw exponent tuples; independent of the
    degree-propagation path."""
    out = []
    for m in itertools.product(range(k + 1), repeat=n):
        if sum(m) != k:
            continue
        if not any(all(g[t] <= m[t] for t in range(n)) for g in gens):
            out.append(m)
    return out


def test_minimalize_examples():
    assert minimalize([(2, 0), (2, 1)]).generators == ((2, 0),)
    equi = [(2, 1, 0), (0, 2, 1), (1, 0, 2)]
    assert set(minimalize(equi).generators) == set(equi)
    assert set(minimalize([(1, 1, 0), (0, 1, 1), (1, 1, 1)]).generators) == {
        (1, 1, 0), (0, 1, 1),
    }


def test_minimalize_idempotent():
    rng = random.Random(3)
    for _ in range(30):
        mons = [
            tuple(rng.randint(0, 3) for _ in range(3))
            for _ in range(rng.randint(1, 8))
        ]
        mons = [m for m in mons if sum(m)] or [(1, 0, 0)]
        once = minimalize(mons)
        twice = minimalize(once.generators)
        assert once.generators == twice.generators


def test_minimalize_rejects_constants():
    with pytest.raises(ValueError):
        minimalize([(0, 0, 0)])


def test_is_artinian_monomial():
    assert is_artinian(MonomialIdeal(3, [(3, 0, 0), (0, 3, 0), (0, 0, 3)]))
    assert not is_artinian(MonomialIdeal(3, [(2, 0, 0), (1, 1, 0), (0, 2, 0)]))
    assert is_artinian(MonomialIdeal(3, BK_GENS))
    assert not is_artinian(MonomialIdeal(3, []))  # zero ideal


def test_graded_piece_examples():
    bk = MonomialIdeal(3, BK_GENS)
    assert len(graded_piece(bk, 3).standard_monomials) == 6
    assert graded_piece(bk, 0).standard_monomials == ((0, 0, 0),)
    piece4 = graded_piece(bk, 4).standard_monomials
    assert set(piece4) == {(2, 2, 0), (2, 0, 2), (0, 2, 2)}


def test_graded_piece_matches_brute_force():
    rng = random.Random(17)
    for _ in range(20):
        gens = set()
        for _ in range(rng.randint(2, 6)):
            g = tuple(rng.randint(0, 3) for _ in range(3))
            if sum(g):
                gens.add(g)
        if not gens:
            continue
        I = MonomialIdeal(3, gens)
        for k in range(8):
            expected = brute_standard_monomials(3, I.generators, k)
            assert sorted(graded_piece(I, k).standard_monomials) == sorted(expected)


def test_hilbert_function_examples():
    bk = MonomialIdeal(3, BK_GENS)
    assert hilbert_function(bk, 5) == (1, 3, 6, 6, 3, 0)
    for n, d in [(3, 3), (3, 4), (4, 2)]:
        ci = MonomialIdeal(n, [tuple(d if t == s else 0 for t in range(n)) for s in range(n)])
        assert hilbert_function(ci, d)[d] == basis_size(n, d) - n
    zero = MonomialIdeal(3, [])
    assert hilbert_function(zero, 4) == tuple(basis_size(3, k) for k in range(5))


def test_equigenerated_hf_is_complement_count():
    # HF(R, d) = HF(S, d) - |G(I)| for equigenerated degree-d ideals
    rng = random.Random(23)
    basis = monomial_basis(3, 4)
    for _ in range(20):
        gens = rng.sample(basis, rng.randint(1, len(basis)))
        I = MonomialIdeal(3, gens)
        assert I.hf(4) == basis_size(3, 4) - len(I.generators)


def test_socle_degree_examples():
    assert socle_degree(MonomialIdeal(3, BK_GENS)) == 4
    assert socle_degree(MonomialIdeal(4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])) == 0
    for n, d in [(3, 2), (3, 3), (4, 2)]:
        ci = MonomialIdeal(n, [tuple(d if t == s else 0 for t in range(n)) for s in range(n)])
        hf = hilbert_function(ci, n * (d - 1) + 1)
        assert socle_degree(ci) == n * (d - 1)
        assert hf[n * (d - 1)] > 0 and hf[n * (d - 1) + 1] == 0


def test_socle_degree_requires_artinian():
    with pytest.raises(NotArtinianError):
        socle_degree(MonomialIdeal(3, [(2, 0, 0)]))


def test_form_ideal_validation():
    with pytest.raises(ValueError):
        FormIdeal(3, [{}])  # zero generator
    with pytest.raises(ValueError):
        FormIdeal(3, [{(1, 0, 0): 1, (2, 0, 0): 1}])  # inhomogeneous
    with pytest.raises(ValueError):
        FormIdeal(3, [{(0, 0, 0): 1}])  # degree zero


def test_monomial_ideal_as_form_ideal():
    gens = [{g: 1} for g in BK_GENS]
    F = FormIdeal(3, gens)
    bk = MonomialIdeal(3, BK_GENS)
    for k in range(6):
        assert F.hf(k) == bk.hf(k)
    leads = initial_ideal_degreewise(F, upto=5)
    for k in range(3, 6):
        assert set(leads[k]) == set(
            m for i, m in enumerate(monomial_basis(3, k))
            if (bk.degree_mask(k) >> i) & 1
        )


def test_initial_ideal_single_binomial():
    F = FormIdeal(3, [{(2, 0, 0): 1, (0, 2, 0): -1}])
    leads = initial_ideal_degreewise(F, upto=2)
    assert leads[2] == ((2, 0, 0),)


def test_initial_ideal_preserves_hilbert_function():
    rng = random.Random(5)
    basis = monomial_basis(3, 2)
    for _ in range(15):
        gens = []
        for _ in range(3 + rng.randint(0, 1)):
            coeffs = {m: Fraction(rng.randint(-3, 3)) for m in basis}
            coeffs = {m: c for m, c in coeffs.items() if c}
            if not coeffs:
                coeffs = {basis[0]: Fraction(1)}
            gens.append(coeffs)
        F = FormIdeal(3, gens)
        upto = 7
        leads = initial_ideal_degreewise(F, upto=upto)
        if not any(leads.values()):
            continue
        J = monomial_ideal_from_leads(leads, 3)
        assert hilbert_function(F, upto) == hilbert_function(J, upto)


def test_initial_ideal_preserves_hilbert_function_four_variables():
    rng = random.Random(6)
    basis = monomial_basis(4, 2)
    for _ in range(10):
        gens = []
        for _ in range(4 + rng.randint(0, 1)):
            coeffs = {m: Fraction(rng.randint(-3, 3)) for m in basis}
            coeffs = {m: c for m, c in coeffs.items() if c}
            if not coeffs:
                coeffs = {basis[0]: Fraction(1)}
            gens.append(coeffs)
        F = FormIdeal(4, gens)
        upto = 6
        leads = initial_ideal_degreewise(F, upto=upto)
        if not any(leads.values()):
            continue
        J = monomial_ideal_from_leads(leads, 4)
        assert hilbert_function(F, upto) == hilbert_function(J, upto)


def test_graded_piece_form_span_shape():
    F = FormIdeal(3, [{(2, 0, 0): 1, (0, 2, 0): -1}])
    piece = graded_piece(F, 2)
    assert piece.span is not None
    assert piece.span.rows == 1
    assert piece.pivot_monomials == ((2, 0, 0),)
    assert len(piece.standard_monomials) == basis_size(3, 2) - 1


def test_generator_normalization_and_equality():
    a = MonomialIdeal(3, [(0, 3, 0), (3, 0, 0), (0, 0, 3), (1, 1, 1)])
    b = MonomialIdeal(3, BK_GENS)
    assert a == b and hash(a) == hash(b)
    assert a.is_equigenerated()
    assert a.min_degree == a.max_degree == 3


def oracle_form_piece(I, k):
    """The degree-k span of a form ideal, row reduced by the Fraction twin;
    columns sorted descending degrevlex without the ideals module."""
    cols = sorted(monomial_basis(I.n, k), key=lambda m: m[::-1])
    rows = []
    for deg, items in I.generators:
        for m in (monomial_basis(I.n, k - deg) if deg <= k else ()):
            prods = {tuple(a + b for a, b in zip(mon, m)): c for mon, c in items}
            rows.append([prods.get(col, 0) for col in cols])
    rref, pivots = fraction_row_reduce(rows) if rows else ([], ())
    leads = tuple(cols[c] for c in pivots)
    standard = tuple(m for m in monomial_basis(I.n, k) if m not in leads)
    return tuple(cols), tuple(map(tuple, rref[:len(pivots)])), pivots, leads, standard


def test_form_piece_matches_fraction_oracle():
    rng = random.Random(44)
    ideals = [random_form_ideal(3, d, rng) for d in (2, 3, 2, 3)]
    ideals.append(random_form_ideal(4, 2, rng))
    ideals.append(parse_inline_ideal("1/2*x1^2+x2*x3,x2^2-3*x1*x3,x3^2"))
    assert any(isinstance(c, Fraction) and c.denominator > 1
               for _, items in ideals[-1].generators for _, c in items)
    for I in ideals:
        top = min(socle_degree(I) + 1, 5)
        for k in range(top + 1):
            piece = _build_form_piece(I, k)
            got = (piece.columns, piece.rref_rows, piece.pivots,
                   piece.leads, piece.standard)
            want = oracle_form_piece(I, k)
            assert got == want
            assert [[type(e) for e in r] for r in got[1]] == \
                [[type(e) for e in r] for r in want[1]]


def test_certified_pieces_run_no_elimination(monkeypatch):
    # a piece with at least as many rows as columns whose GF(2) or word-prime
    # rank is the column count is all of S_k and skips the integer
    # elimination; every other piece runs it
    def no_elimination(rows, ncols):
        raise RuntimeError("integer elimination ran")

    cubic = parse_inline_ideal("x1^3+x2^2*x3,x2^3-x1*x3^2,x3^3")
    even = parse_inline_ideal("2*x1^2+x2*x3,x2^2,x3^2")
    real_mod = _kernels.rank_mod_rows
    with monkeypatch.context() as m:
        m.setattr("lefschetz_props.ideals.integer_rref", no_elimination)
        with monkeypatch.context() as gf2_only:
            # 45 x 36 and 63 x 45: GF(2) alone certifies, no word prime runs
            gf2_only.setattr(_kernels, "rank_mod_rows", no_elimination)
            certified = [(cubic, 7), (cubic, 8)]
            for I, k in certified:
                piece = _build_form_piece(I, k)
                assert piece.standard == () and piece.pivots == tuple(range(len(piece.columns)))
        # 18 x 15 and 30 x 21 with GF(2) ranks 12 and 18: the word prime certifies
        word_prime = [(even, 4), (even, 5)]
        for I, k in certified + word_prime:
            piece = _build_form_piece(I, k)
            assert (piece.columns, piece.rref_rows, piece.pivots, piece.leads,
                    piece.standard) == oracle_form_piece(I, k)
        # 30 x 28 of rank 27 is tall but not full, and 9 x 10 is wide: both
        # fall back to the elimination
        for I, k in ((cubic, 6), (even, 3)):
            with pytest.raises(RuntimeError, match="elimination ran"):
                _build_form_piece(I, k)
    ran = []

    def spy_mod(rows, ncols, *args):
        ran.append((len(rows), ncols))
        return real_mod(rows, ncols, *args)

    monkeypatch.setattr(_kernels, "rank_mod_rows", spy_mod)
    for I, k in word_prime + [(cubic, 6)]:
        _build_form_piece(I, k)
    assert ran == [(18, 15), (30, 21), (30, 28)]


def test_reduce_mod_piece_is_the_fraction_reduction_over_a_scale():
    # the fraction-free reduction returns part / scale with scale > 0 and no
    # common content; times the scale it equals the reduction on Fractions
    # by the normalized rows, restricted to the standard columns
    rng = random.Random(14)
    forms = [random_form_ideal(3, d, rng) for d in (2, 3)]
    forms.append(parse_inline_ideal("1/2*x1^2+x2*x3,x2^2-3*x1*x3,x3^2"))
    seen_scales = set()
    for I in forms:
        for k in range(I.min_degree, socle_degree(I) + 2):
            piece = I.piece(k)
            for _ in range(20):
                vec = [rng.randint(-50, 50) for _ in piece.columns]
                part, scale = reduce_mod_piece(piece, vec)
                want = [Fraction(e) for e in vec]
                for row, c in zip(piece.rref_rows, piece.pivots):
                    f = want[c]
                    want = [x - f * y for x, y in zip(want, row)]
                assert all(want[c] == 0 for c in piece.pivots)
                assert [Fraction(x, scale) for x in part] == \
                    [want[basis_index(I.n, k)[m]] for m in piece.standard]
                assert scale > 0 and math.gcd(scale, *part) == 1
                seen_scales.add(scale)
    assert len(seen_scales) > 1


NON_ARTINIAN_FORMS = "x1^2+x2*x3,x2^2-x1*x3"


def test_non_artinian_form_ideal_exceeds_the_cap(capsys):
    I = parse_inline_ideal(NON_ARTINIAN_FORMS)
    assert isinstance(I, FormIdeal) and I.n == 3
    # two conics meeting in four points: the Hilbert function settles at 4,
    # which is maximal growth from degree 4 on (Gotzmann), so the default
    # cap decides it; cap 2 stops before degree 5 and leaves it undecided
    assert hilbert_function(I, 6) == (1, 3, 4, 4, 4, 4, 4)
    assert is_artinian(I) is False
    with pytest.raises(NotArtinianError):
        socle_degree(I)
    with pytest.raises(CapExceededError):
        is_artinian(I, cap=2)
    with pytest.raises(CapExceededError):
        socle_degree(I, cap=2)
    assert run(["socle", "--gens", NON_ARTINIAN_FORMS]) == 2
    assert run(["hf", "--gens", NON_ARTINIAN_FORMS]) == 2
    assert run(["socle", "--gens", NON_ARTINIAN_FORMS, "--cap", "2"]) == 3
    capsys.readouterr()


def test_a_negative_cap_is_a_value_error():
    # on a monomial, a support and a form ideal: not a cap that is reached
    ideals = (
        parse_inline_ideal("x1^2,x2^2,x3^2"),
        SupportIdeal(3, 2, 0b101),
        parse_inline_ideal(NON_ARTINIAN_FORMS),
    )
    for I in ideals:
        for check in (is_artinian, socle_degree):
            with pytest.raises(ValueError, match="non-negative"):
                check(I, cap=-1)
    # cap 0 is a cap: x1^2, x2^2, x3^2 has socle degree 3
    assert is_artinian(ideals[0], cap=0) and socle_degree(ideals[0], cap=3) == 3
    with pytest.raises(CapExceededError):
        socle_degree(ideals[0], cap=0)


def test_gotzmann_exit_agrees_with_the_cap_scan():
    # is_artinian answers False only where the Hilbert function is still
    # positive past the cap, i.e. where the plain scan finds no zero
    rng = random.Random(11)
    basis = monomial_basis(3, 2)
    verdicts = []
    for _ in range(24):
        gens = [
            {m: Fraction(rng.randint(-2, 2)) for m in rng.sample(basis, 3)}
            for _ in range(rng.choice((2, 3)))
        ]
        gens = [{m: c for m, c in g.items() if c} or {basis[0]: 1} for g in gens]
        I = FormIdeal(3, gens)
        cap = default_socle_cap(I)
        vanishes = any(I.hf(k) == 0 for k in range(cap + 2))
        assert is_artinian(I) is vanishes
        verdicts.append(vanishes)
    assert True in verdicts and False in verdicts
    # below the generator degree growth is maximal too (HF(2) = 6 for
    # cubics), which must not count
    cubics = parse_inline_ideal("x1^3+x2^2*x3,x2^3-x1*x3^2,x3^3")
    assert hilbert_function(cubics, 2) == (1, 3, 6)
    assert is_artinian(cubics) is True
