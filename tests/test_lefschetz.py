"""Multiplication maps and the WLP/SLP deciders."""

import random
from fractions import Fraction

import pytest

from lefschetz_props import _kernels, _ranks_py, lefschetz
from lefschetz_props.combinatorics import basis_index, basis_size, monomial_basis, multinomial
from lefschetz_props.duality import extremal_dual
from lefschetz_props.errors import NotArtinianError
from lefschetz_props.exactlinalg import ExactMatrix, rank
from lefschetz_props.harness import (
    ideal_from_mask,
    monomial_complete_intersection,
    random_form_ideal,
)
from lefschetz_props.ideals import MonomialIdeal, socle_degree
from lefschetz_props.lefschetz import (
    LinearForm,
    check_power,
    check_power_shortcut,
    check_slp,
    check_slp_shortcut,
    check_wlp,
    has_maximal_rank,
    mult_map_matrix,
    ones_form,
    random_linear_form,
)
from lefschetz_props.parsing import parse_inline_ideal
from lefschetz_props.reporting import PairRecord

BK = MonomialIdeal(3, [(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)])


def test_mult_map_square_free_quadrics():
    I = MonomialIdeal(3, [(2, 0, 0), (0, 2, 0), (0, 0, 2)])
    M = mult_map_matrix(I, None, 1, 1)
    assert (M.rows, M.cols) == (3, 3)
    assert rank(M) == 3


def test_mult_map_above_socle_is_empty():
    M = mult_map_matrix(BK, None, 2, 4)  # degree 6 > socle 4
    assert (M.rows, M.cols) == (0, 3)
    assert rank(M) == 0


def test_mult_map_truncation_column_of_multinomials():
    d = 3
    trunc = MonomialIdeal(3, monomial_basis(3, d + 1))
    M = mult_map_matrix(trunc, None, d, 0)
    assert M.cols == 1
    col = sorted(M.column(0), reverse=True)
    expected = sorted((multinomial(d, b) for b in monomial_basis(3, d)), reverse=True)
    assert col == expected


def test_mult_map_respects_custom_form():
    I = MonomialIdeal(3, [(2, 0, 0), (0, 2, 0), (0, 0, 2)])
    from lefschetz_props.lefschetz import LinearForm

    M = mult_map_matrix(I, LinearForm((1, 2, 3)), 1, 1)
    assert rank(M) == 3


def test_linear_form_takes_only_ints_and_fractions():
    # a float would be scaled by the denominator of its binary expansion
    for coefficients in ((0.1, 1, 1), (1, 2.0, 3), (1, "2", 3)):
        with pytest.raises(TypeError):
            LinearForm(coefficients)
    assert LinearForm((Fraction(1, 10), 1, -2)).n == 3


def test_fractional_forms_rank_like_plain_bareiss(monkeypatch):
    # a monomial map of a Fraction form is ranked on its rows scaled by the
    # common denominator of the weights: the decided rank equals plain
    # Bareiss on the rational matrix, on seeded support ideals and on BK,
    # deficient maps included, which run Bareiss on the scaled rows
    exact = spy(monkeypatch, _kernels, "rank_int_rows")
    forms = [LinearForm((Fraction(1, 2), 2, 3)), LinearForm((Fraction(2, 3), Fraction(-5, 4), 1))]
    rng = random.Random(23)
    ideals = [BK] + [ideal_from_mask(3, 4, rng.getrandbits(12)) for _ in range(30)]
    bareiss = 0
    for I in ideals:
        e = socle_degree(I)
        for ell in forms:
            for i in range(1, e + 1):
                for j in range(e - i + 1):
                    M = mult_map_matrix(I, ell, i, j)
                    want = rank(M)
                    before = len(exact)
                    got = has_maximal_rank(I, ell, i, j)
                    assert got == (want == min(M.rows, M.cols), want), (I, ell, i, j)
                    if len(exact) > before:
                        assert lefschetz._integer_weights(3, i, ell.coefficients)[1] > 1
                        bareiss += 1
    assert bareiss > 0


def test_has_maximal_rank_on_complete_intersections():
    for n, d in [(3, 2), (3, 3), (4, 2)]:
        ci = monomial_complete_intersection(n, d)
        e = n * (d - 1)
        for i in range(1, e + 1):
            for j in range(e - i + 1):
                ok, _ = has_maximal_rank(ci, None, i, j)
                assert ok, (n, d, i, j)


def test_has_maximal_rank_brenner_kaid_failure():
    ok, r = has_maximal_rank(BK, None, 1, 2)
    assert not ok and r == 5


@pytest.mark.parametrize("check", [has_maximal_rank, mult_map_matrix])
def test_map_shape_is_checked(check):
    # a form with too many or too few coefficients, a power below one and a
    # negative source degree are refused alike by both entry points
    for ell in (LinearForm((1, 1, 1, 5)), LinearForm((1, 2))):
        with pytest.raises(ValueError):
            check(BK, ell, 1, 1)
    for i, j in ((0, 1), (-1, 1), (1, -1)):
        with pytest.raises(ValueError):
            check(BK, None, i, j)
    assert check(BK, LinearForm((1, 2, 3)), 1, 1) is not None


def test_extremal_dual_not_surjective():
    for d in range(3, 6):
        for i in range(2, d):
            _, I = extremal_dual(3, d, i)
            ok, r = has_maximal_rank(I, None, i, d - i)
            assert not ok
            assert r < I.hf(d)


def test_check_wlp_examples():
    rep = check_wlp(BK)
    assert not rep.verdict and rep.witness == (1, 2)
    ci = monomial_complete_intersection(3, 4)
    assert check_wlp(ci).verdict


FORMS = parse_inline_ideal("x1^2+x2*x3,x2^2-x1*x3,x3^2")


def twin_scan(I, pair_list, forms, memo):
    """Slow twin of the deciders' pair scan: every pair is built and ranked
    by plain Bareiss (exactlinalg.rank), with no free pair, no onto
    propagation and no modular certificate.  Over several trial forms the
    best rank stands.  ``memo`` shares the records across the scans of one
    ideal."""
    records = []
    for i, j in pair_list:
        if (i, j) not in memo:
            mats = [mult_map_matrix(I, ell, i, j) for ell in forms]
            best = max(rank(M) for M in mats)
            rows, cols = mats[0].rows, mats[0].cols
            memo[i, j] = PairRecord(i, j, cols, rows, best, best == min(rows, cols))
        records.append(memo[i, j])
    return tuple(records)


def scans_against_twin(I, mode, seed=1, trials=3):
    """Every PairRecord of check_wlp, check_slp and each check_power must
    equal the twin's, and so must each verdict and witness."""
    e = socle_degree(I)
    if mode == "exact":
        forms = [None]
    else:
        forms = [random_linear_form(I.n, seed + t) for t in range(trials)]
    kw = {"seed": seed, "trials": trials}
    scans = [
        (check_wlp(I, mode, **kw), [(1, j) for j in range(e + 1)]),
        (check_slp(I, mode, **kw), [(i, j) for i in range(1, e + 1) for j in range(e - i + 1)]),
    ]
    scans += [
        (check_power(I, i, mode, **kw), [(i, j) for j in range(e - i + 1)])
        for i in range(1, e + 1)
    ]
    memo = {}
    for rep, pair_list in scans:
        twin = twin_scan(I, pair_list, forms, memo)
        assert rep.pairs == twin, (I, mode, rep.property, rep.power)
        assert rep.witness == next(((p.i, p.j) for p in twin if not p.maximal), None)
        assert rep.verdict == (rep.witness is None)
    return [rep for rep, _ in scans], memo


def spy(monkeypatch, module, name):
    """Wrap ``module.name`` for the test; returns the list of results of
    its calls."""
    results = []
    inner = getattr(module, name)

    def wrapped(*args):
        results.append(inner(*args))
        return results[-1]

    monkeypatch.setattr(module, name, wrapped)
    return results


def nonfree_pairs(I, pairs):
    """Pairs with both pieces nonzero and the target at or above the minimal
    generator degree: the ones the scan decides or propagates."""
    d = I.min_degree
    return sum(1 for p in pairs if p.dim_target and p.dim_source and p.i + p.j >= d)


def records_read_back(reports):
    """Records of the reports that are the very objects an earlier report
    of the same ideal holds: only the ideal's record cache hands a record
    out twice, since every other route builds a new one."""
    seen, read = set(), []
    for rep in reports:
        read += [p for p in rep.pairs if id(p) in seen]
        seen.update(id(p) for p in rep.pairs)
    return read


ZERO_COEFFICIENT_FORMS = (LinearForm((0, 0, 1)), LinearForm((1, 0, 2)))


def test_decider_ranks_match_plain_exact_rank(monkeypatch):
    # every recorded rank, whether built and certified mod 2 or mod the word
    # prime, computed exactly, freed by degree, propagated from an earlier
    # onto map of the same power, read back from the ideal's record cache,
    # given by the rank-one rule or bounded by a composition, equals the
    # plain Bareiss rank of the twin; each matrix-free route decides pairs
    # in exact mode, none in randomized mode, and the rank-one rule stays
    # off under a form with a zero coefficient
    decided = spy(monkeypatch, lefschetz, "_pair_exact")
    rank_one = spy(monkeypatch, lefschetz, "_rank_one_record")
    composed = spy(monkeypatch, lefschetz, "_composed_record")
    ideals = [BK, monomial_complete_intersection(3, 3)]
    ideals += [ideal_from_mask(3, 4, mask) for mask in range(1 << 12)]
    for (n, d), seed, count in (((3, 5), 5, 60), ((4, 3), 6, 60), ((4, 4), 7, 20)):
        bits = basis_size(n, d) - n
        rng = random.Random(seed)
        ideals += [ideal_from_mask(n, d, rng.getrandbits(bits)) for _ in range(count)]
    routes = {"cache": 0, "rank one": 0, "composed": 0}
    for I in ideals:
        rank_one.clear()
        composed.clear()
        reports, memo = scans_against_twin(I, "exact")
        for route, recs in (
            ("cache", records_read_back(reports)),
            ("rank one", [r for r in rank_one if r is not None]),
            ("composed", [r for r in composed if r is not None]),
        ):
            assert all(rec == memo[rec.i, rec.j] for rec in recs), (I, route)
            routes[route] += len(recs)
    assert all(routes.values()), routes
    assert any(rec.maximal for rec in decided)
    assert any(not rec.maximal for rec in decided)
    rank_one.clear()
    composed.clear()
    few = ideals[:2] + ideals[2::64]
    for I in few:
        scans_against_twin(I, "randomized", seed=9)
    assert rank_one == composed == []
    zero_rank = 0
    for I in (I for I in few if I.n == 3):
        e = socle_degree(I)
        for ell in ZERO_COEFFICIENT_FORMS:
            for i in range(1, e + 1):
                for j in range(e - i + 1):
                    want = rank(mult_map_matrix(I, ell, i, j))
                    assert has_maximal_rank(I, ell, i, j)[1] == want, (I, ell, i, j)
                    zero_rank += want == 0 and I.hf(j + i) > 0
    assert zero_rank > 0


# Form ideals for the exact scans: the rational-coefficient and cubic ones
# of the CLI checks, and one whose ideal holds (x1 + x2 + x3)^2, so the map
# from R_0 by the square of the all-ones form has a one-dimensional source
# and rank 0.
EXACT_FORMS = (
    "x1^2+x2*x3,x2^2-x1*x3,x3^2",
    "1/2*x1^2+x2*x3,x2^2-3*x1*x3,x3^2",
    "x1^3+x2^2*x3,x2^3-x1*x3^2,x3^3",
    "x1^2,x2^2,x3^2,x1*x2+x1*x3+x2*x3",
)


def test_form_ideal_exact_scans_share_the_record_cache(monkeypatch):
    # exact scans of a form ideal read and fill its record cache and bound
    # powers by composition like those of a monomial ideal, and every
    # record equals the plain Bareiss rank of mult_map_matrix; a second
    # exact check builds no matrix; the rank-one rule decides no form pair,
    # since ell^i can lie in a form ideal
    built = spy(monkeypatch, lefschetz, "_build_rows")
    rank_one = spy(monkeypatch, lefschetz, "_rank_one_record")
    composed = spy(monkeypatch, lefschetz, "_composed_record")
    ideals = [parse_inline_ideal(gens) for gens in EXACT_FORMS]
    rng = random.Random(32)
    ideals += [random_form_ideal(3, d, rng) for d in (2, 3, 2, 3)]
    rank_zero_one_dim = 0
    for I in ideals:
        reports, memo = scans_against_twin(I, "exact")
        e = socle_degree(I)
        ell = LinearForm(tuple(Fraction(t + 1, 2 * t + 3) for t in range(I.n)))
        for i in range(1, e + 1):
            for j in range(e - i + 1):
                want = rank(mult_map_matrix(I, ell, i, j))
                assert has_maximal_rank(I, ell, i, j)[1] == want, (I, i, j)
        for rec in memo.values():
            rank_zero_one_dim += rec.dim_source == 1 and rec.rank == 0 < rec.dim_target
        assert set(I._records) == {ones_form(I.n).coefficients, ell.coefficients}
        built.clear()
        again = check_slp(I, "exact")
        assert built == [], I
        assert again.pairs == reports[1].pairs
    assert rank_zero_one_dim > 0
    assert rank_one and all(rec is None for rec in rank_one)
    assert any(rec is not None for rec in composed)


def test_onto_propagation_skips_pairs_and_keeps_records(monkeypatch):
    # in exact and randomized mode the scans decide fewer pairs than they
    # list as non-free, and every record still matches the twin
    decided = {
        "exact": spy(monkeypatch, lefschetz, "_pair_exact"),
        "randomized": spy(monkeypatch, lefschetz, "_pair_via_forms"),
    }
    supports = [ideal_from_mask(3, 4, mask) for mask in (0, 77, 1234, 4095)]
    for mode, ideals in (("exact", [BK] + supports), ("randomized", [BK, FORMS] + supports)):
        listed = sum(nonfree_pairs(I, check_slp(I, mode, seed=9).pairs) for I in ideals)
        assert 0 < len(decided[mode]) < listed, mode
        for I in ideals:
            for seed in (1, 9):
                scans_against_twin(I, mode, seed=seed)


def test_shortcuts_read_the_records_of_the_full_check(monkeypatch):
    # after the full SLP check of an ideal, every in-gate shortcut reads its
    # lemma pair from the ideal's record cache and builds no matrix; its
    # report equals the one a fresh ideal of the same mask gets
    built = spy(monkeypatch, lefschetz, "_build_rows")
    shortcuts = 0
    for mask in range(1 << 12):
        I = ideal_from_mask(3, 4, mask)
        check_slp(I, "exact")
        for power in (None, 1, 2, 3):
            if lefschetz._lemma_pair(I, power) is None:
                continue
            built.clear()
            rep = check_slp_shortcut(I) if power is None else check_power_shortcut(I, power)
            assert built == [], (mask, power)
            fresh = ideal_from_mask(3, 4, mask)
            want = check_slp_shortcut(fresh) if power is None else check_power_shortcut(fresh, power)
            assert rep.to_dict() == want.to_dict(), (mask, power)
            shortcuts += 1
    assert shortcuts > 0


def test_randomized_scans_skip_the_record_cache_form_ideals_fill_it(monkeypatch):
    # a randomized record is the best of several trial forms: randomized
    # scans neither fill nor read an ideal's record cache, and the
    # matrix-free rules never run on them; an exact scan of a form ideal
    # fills its record cache, and its maps with a one-dimensional side are
    # built, exact or not
    via_forms = spy(monkeypatch, lefschetz, "_pair_via_forms")
    exact = spy(monkeypatch, lefschetz, "_pair_exact")
    rank_one = spy(monkeypatch, lefschetz, "_rank_one_record")
    composed = spy(monkeypatch, lefschetz, "_composed_record")
    fresh_bk = MonomialIdeal(3, BK.generators)
    for I in [fresh_bk] + [ideal_from_mask(3, 4, mask) for mask in (0, 77, 1234, 4095)]:
        before = check_slp(I, "randomized", seed=9)
        assert I._records == {}
        decided = len(via_forms)
        full = check_slp(I, "exact")
        held = {form: dict(recs) for form, recs in I._records.items()}
        for seen in (via_forms, rank_one, composed):
            seen.clear()
        after = check_slp(I, "randomized", seed=9)
        assert len(via_forms) == decided and rank_one == composed == []
        assert after == before
        assert not {id(p) for p in after.pairs} & {id(p) for p in full.pairs}
        assert I._records == held
        via_forms.clear()
    forms = parse_inline_ideal("x1^2+x2*x3,x2^2-x1*x3,x3^2")
    for mode, spied in (("randomized", via_forms), ("exact", exact)):
        spied.clear()
        check_slp(forms, mode, seed=9)
        assert any(min(rec.dim_source, rec.dim_target) == 1 for rec in spied), mode
        if mode == "randomized":
            assert forms._records == {} and rank_one == composed == []
    assert all(rec is None for rec in rank_one)
    held = forms._records[ones_form(3).coefficients]
    assert {(rec.i, rec.j) for rec in exact} <= set(held)
    assert all(held[rec.i, rec.j] is rec for rec in exact)


def policy_calls(monkeypatch):
    """Spy on the three steps of the rank policy: the first argument of
    every call to rank_gf2_bits ("gf2"), rank_mod_rows ("mod") and
    rank_int_rows ("exact"), one list each."""
    calls = {}
    for key, module, name in (
        ("gf2", _ranks_py, "rank_gf2_bits"),
        ("mod", _kernels, "rank_mod_rows"),
        ("exact", _kernels, "rank_int_rows"),
    ):
        inner = getattr(module, name)

        def wrapped(first, *rest, inner=inner, seen=calls.setdefault(key, [])):
            seen.append(first)
            return inner(first, *rest)

        monkeypatch.setattr(module, name, wrapped)
    return calls


def assert_policy_on_built_maps(built, calls):
    """Each built map's own parity list went to GF(2) once, in build order;
    the word prime ran on exactly the rows whose parity rank falls short,
    and Bareiss on exactly those whose word-prime rank falls short too.
    Calls on anything else (form pieces, the twin's matrices) are left
    out.  Returns the maps that reached the word prime."""
    parities = {id(b[3]) for b in built}
    row_ids = {id(b[0]) for b in built}
    gf2 = [id(p) for p in calls["gf2"] if id(p) in parities]
    mod = [id(r) for r in calls["mod"] if id(r) in row_ids]
    exact = [id(r) for r in calls["exact"] if id(r) in row_ids]
    assert gf2 == [id(b[3]) for b in built]
    short = [b for b in built if _ranks_py.rank_gf2_bits(b[3]) < min(b[1], b[2])]
    assert 0 < len(short) < len(built)
    assert mod == [id(b[0]) for b in short]
    prime = _kernels.WORD_PRIME
    assert exact == [
        id(b[0]) for b in short if _ranks_py.rank_mod(b[0], b[2], prime) < min(b[1], b[2])
    ]
    return short


def test_box_certificate_runs_no_step_twice(monkeypatch):
    # every monomial map, a fractional form's too, takes its GF(2) rank from
    # the parity columns its row builder packed: no other GF(2) step runs,
    # and the rest of the policy runs on exactly the rows whose parity rank
    # falls short, on support ideals and other monomial ideals alike
    built = spy(monkeypatch, lefschetz, "_build_rows")
    calls = policy_calls(monkeypatch)
    half = LinearForm((Fraction(1, 2), 2, 3))
    supports = [ideal_from_mask(3, 4, mask) for mask in range(1 << 12)]
    for ideals in (supports, [BK]):
        built.clear()
        for seen in calls.values():
            seen.clear()
        for I in ideals:
            check_slp(I)
            check_power_shortcut(I, 1)
            check_slp(I, "randomized", seed=9)
            has_maximal_rank(I, half, 1, 2)
        gf2 = len(calls["gf2"])
        assert_policy_on_built_maps(built, calls)
        assert gf2 == len(built)


def test_check_wlp_rejects_non_artinian():
    with pytest.raises(NotArtinianError):
        check_wlp(MonomialIdeal(3, [(2, 0, 0)]))


def test_check_slp_examples():
    for n in (3, 4):
        for d in (2, 3):
            assert check_slp(monomial_complete_intersection(n, d)).verdict
    for d in range(3, 7):
        _, I = extremal_dual(3, d, d - 1)
        rep = check_slp(I)
        assert not rep.verdict
        assert I.hf(d) == 3


def test_slp_report_pair_order_and_conjunction():
    rep = check_slp(BK)
    pair_keys = [(p.i, p.j) for p in rep.pairs]
    assert pair_keys == sorted(pair_keys)
    assert rep.verdict == all(p.maximal for p in rep.pairs)
    assert rep.witness == min((p.i, p.j) for p in rep.pairs if not p.maximal)


def test_check_power_shortcut_gate_and_fallback():
    # extremal ideal: gate holds (HF(R, d-i) is a full piece), not surjective
    for d, i in [(4, 2), (4, 3), (5, 2)]:
        _, I = extremal_dual(3, d, i)
        rep = check_power_shortcut(I, i)
        assert rep.method == "shortcut" and not rep.fallback
        assert not rep.verdict and rep.witness == (i, d - i)
    # complete intersection: HF(R, d) beats HF(R, d-i), so the gate fails
    ci = monomial_complete_intersection(3, 3)
    rep = check_power_shortcut(ci, 2)
    assert rep.fallback and rep.method == "full"
    assert rep.verdict
    assert rep.verdict == check_power(ci, 2).verdict


def test_check_power_shortcut_agrees_with_full():
    rng = random.Random(41)
    for _ in range(40):
        mask = rng.randrange(1 << 7)
        I = ideal_from_mask(3, 3, mask)
        for i in (1, 2):
            short = check_power_shortcut(I, i)
            full = check_power(I, i)
            assert short.verdict == full.verdict, (mask, i)


def test_check_slp_shortcut_examples():
    for d in range(3, 6):
        _, I = extremal_dual(3, d, d - 1)
        rep = check_slp_shortcut(I)
        assert rep.method == "shortcut" and not rep.verdict
    ci = monomial_complete_intersection(3, 2)  # HF (1,3,3,1): gate 3 >= 3
    rep = check_slp_shortcut(ci)
    assert rep.method == "shortcut" and rep.verdict
    big = monomial_complete_intersection(3, 3)  # HF(R,3)=7 > 3: fallback
    rep = check_slp_shortcut(big)
    assert rep.fallback and rep.verdict


def test_lemma_pair_is_none_exactly_on_fallback():
    # the shortcut gate is one function: a shortcut falls back exactly where
    # _lemma_pair has no pair, and otherwise scans that pair alone
    for mask in range(1 << 12):
        I = ideal_from_mask(3, 4, mask)
        for power in (None, 1, 2, 3):
            pair = lefschetz._lemma_pair(I, power)
            if power is None:
                rep = check_slp_shortcut(I)
            else:
                rep = check_power_shortcut(I, power)
            assert rep.fallback == (pair is None), (mask, power)
            if pair is not None:
                assert pair == ((3 if power is None else power), 4 - pair[0])
                assert [(p.i, p.j) for p in rep.pairs] == [pair]
    linear = MonomialIdeal(3, [(1, 0, 0), (0, 2, 0), (0, 0, 2)])
    assert lefschetz._lemma_pair(linear, None) is None
    assert lefschetz._lemma_pair(linear, 1) is None
    assert check_slp_shortcut(linear).fallback


def test_injectivity_below_generator_degree():
    # maps landing below degree d are full-ring multiplications: injective
    for d in (3, 4):
        _, I = extremal_dual(3, d, 2)
        for i in range(1, d):
            for j in range(0, d - i):
                ok, r = has_maximal_rank(I, None, i, j)
                assert ok and r == basis_size(3, j)


def test_random_linear_form_determinism():
    a = random_linear_form(3, seed=1)
    b = random_linear_form(3, seed=1)
    c = random_linear_form(3, seed=2)
    assert a == b
    assert a != c
    assert all(1 <= x <= 1000 for x in a.coefficients)


def test_monomial_sufficiency_of_all_ones():
    # the all-ones verdict equals the randomized-trials verdict on monomials
    rng = random.Random(2024)
    masks = rng.sample(range(1 << 7), 100) + [
        rng.randrange(1 << 12) for _ in range(100)
    ]
    for k, mask in enumerate(masks):
        d = 3 if k < 100 else 4
        I = ideal_from_mask(3, d, mask)
        exact = check_wlp(I, "exact").verdict
        randomized = check_wlp(I, "randomized", seed=5, trials=3).verdict
        assert exact == randomized, (d, mask)


def test_form_ideal_randomized_checks():
    rng = random.Random(8)
    for _ in range(50):
        F = random_form_ideal(3, 2, rng)
        verdicts = {
            check_slp(F, "randomized", seed=seed, trials=3).verdict
            for seed in range(11, 16)
        }
        assert len(verdicts) == 1  # stable across seeds
    rep = check_slp(F, "randomized", seed=11, trials=3)
    assert rep.mode == "randomized"
    assert rep.seeds == (11, 12, 13)


RATIONAL_FORMS = parse_inline_ideal("1/2*x1^2+x2*x3,x2^2-3*x1*x3,x3^2")


def fraction_form_map(I, coefficients, i, j):
    """Slow twin of mult_map_matrix on a form ideal, on Fractions: expand
    ell^i times each source standard monomial, reduce it by the normalized
    rows of the target piece, and project onto the target standard
    monomials."""
    src, tgt = I.piece(j), I.piece(j + i)
    tgt_index = basis_index(I.n, j + i)
    power = {}
    for c in monomial_basis(I.n, i):
        w = Fraction(multinomial(i, c))
        for a, e in zip(coefficients, c):
            w *= Fraction(a) ** e
        power[c] = w
    columns = []
    for a in src.standard:
        v = [Fraction(0)] * len(tgt.columns)
        for c, w in power.items():
            v[tgt_index[tuple(x + y for x, y in zip(a, c))]] += w
        for row, c in zip(tgt.rref_rows, tgt.pivots):
            f = v[c]
            v = [x - f * y for x, y in zip(v, row)]
        columns.append([v[tgt_index[m]] for m in tgt.standard])
    return [[col[r] for col in columns] for r in range(len(tgt.standard))]


def test_form_mult_map_matches_fraction_twin():
    # integer columns over a positive scale, divided back, give the exact
    # rational matrix entry for entry, for an integer and a Fraction form
    rng = random.Random(141)
    ideals = [FORMS, RATIONAL_FORMS]
    ideals += [random_form_ideal(3, d, rng) for d in (2, 3, 2, 3)]
    ideals.append(random_form_ideal(4, 2, rng))
    fractional = 0
    for I in ideals:
        e = socle_degree(I)
        forms = [random_linear_form(I.n, 5).coefficients,
                 tuple(Fraction(t + 1, 2 * t + 3) for t in range(I.n))]
        for coefficients in forms:
            for i in range(1, e + 1):
                for j in range(e - i + 1):
                    M = mult_map_matrix(I, LinearForm(coefficients), i, j)
                    want = fraction_form_map(I, coefficients, i, j)
                    assert M.to_lists() == want, (I, coefficients, i, j)
                    assert (M.rows, M.cols) == (I.hf(j + i), I.hf(j))
                    fractional += any(
                        isinstance(x, Fraction) for row in want for x in row
                        if x.denominator > 1
                    )
    assert fractional


def test_form_maps_rank_their_packed_parity(monkeypatch):
    # every form map is built on integers: its builder packs each integer
    # column mod 2, GF(2) runs once on that parity list, and the rest of the
    # policy runs on exactly the rows whose parity falls short
    built = spy(monkeypatch, lefschetz, "_build_rows")
    calls = policy_calls(monkeypatch)
    rng = random.Random(5)
    ideals = [FORMS, RATIONAL_FORMS] + [random_form_ideal(3, 3, rng) for _ in range(6)]
    for I in ideals:
        for seed in (1, 9):
            scans_against_twin(I, "randomized", seed=seed)
    for rows, nrows, ncols, parity in built:
        assert all(type(e) is int for row in rows for e in row)
        assert parity == [
            sum(1 << r for r in range(nrows) if rows[r][c] & 1) for c in range(ncols)
        ]
    assert_policy_on_built_maps(built, calls)


def test_randomized_mode_needs_a_trial():
    F = random_form_ideal(3, 2, random.Random(9))
    for trials in (0, -1):
        with pytest.raises(ValueError):
            check_slp(F, "randomized", trials=trials)
        with pytest.raises(ValueError):
            check_wlp(BK, "randomized", trials=trials)
    # exact mode draws no forms, so the trial count is not read
    assert check_wlp(BK, "exact", trials=0).witness == (1, 2)


def test_shortcuts_reject_form_ideals():
    F = random_form_ideal(3, 2, random.Random(9))
    with pytest.raises(TypeError):
        check_slp_shortcut(F)
    with pytest.raises(TypeError):
        check_power_shortcut(F, 1)


def test_ones_form():
    assert ones_form(4).coefficients == (1, 1, 1, 1)


def _picked_rows_independent(n, d, i, mask):
    _, rows = lefschetz._support_rows(n, d, i)
    picked = [rows[p] for p in range(len(rows)) if mask >> p & 1]
    return rank(ExactMatrix.from_rows(picked)) == len(picked)


def _support_rows_independent(n, d, i, mask):
    """The campaigns' test: the policy on the rows the mask picks."""
    packed, rows = lefschetz._support_rows(n, d, i)
    return lefschetz._mask_rows_independent(packed, rows, mask, basis_size(n, d - i))


@pytest.mark.parametrize("i", [1, 2, 3])
def test_support_row_pick_matches_exact_rank_on_every_3_4_mask(i):
    # the byte-table row pick, and the exact fallback behind it, against
    # plain Bareiss on the same integer rows
    for mask in range(1 << 12):
        assert _support_rows_independent(3, 4, i, mask) == (
            _picked_rows_independent(3, 4, i, mask)
        ), (i, mask)


@pytest.mark.parametrize("n, d, i", [(3, 5, 1), (3, 5, 2), (4, 4, 1), (4, 4, 2)])
def test_support_row_pick_matches_exact_rank_on_seeded_masks(n, d, i):
    packed, _ = lefschetz._support_rows(n, d, i)
    m, src = len(packed), basis_size(n, d - i)
    rng = random.Random(n * 100 + d * 10 + i)
    gf2_short = {False: 0, True: 0}
    for _ in range(300):
        bits = rng.sample(range(m), rng.randint(0, min(m, src + 1)))
        mask = sum(1 << p for p in bits)
        expected = _picked_rows_independent(n, d, i, mask)
        assert _support_rows_independent(n, d, i, mask) == expected, mask
        if _ranks_py.rank_gf2_bits([packed[p] for p in bits]) < len(bits):
            gf2_short[expected] += 1
    # GF(2)-dependent masks reach the exact fallback, both ways
    assert gf2_short[False] > 0 and gf2_short[True] > 0


def test_weights_cache_stays_bounded_over_seeds():
    # every seed draws fresh trial forms, so an unbounded cache keyed on the
    # form would keep growing with the seeds one process runs
    from lefschetz_props.harness import wiebe_initial_ideal_check

    lefschetz._integer_weights.cache_clear()
    for seed in (1, 2, 3):
        assert wiebe_initial_ideal_check(3, (2, 3), 40, seed).confirmed
    info = lefschetz._integer_weights.cache_info()
    assert info.maxsize is not None
    assert info.misses > info.maxsize >= info.currsize
