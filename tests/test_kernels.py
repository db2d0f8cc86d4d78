"""The rank kernels and the one rank policy built on them.

Inverse-free elimination mod p is checked against the textbook loop that
scales by modular inverses (kept here as the slow twin), GF(2) against the
exact rank it bounds, and the policy against exact Bareiss.
"""

import random
from fractions import Fraction

from lefschetz_props import _kernels, _ranks_py
from lefschetz_props.exactlinalg import integer_rows

PRIMES = (2, 3, 97, _kernels.WORD_PRIME, 2**61 - 1)


def gf2(rows):
    """GF(2) rank of integer rows, packed by ``_packed_rows``."""
    return _ranks_py.rank_gf2_bits(_ranks_py._packed_rows(rows))


def policy(rows, ncols):
    """The rank policy on integer rows with their own packed parity."""
    return _kernels.rank_rows(rows, ncols, _ranks_py._packed_rows(rows))


def inverse_rank_mod(rows, ncols, p):
    """Rank mod p by elimination with modular inverses (the slow twin)."""
    nrows = len(rows)
    if nrows == 0 or ncols == 0:
        return 0
    a = [[e % p for e in row] for row in rows]
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = -1
        for rr in range(r, nrows):
            if a[rr][c]:
                pr = rr
                break
        if pr < 0:
            continue
        if pr != r:
            a[r], a[pr] = a[pr], a[r]
        pivot_row = a[r]
        inv = pow(pivot_row[c], p - 2, p)
        for rr in range(r + 1, nrows):
            row = a[rr]
            f = row[c] * inv % p
            if f:
                for cc in range(c, ncols):
                    row[cc] = (row[cc] - f * pivot_row[cc]) % p
        r += 1
    return r


def seeded_matrices(seed, count, max_dim, entry):
    rng = random.Random(seed)
    for _ in range(count):
        nrows = rng.randint(1, max_dim)
        ncols = rng.randint(1, max_dim)
        yield [[entry(rng) for _ in range(ncols)] for _ in range(nrows)], ncols


def test_inverse_free_rank_mod_matches_inverse_twin():
    entries = (
        lambda rng: rng.randint(-9, 9),
        lambda rng: rng.choice((0, 0, 1, 2, 3, 6, 97)),
        lambda rng: rng.randint(-(2**70), 2**70),
    )
    for p in PRIMES:
        for seed, entry in enumerate(entries):
            for rows, ncols in seeded_matrices(seed, 100, 9, entry):
                assert _ranks_py.rank_mod(rows, ncols, p) == inverse_rank_mod(rows, ncols, p)


def test_inverse_free_rank_mod_on_low_rank_products():
    # rank-deficient by construction, so elimination hits zero pivots
    rng = random.Random(21)
    for p in PRIMES:
        for _ in range(40):
            k = rng.randint(1, 4)
            left = [[rng.randint(-5, 5) for _ in range(k)] for _ in range(7)]
            right = [[rng.randint(-5, 5) for _ in range(6)] for _ in range(k)]
            rows = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]
            assert _ranks_py.rank_mod(rows, 6, p) == inverse_rank_mod(rows, 6, p)


def test_gf2_rank_is_a_lower_bound_and_the_parity_rank():
    entries = (
        lambda rng: rng.randint(-9, 9),
        lambda rng: 2 * rng.randint(-5, 5) + (rng.random() < 0.15),
        lambda rng: rng.randint(-(2**70), 2**70),
        lambda rng: rng.randint(0, 1),
    )
    for seed, entry in enumerate(entries):
        for rows, ncols in seeded_matrices(seed + 10, 150, 10, entry):
            g = gf2(rows)
            assert g <= _ranks_py.rank_i64(rows, ncols)
            assert g == inverse_rank_mod(rows, ncols, 2)


def test_gf2_rank_edge_shapes():
    assert gf2([]) == 0
    assert gf2([[], []]) == 0
    assert gf2([[2, 4], [6, -8]]) == 0
    assert gf2([[1, 1], [1, 1], [-1, 3]]) == 1
    assert gf2([[1, 0, 1], [0, 1, 1], [1, 1, 0]]) == 2


def test_policy_on_huge_entries():
    rows = [[2**70, 1], [1, 1]]
    assert policy(rows, 2) == 2
    assert policy([[2**70, 2], [2**69, 1]], 2) == 1


def test_policy_on_intermediate_growth():
    # 25x25 with entries up to 99: Bareiss minors far exceed 64 bits mid-way
    rng = random.Random(4)
    rows = [[rng.randint(-99, 99) for _ in range(25)] for _ in range(25)]
    assert policy(rows, 25) == _ranks_py.rank_i64(rows, 25) == 25
    singular = rows[:24] + [[a + b for a, b in zip(rows[0], rows[1])]]
    assert policy(singular, 25) == _ranks_py.rank_i64(singular, 25) == 24


def test_policy_matches_exact_rank_on_integer_rows_of_rationals():
    rng = random.Random(8)
    for _ in range(150):
        nrows = rng.randint(1, 8)
        ncols = rng.randint(1, 8)
        rows = [
            [Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 4))) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        if rng.random() < 0.5 and nrows > 1:
            rows[-1] = [2 * a - b for a, b in zip(rows[0], rows[1])]
        ints = integer_rows(rows)
        assert policy(ints, ncols) == _ranks_py.rank_i64(ints, ncols)


def test_policy_matches_exact_rank_on_deficient_matrices():
    # even entries defeat GF(2), and a repeated row defeats every prime
    rng = random.Random(6)
    for _ in range(100):
        ncols = rng.randint(2, 8)
        rows = [[2 * rng.randint(-9, 9) for _ in range(ncols)] for _ in range(rng.randint(2, 8))]
        rows.append(list(rows[0]))
        assert policy(rows, ncols) == _ranks_py.rank_i64(rows, ncols)
    assert policy([], 4) == 0
    assert policy([[], []], 0) == 0


def test_policy_reaches_the_kernels_through_module_attributes(monkeypatch):
    # the word prime runs only where GF(2) falls short, the exact rank only
    # where both do; both are looked up on the module at call time
    calls = []

    def spy(name, kernel):
        def counted(rows, ncols, *p):
            calls.append(name)
            return kernel(rows, ncols, *p)

        return counted

    for name in ("rank_mod_rows", "rank_int_rows"):
        monkeypatch.setattr(_kernels, name, spy(name, getattr(_kernels, name)))
    assert policy([[1, 0], [0, 1]], 2) == 2 and calls == []
    assert policy([[2, 0], [0, 2]], 2) == 2
    assert calls == ["rank_mod_rows"]
    assert policy([[2, 4], [1, 2]], 2) == 1
    assert calls == ["rank_mod_rows", "rank_mod_rows", "rank_int_rows"]
    # the certificate alone never runs Bareiss
    calls.clear()
    assert _kernels.certifies_maximal([[2, 0], [0, 2]], 2, [0, 0])
    assert not _kernels.certifies_maximal([[2, 4], [1, 2]], 2, [0, 1])
    assert calls == ["rank_mod_rows", "rank_mod_rows"]


def test_policy_ranks_the_given_parity_and_never_packs(monkeypatch):
    # the policy's GF(2) step ranks the parity its caller packed, rows or
    # columns, once and never packs the rows itself; past that step (a
    # parity of zeros certifies nothing) the word prime, then Bareiss, give
    # the exact rank on their own
    def no_packing(rows):
        raise AssertionError("rows packed by the policy")

    ranked = []
    bits = _ranks_py.rank_gf2_bits

    def gf2_bits(parity):
        ranked.append(parity)
        return bits(parity)

    packed_rows = _ranks_py._packed_rows
    monkeypatch.setattr(_ranks_py, "_packed_rows", no_packing)
    monkeypatch.setattr(_ranks_py, "rank_gf2_bits", gf2_bits)
    for rows, ncols in seeded_matrices(31, 150, 8, lambda rng: rng.choice((0, 0, 1, 2, -3))):
        exact = _ranks_py.rank_i64(rows, ncols)
        columns = [sum(1 << r for r, row in enumerate(rows) if row[c] & 1) for c in range(ncols)]
        for parity in (packed_rows(rows), columns, [0] * len(rows)):
            ranked.clear()
            assert _kernels.rank_rows(rows, ncols, parity) == exact
            assert len(ranked) == 1 and ranked[0] is parity
    assert _kernels.rank_rows([], 3, []) == 0
    assert _kernels.rank_rows([[2, 4], [1, 2]], 2, [0, 0]) == 1


def test_gf2_bits_is_the_packed_gf2_rank():
    for rows, ncols in seeded_matrices(32, 150, 9, lambda rng: rng.randint(-3, 3)):
        packed = [sum(1 << c for c, e in enumerate(row) if e & 1) for row in rows]
        columns = [sum(1 << r for r, row in enumerate(rows) if row[c] & 1) for c in range(ncols)]
        assert packed == _ranks_py._packed_rows(rows)
        assert _ranks_py.rank_gf2_bits(packed) == inverse_rank_mod(rows, ncols, 2)
        assert _ranks_py.rank_gf2_bits(columns) == inverse_rank_mod(rows, ncols, 2)
    assert _ranks_py.rank_gf2_bits([]) == 0
    assert _ranks_py.rank_gf2_bits([0, 0b11, 0b11, 0b110]) == 2


def test_dispatcher_matches_pure():
    rng = random.Random(5)
    for _ in range(100):
        nrows = rng.randint(1, 8)
        ncols = rng.randint(1, 8)
        rows = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(nrows)]
        assert _kernels.rank_int_rows(rows, ncols) == _ranks_py.rank_i64(rows, ncols)
        assert policy(rows, ncols) == _ranks_py.rank_i64(rows, ncols)


def test_pure_kernel_does_not_mutate_input():
    rows = [[1, 2], [3, 4]]
    _ranks_py.rank_i64(rows, 2)
    _ranks_py.rank_mod(rows, 2, 97)
    gf2(rows)
    policy(rows, 2)
    assert rows == [[1, 2], [3, 4]]


def test_mod_rank_is_lower_bound():
    rng = random.Random(12)
    for _ in range(100):
        rows = [[rng.randint(-9, 9) for _ in range(6)] for _ in range(6)]
        assert _kernels.rank_mod_rows(rows, 6) <= _ranks_py.rank_i64(rows, 6)
