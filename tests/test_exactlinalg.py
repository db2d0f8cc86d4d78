"""Exact rank/RREF against an independent naive rational oracle."""

import random
from fractions import Fraction

import pytest

from lefschetz_props import _kernels
from lefschetz_props.exactlinalg import ExactMatrix, integer_echelon, rank, row_reduce

# primes above 2^31 for the modular cross-check (pure-Python path)
BIG_PRIMES = (2147483659, 2147483693)


def naive_rank(rows):
    """Straight rational Gaussian elimination, no fraction-free tricks."""
    a = [[Fraction(e) for e in r] for r in rows]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot = None
        for rr in range(r, nrows):
            if a[rr][c]:
                pivot = rr
                break
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        for rr in range(r + 1, nrows):
            if a[rr][c]:
                f = a[rr][c] / a[r][c]
                a[rr] = [x - f * y for x, y in zip(a[rr], a[r])]
        r += 1
    return r


def test_rank_examples():
    assert rank(ExactMatrix.identity(3)) == 3
    assert rank(ExactMatrix.zeros(5, 7)) == 0
    M = ExactMatrix.from_rows([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert naive_rank(M.to_lists()) == 2
    assert rank(M) == 2


def test_rank_empty_dims():
    assert rank(ExactMatrix.zeros(0, 4)) == 0
    assert rank(ExactMatrix.zeros(4, 0)) == 0


def test_rank_fraction_entries():
    M = ExactMatrix.from_rows(
        [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]]
    )
    assert rank(M) == 1


def test_rank_oracle_agreement_random():
    rng = random.Random(20240817)
    equal_mod = 0
    total_mod = 0
    for _ in range(500):
        nrows = rng.randint(1, 12)
        ncols = rng.randint(1, 12)
        rows = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(nrows)]
        r = rank(ExactMatrix.from_rows(rows))
        assert r == naive_rank(rows)
        for p in BIG_PRIMES:
            rp = _kernels.rank_mod_rows(rows, ncols, p)
            total_mod += 1
            assert rp <= r  # modular rank never exceeds the rational rank
            equal_mod += rp == r
    # entries are tiny compared to the primes: no discrepancies expected
    assert equal_mod == total_mod


def test_row_reduce_examples():
    R, pivots = row_reduce(ExactMatrix.identity(3))
    assert R == ExactMatrix.identity(3)
    assert pivots == (0, 1, 2)
    R, pivots = row_reduce(ExactMatrix.from_rows([[0, 2], [0, 4]]))
    assert R == ExactMatrix.from_rows([[0, 1], [0, 0]])
    assert pivots == (1,)


def test_row_reduce_idempotent_and_rank_preserving():
    rng = random.Random(11)
    for _ in range(25):
        rows = [[rng.randint(-6, 6) for _ in range(5)] for _ in range(5)]
        M = ExactMatrix.from_rows(rows)
        R, pivots = row_reduce(M)
        assert list(pivots) == sorted(pivots)
        assert len(pivots) == rank(M) == rank(R)
        R2, pivots2 = row_reduce(R)
        assert R2 == R and pivots2 == pivots



def fraction_row_reduce(rows):
    """Slow twin of row_reduce: Gauss-Jordan on Fractions, each pivot row
    scaled to 1 before it clears its column, ints where the denominator is 1."""
    data = [[Fraction(e) for e in r] for r in rows]
    nrows = len(data)
    ncols = len(data[0]) if data else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = -1
        for rr in range(r, nrows):
            if data[rr][c]:
                pr = rr
                break
        if pr < 0:
            continue
        if pr != r:
            data[r], data[pr] = data[pr], data[r]
        inv = 1 / data[r][c]
        data[r] = [e * inv for e in data[r]]
        prow = data[r]
        for rr in range(nrows):
            if rr != r and data[rr][c]:
                f = data[rr][c]
                row = data[rr]
                for cc in range(c, ncols):
                    row[cc] -= f * prow[cc]
        pivots.append(c)
        r += 1
    echelon = [[int(e) if e.denominator == 1 else e for e in row] for row in data]
    return echelon, tuple(pivots)


def _random_entry(rng, kind, bits):
    num = rng.randint(-(1 << bits), 1 << bits) if rng.random() < 0.7 else 0
    if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
        return num
    return Fraction(num, rng.randint(1, 1 << min(bits, 12)))


def _random_matrix(rng, kind, nrows, ncols, bits):
    rows = [[_random_entry(rng, kind, bits) for _ in range(ncols)] for _ in range(nrows)]
    shape = rng.choice(("plain", "zero-rows", "zero-cols", "deficient"))
    if shape == "zero-rows":
        for i in rng.sample(range(nrows), rng.randint(1, nrows)):
            rows[i] = [0] * ncols
    elif shape == "zero-cols":
        for j in rng.sample(range(ncols), rng.randint(1, ncols)):
            for row in rows:
                row[j] = 0
    elif shape == "deficient" and nrows > 1:
        # the later rows are combinations of the first few
        base = rng.randint(1, nrows - 1)
        for i in range(base, nrows):
            a = _random_entry(rng, kind, 4)
            b = _random_entry(rng, kind, 4)
            rows[i] = [a * x + b * y for x, y in zip(rows[rng.randrange(base)],
                                                      rows[rng.randrange(base)])]
    return rows


def _assert_same_rref(rows):
    M = ExactMatrix.from_rows(rows)
    R, pivots = row_reduce(M)
    want, want_pivots = fraction_row_reduce(rows)
    got = R.to_lists()
    assert (R.rows, R.cols) == (M.rows, M.cols)
    assert pivots == want_pivots
    assert got == want
    assert [[type(e) for e in r] for r in got] == [[type(e) for e in r] for r in want]


@pytest.mark.parametrize("kind", ["int", "fraction", "mixed"])
def test_row_reduce_matches_fraction_twin(kind):
    rng = random.Random(f"row-reduce-{kind}")
    for _ in range(150):
        nrows = rng.randint(1, 9)
        ncols = rng.randint(1, 9)
        bits = rng.choice((2, 5, 30, 70, 130))  # 70 and 130 exceed 2^64
        _assert_same_rref(_random_matrix(rng, kind, nrows, ncols, bits))


@pytest.mark.parametrize("nrows, ncols", [(14, 3), (3, 14), (12, 12), (1, 7), (7, 1)])
def test_row_reduce_matches_fraction_twin_tall_and_wide(nrows, ncols):
    rng = random.Random(nrows * 100 + ncols)
    for kind in ("int", "fraction", "mixed"):
        for _ in range(10):
            _assert_same_rref(_random_matrix(rng, kind, nrows, ncols, rng.choice((3, 80))))


def test_row_reduce_matches_fraction_twin_degenerate():
    for nrows, ncols in ((1, 1), (3, 4), (5, 2)):
        _assert_same_rref([[0] * ncols for _ in range(nrows)])
    _assert_same_rref([[Fraction(0)] * 3, [0, Fraction(2, 4), 0]])
    _assert_same_rref([[-(1 << 200), 3], [7, -(1 << 65)]])
    _assert_same_rref([[Fraction(1, 3), Fraction(-2, 3)], [Fraction(2, 9), Fraction(-4, 9)]])
    R, pivots = row_reduce(ExactMatrix.zeros(0, 4))
    assert (R.rows, R.cols, pivots) == (0, 4, ())
    R, pivots = row_reduce(ExactMatrix.zeros(3, 0))
    assert (R.rows, R.cols, pivots) == (3, 0, ())

def test_integer_echelon_is_an_echelon_basis_of_the_row_space():
    # positive pivots at the fraction twin's pivot columns, zeros before
    # each pivot and below it, zero rows last, and the same row space
    rng = random.Random("integer-echelon")
    for _ in range(150):
        nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
        rows = _random_matrix(rng, "int", nrows, ncols, rng.choice((3, 80)))
        ech = [list(r) for r in rows]
        pivots = integer_echelon(ech, ncols)
        assert pivots == fraction_row_reduce(rows)[1]
        for i, c in enumerate(pivots):
            assert ech[i][c] > 0 and not any(ech[i][:c])
            assert not any(ech[r][c] for r in range(i + 1, nrows))
        assert not any(x for r in ech[len(pivots):] for x in r)
        reduced = row_reduce(ExactMatrix.from_rows(rows))[0].to_lists()
        assert row_reduce(ExactMatrix.from_rows(ech))[0].to_lists() == reduced


def test_from_rows_validation():
    with pytest.raises(ValueError):
        ExactMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(TypeError):
        ExactMatrix.from_rows([[1.5]])


def test_transpose_and_equality():
    M = ExactMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    T = M.transpose()
    assert (T.rows, T.cols) == (3, 2)
    assert T.transpose() == M
    assert rank(T) == rank(M)
