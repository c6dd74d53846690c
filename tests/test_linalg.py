"""The exact kernels against the field-dispatch Gauss-Jordan of `linalg_oracle`.

`linalg` takes dense or sparse ({column: entry}) rows, eliminates on sparse
integer rows over Q and on sparse reduced rows over F_p, takes a rank from the
echelon form alone, and returns the RREF as {pivot: sparse row}. The oracle does
every entry operation through a per-field object on dense rows. Written out
densely, `rref`'s rows must equal the oracle's pivot rows (by value) on every
input, with the same pivots; the rank must be the oracle's pivot count, and every
routine built on `rref` must give the same result when it runs on the oracle
instead.
"""

import random
from fractions import Fraction

import pytest

from clusterchar import linalg
from clusterchar.linalg import GF, QQ
from linalg_oracle import ops, oracle_kernel, oracle_mat_mul, oracle_rref, reduced

FIELDS = [QQ, GF(2), GF(3), GF(5), GF(7919)]
SHAPES = [(r, c) for r in range(10) for c in range(11)]


def densify(red, ncols):
    """(rows, pivots) of `rref`'s output red, each row written out as ncols entries."""
    return [[row.get(j, 0) for j in range(ncols)] for row in red.values()], list(red)


def sparse_oracle_rref(mat, field):
    """`oracle_rref` in the format of `linalg.rref`: {pivot: its row's nonzero entries}.
    Dict rows are written out up to their last column; a zero column past it is no pivot."""
    width = max((max(row, default=-1) + 1 if isinstance(row, dict) else len(row) for row in mat), default=0)
    rows, pivots = oracle_rref(mat, field, width)
    return {c: {j: x for j, x in enumerate(row) if x} for c, row in zip(pivots, rows)}


def on_oracle(monkeypatch, fn, *args):
    """fn(*args) with `linalg.rref` replaced by the oracle."""
    with monkeypatch.context() as mp:
        mp.setattr(linalg, "rref", sparse_oracle_rref)
        return fn(*args)


def entry(rng, field):
    """A small entry, negative ones included; over Q sometimes a Fraction with a
    large denominator, over F_p an unreduced int."""
    if field.p is not None:
        return rng.randint(-3 * field.p, 3 * field.p)
    if rng.random() < 0.3:
        return Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**12))
    return rng.randint(-9, 9)


def big_fraction(rng, field):
    """A Fraction with a denominator up to 10^12, prime to p over F_p."""
    while True:
        den = rng.randint(1, 10**12)
        if field.p is None or den % field.p:
            return Fraction(rng.randint(-10**12, 10**12), den)


def sparse_variants(mat, field, rng):
    """mat's rows as {column: entry} dicts, three ways: the nonzero entries only;
    some zero entries kept and some entries replaced by Fractions with large
    denominators (returned with the dense matrix they stand for); and mat with an
    empty dict and an explicit all-zero row put in."""
    ncols = len(mat[0]) if mat else 0
    yield [{j: x for j, x in enumerate(row) if x} for row in mat], mat
    mixed, meant = [], []
    for row in mat:
        r, d = {}, list(row)
        for j, x in enumerate(row):
            if rng.random() < 0.2:
                d[j] = r[j] = big_fraction(rng, field)
            elif x or rng.random() < 0.3:
                r[j] = x
        mixed.append(r)
        meant.append(d)
    yield mixed, meant
    at = rng.randint(0, len(mat))
    yield (mixed[:at] + [{}, dict.fromkeys(range(ncols), 0)] + mixed[at:],
           meant[:at] + [[0] * ncols, [0] * ncols] + meant[at:])


def matrices(field, seed):
    """For every shape: a dense matrix, a product of rank at most 2, and a sparse
    one whose zero rows and columns fall where the seed puts them."""
    rng = random.Random(seed)
    for r, c in SHAPES:
        yield [[entry(rng, field) for _ in range(c)] for _ in range(r)]
        k = rng.randint(0, 2)
        left = [[entry(rng, field) for _ in range(k)] for _ in range(r)]
        right = [[entry(rng, field) for _ in range(c)] for _ in range(k)]
        yield oracle_mat_mul(left, right, QQ) if k else [[0] * c for _ in range(r)]
        zero_rows = {i for i in range(r) if rng.random() < 0.3}
        zero_cols = {j for j in range(c) if rng.random() < 0.3}
        yield [[0 if i in zero_rows or j in zero_cols or rng.random() < 0.4 else entry(rng, field)
                for j in range(c)] for i in range(r)]


def check_against_the_oracle(mat, field, ncols, monkeypatch, meant=None):
    """rref, rank and nullspace of mat (rows dense, or dicts of a matrix with ncols
    columns) against the oracle on `meant`, the dense matrix mat stands for."""
    meant = mat if meant is None else meant
    red = linalg.rref(mat, field)
    rows, pivots = densify(red, ncols)
    want, want_pivots = oracle_rref(meant, field)
    assert (rows, pivots) == (want[:len(want_pivots)], want_pivots)
    assert linalg.rank(mat, field) == len(pivots)
    if field.p is None:  # an integral RREF row holds ints, any other row Fractions
        for row in red.values():
            integral = all(Fraction(x).denominator == 1 for x in row.values())
            assert {type(x) for x in row.values()} == ({int} if integral else {Fraction})
    else:
        assert all(type(x) is int and 0 < x < field.p for row in red.values() for x in row.values())
    kernel = linalg.nullspace(mat, field, ncols)
    assert kernel == on_oracle(monkeypatch, linalg.nullspace, mat, field, ncols)
    assert kernel == oracle_kernel(meant, field, ncols)
    assert len(kernel) == ncols - len(pivots)
    if kernel and meant:
        image = oracle_mat_mul(reduced(meant, field), [list(col) for col in zip(*kernel)], field)
        assert all(ops(field).is_zero(y) for row in image for y in row)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_rref_rank_nullspace_match_the_oracle(field, monkeypatch):
    for mat in matrices(field, 11):
        ncols = len(mat[0]) if mat else 0
        check_against_the_oracle(mat, field, ncols, monkeypatch)
        assert linalg.rref(mat, field) == linalg.rref([dict(enumerate(row)) for row in mat], field)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_sparse_rows_match_the_oracle(field, monkeypatch):
    """Dict rows, with empty dicts, all-zero rows and large-denominator Fractions."""
    rng = random.Random(15)
    for mat in matrices(field, 16):
        ncols = len(mat[0]) if mat else 0
        for rows, meant in sparse_variants(mat, field, rng):
            check_against_the_oracle(rows, field, ncols, monkeypatch, meant)


def test_rref_over_q_keeps_ints_where_the_pivot_row_is_integral():
    """A row whose primitive integer form has pivot 1 keeps int entries, every other
    pivot row holds Fractions, and a row past the rank leaves no trace; the same for
    dense and for dict rows."""
    want = {0: {0: Fraction(1), 1: Fraction(1, 2)}, 2: {2: 1}}
    for mat in ([[2, 1, 0], [0, 0, Fraction(3, 7)], [4, 2, 0]],
                [{0: 2, 1: 1}, {2: Fraction(3, 7)}, {}]):
        red = linalg.rref(mat, QQ)
        assert red == want
        assert [[type(x) for x in row.values()] for row in red.values()] == [[Fraction] * 2, [int]]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_rref_rows_are_sparse_and_reduced(field):
    """Every row of `rref` holds no zero entry, 1 at its pivot and no entry at another
    pivot column; the pivots ascend, and a matrix with no rows, or no nonzero entry,
    gives {}."""
    assert linalg.rref([], field) == {} and linalg.rref([{}, [0, 0]], field) == {}
    rng = random.Random(17)
    for mat in matrices(field, 18):
        for rows, _ in sparse_variants(mat, field, rng):
            red = linalg.rref(rows, field)
            assert list(red) == sorted(red)
            for c, row in red.items():
                assert row[c] == 1 and all(row.values())
                assert not any(k in red for k in row if k != c)
                assert min(row) == c


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_mat_mul_matches_the_oracle(field):
    rng = random.Random(12)
    for r, c in SHAPES:
        k = rng.randint(1, 6)
        a = [[entry(rng, field) for _ in range(k)] for _ in range(r)]
        b = [[entry(rng, field) for _ in range(c)] for _ in range(k)]
        got = linalg.mat_mul(a, b, field)
        assert got == oracle_mat_mul(reduced(a, field), reduced(b, field), field)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_solve_columns_matches_the_oracle(field, monkeypatch):
    rng = random.Random(13)
    solved = 0
    for mat in matrices(field, 14):
        if not mat or not mat[0]:
            continue
        # a: the independent (pivot) columns of mat; b: two columns in their
        # span and one random column, which is in it only when a has full rank.
        pivots = oracle_rref(mat, field)[1]
        a = [[row[j] for j in pivots] for row in mat]
        mix = [[entry(rng, field) for _ in range(2)] for _ in pivots]
        inside = oracle_mat_mul(a, mix, QQ) if pivots else [[0, 0] for _ in mat]
        b = [inside[i] + [entry(rng, field)] for i in range(len(mat))]
        got = linalg.solve_columns(a, b, field)
        assert got == on_oracle(monkeypatch, linalg.solve_columns, a, b, field)
        if got is not None and pivots:
            solved += 1
            assert reduced(oracle_mat_mul(reduced(a, field), got, field), field) == reduced(b, field)
    assert solved > 0


# --- primality of the characteristic: Miller-Rabin, no floats ---


def test_a_large_prime_field_builds_at_once():
    field = linalg.Field(2**61 - 1)  # a fresh object: GF is memoized
    assert field.p == 2**61 - 1


@pytest.mark.parametrize("n", [0, 1, 4, 561, 1105, 2**61 + 1, -7])
def test_a_field_of_non_prime_size_is_refused(n):
    with pytest.raises(ValueError, match="is not prime"):
        linalg.Field(n)


def test_miller_rabin_agrees_with_trial_division_below_ten_thousand():
    def by_division(n):
        return n >= 2 and all(n % d for d in range(2, n) if d * d <= n)

    assert [n for n in range(10**4) if linalg.is_prime(n)] == [n for n in range(10**4) if by_division(n)]


def test_primality_past_the_proven_bound_is_refused():
    bound = 3_317_044_064_679_887_385_961_981
    assert linalg.is_prime(2**79 - 67)  # below the bound
    with pytest.raises(ValueError, match=str(bound)):
        linalg.Field(bound + 2)
