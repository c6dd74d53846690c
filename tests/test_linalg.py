"""The exact kernels against a field-dispatch Gauss-Jordan kept here as the oracle.

`rref` over Q eliminates on integer rows and over F_p on raw ints; the oracle
does every entry operation through a per-field object (`RationalOps`,
`PrimeOps`), the way `linalg` once did. Both must give the same rows (by value)
and pivots on every input, and so must every routine built on `rref` when it
runs on the oracle instead.
"""

import random
from fractions import Fraction

import pytest

from clusterchar import linalg
from clusterchar.linalg import GF, QQ

FIELDS = [QQ, GF(2), GF(3), GF(5), GF(7919)]
SHAPES = [(r, c) for r in range(10) for c in range(11)]


class RationalOps:
    """Entry operations over Q; entries are ints or Fractions."""

    zero = 0
    one = 1

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def is_zero(a) -> bool:
        return a == 0

    @staticmethod
    def convert(a):
        return a if isinstance(a, int) else Fraction(a)


class PrimeOps:
    """Entry operations over F_p, with entries kept reduced in [0, p)."""

    def __init__(self, p: int):
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def convert(self, a):
        if isinstance(a, Fraction):
            den = a.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return (a.numerator % self.p) * pow(den, self.p - 2, self.p) % self.p
        return a % self.p


def ops(field):
    return RationalOps() if field.p is None else PrimeOps(field.p)


def reduced(mat, field):
    return [[ops(field).convert(x) for x in row] for row in mat]


def _inv(field, a):
    return Fraction(1) / a if field.p is None else pow(a, field.p - 2, field.p)


def oracle_rref(mat, field):
    f = ops(field)
    m = reduced(mat, field)
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = None
        for i in range(r, nrows):
            if not f.is_zero(m[i][c]):
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = _inv(field, m[r][c])
        m[r] = [f.mul(inv, x) for x in m[r]]
        for i in range(nrows):
            if i != r and not f.is_zero(m[i][c]):
                g = m[i][c]
                m[i] = [f.add(x, f.neg(f.mul(g, y))) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def oracle_mat_mul(a, b, field):
    if not a or not b:
        return []
    f = ops(field)
    out = []
    for row in a:
        new = []
        for j in range(len(b[0])):
            s = f.zero
            for t in range(len(b)):
                if not f.is_zero(row[t]):
                    s = f.add(s, f.mul(row[t], b[t][j]))
            new.append(s)
        out.append(new)
    return out


def on_oracle(monkeypatch, fn, *args):
    """fn(*args) with `linalg.rref` replaced by the oracle."""
    with monkeypatch.context() as mp:
        mp.setattr(linalg, "rref", oracle_rref)
        return fn(*args)


def entry(rng, field):
    """A small entry, negative ones included; over Q sometimes a Fraction with a
    large denominator, over F_p an unreduced int."""
    if field.p is not None:
        return rng.randint(-3 * field.p, 3 * field.p)
    if rng.random() < 0.3:
        return Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**12))
    return rng.randint(-9, 9)


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


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_rref_rank_nullspace_match_the_oracle(field, monkeypatch):
    for mat in matrices(field, 11):
        rows, pivots = linalg.rref(mat, field)
        assert (rows, pivots) == oracle_rref(mat, field)
        assert linalg.rank(mat, field) == on_oracle(monkeypatch, linalg.rank, mat, field)
        ncols = len(mat[0]) if mat else 0
        kernel = linalg.nullspace(mat, field, ncols)
        assert kernel == on_oracle(monkeypatch, linalg.nullspace, mat, field, ncols)
        assert len(kernel) == ncols - len(pivots)
        if kernel and mat:
            image = oracle_mat_mul(reduced(mat, field), [list(col) for col in zip(*kernel)], field)
            assert all(ops(field).is_zero(y) for row in image for y in row)


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
