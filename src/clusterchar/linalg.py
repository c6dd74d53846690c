"""Exact dense linear algebra over Q (Fractions) and prime fields (ints mod p).

Matrices are lists (or tuples) of rows. Everything here is exact; these routines
back the Hom/Ext solvers, Krull-Schmidt splitting and subspace enumeration.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


class RationalField:
    """The rationals; entries are ints or Fractions."""

    p = None

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    zero = 0
    one = 1

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def inv(a):
        return Fraction(1, 1) / Fraction(a)

    @staticmethod
    def is_zero(a) -> bool:
        return a == 0

    @staticmethod
    def convert(a):
        return a if isinstance(a, int) else Fraction(a)


class PrimeField:
    """F_p with entries kept reduced in [0, p)."""

    def __init__(self, p: int):
        if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def convert(self, a):
        if isinstance(a, Fraction):
            den = a.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return (a.numerator % self.p) * pow(den, self.p - 2, self.p) % self.p
        return a % self.p


QQ = RationalField()

_GF_CACHE: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    if p not in _GF_CACHE:
        _GF_CACHE[p] = PrimeField(p)
    return _GF_CACHE[p]


def rref(mat: Sequence[Sequence], field) -> tuple[list[list], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    m = [list(row) for row in mat]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = None
        for i in range(r, nrows):
            if not field.is_zero(m[i][c]):
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = field.inv(m[r][c])
        m[r] = [field.mul(inv, x) for x in m[r]]
        for i in range(nrows):
            if i != r and not field.is_zero(m[i][c]):
                f = m[i][c]
                row_r = m[r]
                m[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(m[i], row_r)]
        pivots.append(c)
        r += 1
    return m, pivots


def rank(mat: Sequence[Sequence], field) -> int:
    if not mat or not mat[0]:
        return 0
    return len(rref(mat, field)[1])


def nullspace(mat: Sequence[Sequence], field, ncols: int | None = None) -> list[list]:
    """Basis of the right kernel {v : mat v = 0}, as column vectors."""
    if not mat:
        n = ncols if ncols is not None else 0
        return [[field.one if i == j else field.zero for i in range(n)] for j in range(n)]
    n = len(mat[0])
    red, pivots = rref(mat, field)
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [field.zero] * n
        v[fc] = field.one
        for r, pc in enumerate(pivots):
            v[pc] = field.neg(red[r][fc])
        basis.append(v)
    return basis


def column_space_basis(mat: Sequence[Sequence], field) -> list[int]:
    """Indices of a maximal independent set of columns (the RREF pivot columns)."""
    if not mat or not mat[0]:
        return []
    return rref(mat, field)[1]


def solve_columns(a: Sequence[Sequence], b: Sequence[Sequence], field) -> list[list] | None:
    """X with a·X = b (columns of b expressed in the column span of a), or None.

    a is m×k with independent columns, b is m×l; X is k×l.
    """
    m = len(a)
    k = len(a[0]) if m else 0
    l = len(b[0]) if b and b[0] else 0
    aug = [list(a[i]) + list(b[i]) for i in range(m)]
    red, pivots = rref(aug, field)
    if any(p >= k for p in pivots):
        return None
    x = [[field.zero] * l for _ in range(k)]
    for r, pc in enumerate(pivots):
        for j in range(l):
            x[pc][j] = red[r][k + j]
    return x


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence], field) -> list[list]:
    if not a or not b:
        return []
    nb = len(b[0])
    kb = len(b)
    out = []
    for row in a:
        new = []
        for j in range(nb):
            s = field.zero
            for t in range(kb):
                x = row[t]
                if not field.is_zero(x):
                    s = field.add(s, field.mul(x, b[t][j]))
            new.append(s)
        out.append(new)
    return out


def is_invertible(mat: Sequence[Sequence], field) -> bool:
    n = len(mat)
    if n == 0:
        return True
    if len(mat[0]) != n:
        return False
    return rank(mat, field) == n
