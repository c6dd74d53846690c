"""Exact dense linear algebra over Q and prime fields F_p.

Matrices are lists (or tuples) of rows, and their entries are plain numbers:
ints or Fractions over Q, ints over F_p, which may arrive unreduced. A `Field`
is only a tag, `QQ` or `GF(p)`; it carries p and no arithmetic. Everything here
is exact; these routines back the Hom/Ext solvers, Krull-Schmidt splitting,
subspace enumeration and the inverse of the Euler matrix.

Two kernels do the work, `rref` and `mat_mul`, each with plain int arithmetic:

- Over Q, `rref` scales each row by the lcm of its denominators and runs
  Gauss-Jordan over the integers, keeping every row primitive (content 1), and
  divides by the pivots only when it builds the output rows. Scaling a row by a
  nonzero constant keeps the row space, and the RREF of a row space is unique,
  so the result is the RREF of the input. `mat_mul` multiplies the
  integer-scaled matrices and divides once by the common denominator.
- Over F_p, both kernels reduce entries mod p on entry and use `%` and
  `pow(x, p - 2, p)` inline; what they return lies in [0, p).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul
from typing import Sequence


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981  # these 13 bases decide every n below it


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the first 13 primes as bases, proven for
    n < _MR_BOUND (Sorenson-Webster 2015); a larger n raises ValueError."""
    if n >= _MR_BOUND:
        raise ValueError(f"primality of {n} is only decided below {_MR_BOUND}")
    if n < 2 or any(n % b == 0 for b in _MR_BASES):
        return n in _MR_BASES
    r = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d·2^r with d odd
    d = (n - 1) >> r
    return all(pow(b, d, n) == 1 or any(pow(b, d << s, n) == n - 1 for s in range(r)) for b in _MR_BASES)


@dataclass(frozen=True)
class Field:
    """Which field the entries live in: Q when p is None, else F_p.

    Only a tag: entries are plain ints and Fractions, and each routine here
    chooses its arithmetic from p.
    """

    p: int | None

    def __post_init__(self):
        if self.p is not None and not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    def __repr__(self):
        return "QQ" if self.p is None else f"GF({self.p})"


QQ = Field(None)


@lru_cache(maxsize=None)
def GF(p: int) -> Field:
    return Field(p)


def to_field(x, field: Field):
    """The int or Fraction x as an entry over field: itself over Q, in [0, p) over F_p."""
    p = field.p
    if p is None:
        return x if isinstance(x, int) else Fraction(x)
    if isinstance(x, Fraction):
        den = x.denominator % p
        if den == 0:
            raise ZeroDivisionError(f"denominator divisible by {p}")
        return x.numerator * pow(den, p - 2, p) % p
    return x % p


def _integer_rows(mat: Sequence[Sequence]) -> list[list[int]]:
    """Each row times the lcm of its denominators: the same row space, in ints."""
    out = []
    for row in mat:
        d = lcm(*[x.denominator for x in row])
        if d == 1:
            out.append([x.numerator for x in row])
        else:
            out.append([x.numerator * (d // x.denominator) for x in row])
    return out


def _rref_qq(m: list[list[int]], ncols: int) -> tuple[list[list], list[int]]:
    """Gauss-Jordan over Z on integer rows; the pivot rows stay primitive."""
    nrows = len(m)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        row = m[r]
        g = gcd(*row)
        if row[c] < 0:  # a positive pivot stays positive under the updates below
            g = -g
        if g != 1:
            row = m[r] = [x // g for x in row]
        piv = row[c]
        for i in range(nrows):
            f = m[i][c]
            if f and i != r:
                g = gcd(piv, f)
                a, b = piv // g, f // g
                new = [a * x - b * y for x, y in zip(m[i], row)]
                h = gcd(*new)
                if h > 1:
                    new = [x // h for x in new]
                m[i] = new
        pivots.append(c)
        r += 1
    # A primitive row whose pivot is 1 is already its RREF row.
    out = [row if row[c] == 1 else [Fraction(x, row[c]) for x in row] for row, c in zip(m, pivots)]
    return out + m[r:], pivots


def _rref_fp(m: list[list[int]], ncols: int, p: int) -> tuple[list[list], list[int]]:
    """Gauss-Jordan mod p on rows already reduced into [0, p)."""
    nrows = len(m)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        row = m[r]
        inv = pow(row[c], p - 2, p)
        if inv != 1:
            row = m[r] = [x * inv % p for x in row]
        for i in range(nrows):
            f = m[i][c]
            if f and i != r:
                m[i] = [(x - f * y) % p for x, y in zip(m[i], row)]
        pivots.append(c)
        r += 1
    return m, pivots


def rref(mat: Sequence[Sequence], field) -> tuple[list[list], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices).

    Over Q the entries are ints or Fractions. Over F_p they are ints, which may
    come in unreduced and go out in [0, p).
    """
    ncols = len(mat[0]) if mat else 0
    p = field.p
    if p is None:
        return _rref_qq(_integer_rows(mat), ncols)
    return _rref_fp([[x % p for x in row] for row in mat], ncols, p)


def rank(mat: Sequence[Sequence], field) -> int:
    if not mat or not mat[0]:
        return 0
    return len(rref(mat, field)[1])


def nullspace(mat: Sequence[Sequence], field, ncols: int | None = None) -> list[list]:
    """Basis of the right kernel {v : mat v = 0}, as column vectors."""
    if not mat:
        n = ncols if ncols is not None else 0
        return [[int(i == j) for i in range(n)] for j in range(n)]
    return rref_kernel(*rref(mat, field), len(mat[0]), field)


def rref_kernel(red: Sequence[Sequence], pivots: Sequence[int], n: int, field) -> list[list]:
    """`nullspace` of a matrix with n columns, read off its RREF (red, pivots)."""
    p = field.p
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [0] * n
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc] if p is None else -red[r][fc] % p
        basis.append(v)
    return basis


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
    x = [[0] * l for _ in range(k)]
    for r, pc in enumerate(pivots):
        for j in range(l):
            x[pc][j] = red[r][k + j]
    return x


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence], field) -> list[list]:
    if not a or not b:
        return []
    p = field.p
    if p is not None:
        cols = list(zip(*b))
        return [[sum(map(mul, row, col)) % p for col in cols] for row in a]
    da = lcm(*[x.denominator for row in a for x in row])
    db = lcm(*[x.denominator for row in b for x in row])
    ai = [[x.numerator * (da // x.denominator) for x in row] for row in a]
    cols = list(zip(*[[x.numerator * (db // x.denominator) for x in row] for row in b]))
    d = da * db
    if d == 1:
        return [[sum(map(mul, row, col)) for col in cols] for row in ai]
    return [[Fraction(sum(map(mul, row, col)), d) for col in cols] for row in ai]
