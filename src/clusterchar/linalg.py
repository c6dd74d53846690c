"""Exact sparse linear algebra over Q and prime fields F_p.

A matrix is a list (or tuple) of rows. A row is a sequence of entries, or a
{column: entry} dict that leaves out zeros; the elimination routines take
either, and the Hom systems of `replab` and the cone images of `generic` come
as dicts. Entries are plain numbers: ints or Fractions, which over F_p may
arrive unreduced. A `Field` is only a tag, `QQ` or `GF(p)`; it carries p and no
arithmetic. Everything here is exact; these routines back the Hom/Ext solvers,
Krull-Schmidt splitting, subspace enumeration and the cones of maps between
projectives.

Two kernels do the work, `_echelon` and `mat_mul`, each with plain int arithmetic:

- `_echelon` turns every row into a dict of its nonzero entries and brings the
  rows to a row echelon form, clearing each row's leading entry by the pivot
  row found so far at that column. Over Q a row is first scaled by the lcm of
  its denominators, and is made primitive (content 1) after every update and
  when it becomes a pivot row; over F_p entries are reduced mod p and a pivot
  is scaled to 1 by `pow(x, p - 2, p)`. Work and storage follow the nonzero
  entries, and the Hom systems are sparse: at most dims[t] + dims[s] of a
  row's entries are nonzero.
- `rank` is the number of pivot rows of the echelon form; it does no
  back-substitution. `rref` back-substitutes among the pivot rows only and
  returns them as {pivot column: row}, pivots ascending, each row a dict of its
  nonzero entries with 1 at its pivot and no entry in another pivot column.
  Scaling a row by a nonzero constant keeps the row space, and the RREF of a
  row space is unique, so these are the rows of the RREF whatever the order of
  elimination. Over Q a row whose primitive form has pivot 1 is integral and
  holds ints, and every other row holds Fractions; over F_p every entry is an
  int in [1, p). `nullspace` reads the kernel off `rref` in one pass over the
  entries of its rows.
- `mat_mul` multiplies the integer-scaled matrices and divides once by the
  common denominator; over F_p it reduces mod p.
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


def _sparse_rows(mat: Sequence, p: int | None) -> list[dict[int, int]]:
    """The nonzero rows of mat as {column: entry} dicts holding no zero entry.

    Over Q a row with a Fraction is scaled by the lcm of its denominators, which
    keeps its span; over F_p each entry is reduced into [1, p).
    """
    out = []
    for row in mat:
        r = {c: x for c, x in (row.items() if isinstance(row, dict) else enumerate(row)) if x}
        for x in r.values():
            if type(x) is not int:  # a Fraction
                if p is None:
                    d = lcm(*[x.denominator for x in r.values()])
                    r = {c: x.numerator * (d // x.denominator) for c, x in r.items()}
                else:
                    r = {c: to_field(x, GF(p)) for c, x in r.items()}
                break
        if p is not None:
            r = {c: y for c, x in r.items() if (y := x % p)}
        if r:
            out.append(r)
    return out


def _eliminate(row: dict, prow: dict, c: int, p: int | None) -> dict:
    """row with its entry in column c cleared by the pivot row prow (pivot at c).

    Over Q both are integer rows and so is the result: row is scaled by a positive
    factor, so an entry that prow does not touch keeps its sign, and the result is
    made primitive. Over F_p prow's pivot is 1. row may be updated in place.
    """
    f = row[c]
    if p is None:
        a = prow[c]
        g = gcd(a, f)
        a, f = a // g, f // g
        if a != 1:
            row = {k: a * v for k, v in row.items()}
        for k, v in prow.items():
            x = row.get(k, 0) - f * v
            if x:
                row[k] = x
            else:
                del row[k]
        g = gcd(*row.values())
        return {k: v // g for k, v in row.items()} if g > 1 else row
    for k, v in prow.items():
        x = (row.get(k, 0) - f * v) % p
        if x:
            row[k] = x
        else:
            del row[k]
    return row


def _echelon(mat: Sequence, p: int | None) -> dict[int, dict[int, int]]:
    """A row echelon form of mat, as {pivot column: row}; its size is the rank.

    Each row of mat is cleared, leading entry by leading entry, by the pivot rows
    found so far, and becomes a pivot row at its leading column if anything is
    left. A pivot row is nonzero only from its pivot column on. Over Q it is a
    primitive integer row with a positive pivot, over F_p its pivot is 1.
    """
    echelon: dict[int, dict[int, int]] = {}
    for row in _sparse_rows(mat, p):
        while row:
            c = min(row)
            prow = echelon.get(c)
            if prow is None:
                piv = row[c]
                if p is None:
                    g = gcd(*row.values())
                    if piv < 0:
                        g = -g
                    echelon[c] = {k: v // g for k, v in row.items()} if g != 1 else row
                else:
                    inv = pow(piv, p - 2, p)
                    echelon[c] = {k: v * inv % p for k, v in row.items()} if inv != 1 else row
                break
            row = _eliminate(row, prow, c, p)
    return echelon


def rref(mat: Sequence, field) -> dict[int, dict]:
    """The reduced row echelon form of mat, as {pivot column: row}, pivots ascending.

    mat's rows are sequences or {column: entry} dicts. Over Q the entries are ints
    or Fractions. Over F_p they are ints or Fractions, which may come in unreduced
    and go out as ints in [1, p). Each row holds its nonzero entries only, with 1
    at its pivot; a row of mat past the rank leaves no trace.
    """
    p = field.p
    echelon = _echelon(mat, p)
    # Back-substitution among the pivot rows only, last pivot first: clearing
    # column cj of a row with the reduced row of pivot cj adds nothing in any
    # other pivot column.
    red = {}
    for c in sorted(echelon, reverse=True):
        row = echelon[c]
        for cj in [k for k in row if k != c and k in echelon]:
            row = _eliminate(row, echelon[cj], cj, p)
        echelon[c] = row
        piv = row[c]  # a primitive row whose pivot is 1 is already its RREF row
        red[c] = row if piv == 1 else {k: Fraction(v, piv) for k, v in row.items()}
    return dict(reversed(red.items()))


def rank(mat: Sequence, field) -> int:
    """The rank of mat (sequence or dict rows, as for `rref`), from an echelon form."""
    return len(_echelon(mat, field.p))


def nullspace(mat: Sequence, field, ncols: int) -> list[list]:
    """Basis of the right kernel {v : mat v = 0} of mat with ncols columns, as
    column vectors; mat's rows are as for `rref`."""
    return rref_kernel(rref(mat, field) if mat else {}, ncols, field)


def rref_kernel(red: dict[int, dict], n: int, field) -> list[list]:
    """`nullspace` of a matrix with n columns, read off its RREF red (as from `rref`):
    for each non-pivot column fc, 1 at fc and minus row c's entry at fc at each pivot c."""
    p = field.p
    basis = {fc: [int(i == fc) for i in range(n)] for fc in range(n) if fc not in red}
    for c, row in red.items():
        for fc, x in row.items():
            if fc != c:
                basis[fc][c] = -x if p is None else p - x
    return list(basis.values())


def solve_columns(a: Sequence[Sequence], b: Sequence[Sequence], field) -> list[list] | None:
    """X with a·X = b (columns of b expressed in the column span of a), or None.

    a is m×k with independent columns, b is m×l; X is k×l.
    """
    m = len(a)
    k = len(a[0]) if m else 0
    l = len(b[0]) if b and b[0] else 0
    red = rref([list(a[i]) + list(b[i]) for i in range(m)], field)
    if any(c >= k for c in red):
        return None
    return [[red.get(c, {}).get(k + j, 0) for j in range(l)] for c in range(k)]


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
