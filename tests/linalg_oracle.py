"""A field-dispatch Gauss-Jordan, kept as the oracle that the exact kernels of `linalg` are tested against.

`linalg` eliminates on sparse integer rows over Q and on sparse reduced rows over
F_p; the oracle works on dense rows and does every entry operation through a
per-field object (`RationalOps`, `PrimeOps`), the way `linalg` once did.
"""

from fractions import Fraction


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


def dense(mat, ncols=None):
    """mat with each {column: entry} row written out as a list of ncols entries."""
    return [[row.get(j, 0) for j in range(ncols)] if isinstance(row, dict) else list(row) for row in mat]


def reduced(mat, field):
    return [[ops(field).convert(x) for x in row] for row in mat]


def _inv(field, a):
    return Fraction(1) / a if field.p is None else pow(a, field.p - 2, field.p)


def oracle_rref(mat, field, ncols=None):
    """(rows, pivots) of the RREF of mat, whose rows are lists or, with ncols, dicts."""
    f = ops(field)
    m = reduced(dense(mat, ncols), field)
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


def oracle_kernel(mat, field, ncols):
    """A basis of {v : mat v = 0}, one vector per non-pivot column of the oracle RREF."""
    f = ops(field)
    red, pivots = oracle_rref(mat, field, ncols) if mat else ([], [])
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[fc] = 1
        for row, pc in zip(red, pivots):
            v[pc] = f.neg(row[fc])
        basis.append(v)
    return basis


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

