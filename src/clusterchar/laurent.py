"""Sparse integer-coefficient Laurent polynomials with canonical forms.

Terms are a map from integer exponent tuples to nonzero int coefficients;
iteration and serialization order is ascending lexicographic on exponents.
No operation mutates the terms of an existing polynomial, so each polynomial
computes its hash once.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Mapping, Sequence

from .errors import NonExactDivision, ParseError, VariableCountMismatch, ZeroPolynomial
from .quiver import integer_vector

Exponent = tuple[int, ...]


@dataclass(frozen=True, eq=False)
class LaurentPoly:
    nvars: int
    terms: dict[Exponent, int] = field(default_factory=dict)

    def __post_init__(self):
        for e, c in self.terms.items():
            if len(e) != self.nvars:
                raise VariableCountMismatch(f"exponent {e} has wrong length for nvars={self.nvars}")
            if c == 0:
                raise ValueError("zero coefficient stored")

    # -- constructors --

    @staticmethod
    def zero(nvars: int) -> "LaurentPoly":
        return LaurentPoly(nvars, {})

    @staticmethod
    def one(nvars: int) -> "LaurentPoly":
        return LaurentPoly(nvars, {(0,) * nvars: 1})

    @staticmethod
    def constant(nvars: int, c: int) -> "LaurentPoly":
        (c,) = integer_vector((c,), "constant")
        return LaurentPoly(nvars, {} if c == 0 else {(0,) * nvars: c})

    # -- ring structure --

    def _check(self, other: "LaurentPoly") -> None:
        if self.nvars != other.nvars:
            raise VariableCountMismatch(f"{self.nvars} vs {other.nvars} variables")

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return LaurentPoly(self.nvars, out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        out: dict[Exponent, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(operator.add, e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return LaurentPoly(self.nvars, out)

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            raise ValueError("use monomial inversion for negative powers of monomials")
        result = None
        base = self
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return LaurentPoly.one(self.nvars) if result is None else result

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LaurentPoly) and self.nvars == other.nvars and self.terms == other.terms

    @cached_property
    def _hash(self) -> int:
        return hash((self.nvars, tuple(sorted(self.terms.items()))))

    def __hash__(self) -> int:
        return self._hash

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list[tuple[Exponent, int]]:
        return sorted(self.terms.items())

    def __repr__(self) -> str:
        return f"LaurentPoly({self.to_text()!r})"

    # -- canonical text form --

    def to_text(self) -> str:
        """Canonical text: polynomial numerator over a monomial denominator.

        Numerator terms appear in ascending lexicographic exponent order.
        """
        if not self.terms:
            return "0"
        mins = [min(e[i] for e in self.terms) for i in range(self.nvars)]
        den = tuple(max(0, -m) for m in mins)
        num = self * monomial(self.nvars, den) if any(den) else self
        parts: list[str] = []
        for e, c in num.sorted_terms():
            parts.append(_term_text(e, c, first=not parts))
        numstr = "".join(parts)
        if all(d == 0 for d in den):
            return numstr
        denstr = _monomial_text(den)
        if len(num.terms) > 1:
            numstr = f"({numstr})"
        if sum(1 for d in den if d) > 1:
            denstr = f"({denstr})"
        return f"{numstr}/{denstr}"

    def to_json(self) -> dict:
        return {
            "nvars": self.nvars,
            "terms": [{"exp": list(e), "coef": c} for e, c in self.sorted_terms()],
        }

    @staticmethod
    def from_json(data: Mapping) -> "LaurentPoly":
        """The inverse of `to_json`; a number that is no int raises TypeError, never truncated."""
        nvars = operator.index(data["nvars"])
        terms: dict[Exponent, int] = {}
        for t in data["terms"]:
            e = tuple(map(operator.index, t["exp"]))
            c = operator.index(t["coef"])
            if c:
                terms[e] = terms.get(e, 0) + c
        return LaurentPoly(nvars, {e: c for e, c in terms.items() if c})


def monomial(nvars: int, exponents: Sequence[int]) -> LaurentPoly:
    """The single-term polynomial x^exponents with coefficient 1."""
    e = integer_vector(exponents, "exponents")
    if len(e) != nvars:
        raise VariableCountMismatch(f"expected {nvars} exponents, got {len(e)}")
    return LaurentPoly(nvars, {e: 1})


def product(factors: Sequence[LaurentPoly], nvars: int) -> LaurentPoly:
    """The product of the factors, starting from the first; 1 when there are none."""
    return reduce(operator.mul, factors) if factors else LaurentPoly.one(nvars)


def denominator_vector(p: LaurentPoly) -> tuple[int, ...]:
    """d with p*x^d a polynomial not divisible by any variable: d_i = -min exponent."""
    if p.is_zero():
        raise ZeroPolynomial("denominator vector of the zero polynomial")
    return tuple(-min(e[i] for e in p.terms) for i in range(p.nvars))


def exact_divide(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """Exact quotient f/g in Z[x^{±1}]; raises NonExactDivision when none exists.

    Repeatedly cancels lex-leading terms of a remainder, updated in place. Any
    term of an existing quotient lies in the componentwise box
    [min(f)-min(g), max(f)-max(g)], which bounds the loop.
    """
    f._check(g)
    if g.is_zero():
        raise NonExactDivision("division by zero polynomial")
    if f.is_zero():
        return LaurentPoly.zero(f.nvars)
    n = f.nvars
    fmin = [min(e[i] for e in f.terms) for i in range(n)]
    fmax = [max(e[i] for e in f.terms) for i in range(n)]
    gmin = [min(e[i] for e in g.terms) for i in range(n)]
    gmax = [max(e[i] for e in g.terms) for i in range(n)]
    lo = [a - b for a, b in zip(fmin, gmin)]
    hi = [a - b for a, b in zip(fmax, gmax)]
    if any(l > h for l, h in zip(lo, hi)):
        raise NonExactDivision("no exponent box for a quotient")
    glead = max(g.terms)
    gc = g.terms[glead]
    rem = dict(f.terms)
    quot: dict[Exponent, int] = {}
    while rem:
        rlead = max(rem)
        rc = rem[rlead]
        te = tuple(a - b for a, b in zip(rlead, glead))
        if any(x < l or x > h for x, l, h in zip(te, lo, hi)) or rc % gc != 0:
            raise NonExactDivision(f"({f.to_text()})/({g.to_text()}) is not exact")
        tc = rc // gc
        quot[te] = tc
        for ge, c in g.terms.items():
            e = tuple(map(operator.add, te, ge))
            r = rem.get(e, 0) - tc * c
            if r:
                rem[e] = r
            else:
                del rem[e]
    return LaurentPoly(n, quot)


# -- canonical serialization + parsing --


def canonical_serialize(p: LaurentPoly) -> bytes:
    return p.to_text().encode("utf-8")


def _term_text(e: Exponent, c: int, first: bool) -> str:
    factors = _monomial_text(e)
    if factors:
        body = factors if abs(c) == 1 else f"{abs(c)}*{factors}"
    else:
        body = str(abs(c))
    if first:
        return body if c > 0 else f"-{body}"
    return f"+{body}" if c > 0 else f"-{body}"


def _monomial_text(e: Sequence[int]) -> str:
    parts = []
    for i, k in enumerate(e):
        if k == 1:
            parts.append(f"x{i + 1}")
        elif k != 0:
            parts.append(f"x{i + 1}^{k}")
    return "*".join(parts)


_TOKEN = re.compile(r"\s*(\d+|x\d+|\^|-|\+|\*|/|\(|\))")


def parse_laurent(text: str, nvars: int) -> LaurentPoly:
    """Parse the canonical text form (and ordinary +,-,*,/,^,() expressions).

    Division requires a monomial divisor, which is all the canonical form emits.
    """
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"bad character at {text[pos:pos + 10]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append("$")
    idx = 0

    def peek() -> str:
        return tokens[idx]

    def take() -> str:
        nonlocal idx
        idx += 1
        return tokens[idx - 1]

    def parse_sum() -> LaurentPoly:
        sign = 1
        if peek() in "+-":
            sign = -1 if take() == "-" else 1
        acc = parse_product()
        if sign < 0:
            acc = -acc
        while peek() in "+-":
            s = -1 if take() == "-" else 1
            t = parse_product()
            acc = acc + t if s > 0 else acc - t
        return acc

    def parse_product() -> LaurentPoly:
        acc = parse_power()
        while peek() in "*/":
            op = take()
            rhs = parse_power()
            if op == "*":
                acc = acc * rhs
            else:
                if len(rhs.terms) != 1:
                    raise ParseError("division only by monomials")
                (e, c), = rhs.terms.items()
                if c not in (1, -1):
                    raise ParseError("division only by unit monomials")
                acc = acc * LaurentPoly(nvars, {tuple(-x for x in e): c})
        return acc

    def parse_power() -> LaurentPoly:
        base = parse_atom()
        if peek() == "^":
            take()
            neg = False
            if peek() == "-":
                take()
                neg = True
            tok = take()
            if not tok.isdigit():
                raise ParseError(f"expected integer exponent, got {tok!r}")
            k = int(tok)
            if neg:
                if len(base.terms) != 1:
                    raise ParseError("negative powers only of monomials")
                (e, c), = base.terms.items()
                if c not in (1, -1):
                    raise ParseError("negative powers only of unit monomials")
                return LaurentPoly(nvars, {tuple(-k * x for x in e): c if k % 2 else 1})
            return base ** k
        return base

    def parse_atom() -> LaurentPoly:
        tok = take()
        if tok == "(":
            inner = parse_sum()
            if take() != ")":
                raise ParseError("unbalanced parenthesis")
            return inner
        if tok.isdigit():
            return LaurentPoly.constant(nvars, int(tok))
        if tok.startswith("x"):
            i = int(tok[1:])
            if not (1 <= i <= nvars):
                raise ParseError(f"variable {tok} out of range for nvars={nvars}")
            return monomial(nvars, tuple(1 if k == i - 1 else 0 for k in range(nvars)))
        raise ParseError(f"unexpected token {tok!r}")

    result = parse_sum()
    if peek() != "$":
        raise ParseError(f"trailing input at {peek()!r}")
    return result
