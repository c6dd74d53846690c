import random

import pytest

from clusterchar import LaurentPoly, canonical_serialize, denominator_vector, monomial, parse_laurent
from clusterchar.errors import NonExactDivision, SubdimensionOutOfRange, VariableCountMismatch, ZeroPolynomial
from clusterchar.laurent import exact_divide


def P(text, nvars=2):
    return parse_laurent(text, nvars)


def test_monomial_basics():
    assert monomial(2, (0, 0)) == LaurentPoly.one(2)
    assert monomial(2, (1, -1)).to_text() == "x1/x2"
    assert monomial(3, (0, 2, 0)).to_text() == "x2^2"


def test_monomial_refuses_non_integral_exponents():
    # once truncated: monomial(2, (0.5, 1.9)) gave x2
    with pytest.raises(SubdimensionOutOfRange, match=r"\(0\.5, 1\.9\)"):
        monomial(2, (0.5, 1.9))
    assert monomial(2, (True, 2)) == monomial(2, (1, 2))


def test_constant_refuses_a_non_integral_number():
    # once truncated: LaurentPoly.constant(2, 2.7) gave 2
    with pytest.raises(SubdimensionOutOfRange, match=r"2\.7"):
        LaurentPoly.constant(2, 2.7)
    assert LaurentPoly.constant(2, 3) == P("3")
    assert LaurentPoly.constant(2, 0) == LaurentPoly.zero(2)


def test_mul_examples():
    x1 = monomial(2, (1, 0))
    assert x1 * monomial(2, (-1, 0)) == LaurentPoly.one(2)
    assert P("(1+x2)") * monomial(2, (-1, 0)) == P("(1+x2)/x1")
    product = P("(1+x2)/x1") * P("(1+x1)/x2")
    assert len(product.terms) == 4


def test_arith_dispatch():
    a, b = P("1+x1"), P("x2")
    assert a + b == P("1+x1+x2")
    assert a - b == P("1+x1-x2")
    assert a * b == P("x2+x1*x2")


def test_nvars_mismatch():
    with pytest.raises(VariableCountMismatch):
        LaurentPoly.one(2) * LaurentPoly.one(3)


def test_denominator_vector():
    assert denominator_vector(P("(x1+1+x2)/(x1*x2)")) == (1, 1)
    assert denominator_vector(monomial(2, (1, 0))) == (-1, 0)
    assert denominator_vector(LaurentPoly.constant(2, 5)) == (0, 0)
    with pytest.raises(ZeroPolynomial):
        denominator_vector(LaurentPoly.zero(2))


def test_denominator_additive_on_products():
    rng = random.Random(11)
    for _ in range(50):
        p = _random_poly(rng, nonneg=True)
        q = _random_poly(rng, nonneg=True)
        if p.is_zero() or q.is_zero():
            continue
        assert denominator_vector(p * q) == tuple(
            a + b for a, b in zip(denominator_vector(p), denominator_vector(q))
        )


def test_canonical_serialize_basics():
    assert canonical_serialize(LaurentPoly.one(2)) == b"1"
    one_way = P("(1+x2)") * monomial(2, (-1, 0))
    other_way = (monomial(2, (0, 1)) + LaurentPoly.one(2)) * monomial(2, (-1, 0))
    assert canonical_serialize(one_way) == canonical_serialize(other_way) == b"(1+x2)/x1"


def _random_poly(rng, nvars=2, nonneg=False):
    terms = {}
    for _ in range(rng.randint(0, 5)):
        e = tuple(rng.randint(-3, 3) for _ in range(nvars))
        c = rng.randint(1, 9) if nonneg else rng.choice([-3, -2, -1, 1, 2, 3])
        terms[e] = c
    return LaurentPoly(nvars, terms)


def test_serialize_parse_round_trip_1000():
    rng = random.Random(7)
    for _ in range(1000):
        p = _random_poly(rng)
        text = canonical_serialize(p).decode()
        assert parse_laurent(text, 2) == p


def test_ring_axioms_random():
    rng = random.Random(23)
    for _ in range(150):
        a, b, c = (_random_poly(rng) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a - a == LaurentPoly.zero(2)


def _zip_product_terms(a, b):
    """The product's terms with exponents added pairwise by a generator, in insertion order."""
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return list(out.items())


def test_mul_terms_and_their_order_match_the_reference():
    rng = random.Random(29)
    for nvars in (1, 2, 4):
        for _ in range(100):
            a, b = _random_poly(rng, nvars), _random_poly(rng, nvars)
            assert list((a * b).terms.items()) == _zip_product_terms(a, b)


def test_exact_divide():
    num = P("x1^2-1", 1)
    assert exact_divide(num, P("x1+1", 1)) == P("x1-1", 1)
    assert exact_divide(P("(1+x2)/x1"), monomial(2, (-1, 0))) == P("1+x2")
    with pytest.raises(NonExactDivision):
        exact_divide(P("x1+x2"), P("1+x1"))


def test_exact_divide_random_round_trip():
    rng = random.Random(5)
    for _ in range(200):
        q = _random_poly(rng)
        g = _random_poly(rng)
        if g.is_zero():
            continue
        assert exact_divide(q * g, g) == q


def test_equal_polynomials_hash_equal():
    # the hash is computed once per object, from the terms in sorted order, so
    # equal polynomials built by different routes (term order, product order,
    # JSON) hash equal, and hashing twice gives the same number
    rng = random.Random(11)
    for nvars in (1, 2, 4):
        for _ in range(50):
            a, b = _random_poly(rng, nvars), _random_poly(rng, nvars)
            ab, ba = a * b, b * a
            reversed_terms = LaurentPoly(nvars, dict(reversed(list(ab.terms.items()))))
            copies = (ab, ba, reversed_terms, LaurentPoly.from_json(ab.to_json()))
            assert all(c == ab and hash(c) == hash(ab) for c in copies)
            assert hash(ab) == hash(ab) and len(set(copies)) == 1


def test_json_round_trip():
    p = P("(x1+1+x2)/(x1*x2)")
    data = p.to_json()
    assert data["nvars"] == 2
    exps = [tuple(t["exp"]) for t in data["terms"]]
    assert exps == sorted(exps)
    assert LaurentPoly.from_json(data) == p


@pytest.mark.parametrize("data", [
    {"nvars": 2, "terms": [{"exp": [-1.9, 0.6], "coef": "3"}]},
    {"nvars": 2, "terms": [{"exp": [-1, 0], "coef": 3.5}]},
    {"nvars": 2.0, "terms": [{"exp": [-1, 0], "coef": 3}]},
])
def test_from_json_refuses_numbers_that_are_no_integers(data):
    with pytest.raises(TypeError):
        LaurentPoly.from_json(data)


def test_power():
    assert P("1+x1") ** 2 == P("1+2*x1+x1^2")
    assert P("x2") ** 0 == LaurentPoly.one(2)
    base = P("(1+x1-2*x2)/x2")
    product = LaurentPoly.one(2)
    for k in range(1, 9):
        product = product * base
        assert base ** k == product
