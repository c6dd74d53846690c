import random
from itertools import product

import pytest

from clusterchar import (
    ClusterObject,
    cc_generic,
    cc_module,
    cc_object,
    coindex_of,
    denominator_vector,
    direct_sum,
    g_vector_of_index,
    generic_representation,
    index_of,
    monomial,
    parse_laurent,
    projective_representation,
    random_representation,
    shifted_object,
    simple_representation,
    zero_object,
    zero_representation,
)
from clusterchar.characters import euler_data
from clusterchar.errors import SubdimensionOutOfRange


def test_cc_module_frozen_values(a2):
    s1 = simple_representation(a2, 1)
    assert cc_module(s1) == parse_laurent("(1+x2)/x1", 2)
    p1 = projective_representation(a2, 1)
    assert cc_module(p1) == parse_laurent("(x1+1+x2)/(x1*x2)", 2)
    assert cc_module(zero_representation(a2)) == parse_laurent("1", 2)
    s2 = simple_representation(a2, 2)
    assert cc_module(s2) == parse_laurent("(x1+1)/x2", 2)


def test_cc_object_examples(a2):
    assert cc_object(shifted_object(a2, (1, 0))) == monomial(2, (1, 0))
    assert cc_object(shifted_object(a2, (0, 1))) == monomial(2, (0, 1))
    s1 = simple_representation(a2, 1)
    obj = ClusterObject(module=s1, shifted=(0, 1))
    assert cc_object(obj) == parse_laurent("(1+x2)/x1", 2) * monomial(2, (0, 1))
    assert cc_object(zero_object(a2)) == parse_laurent("1", 2)


def test_cc_object_rejects_negative_shift(a2):
    with pytest.raises(SubdimensionOutOfRange):
        shifted_object(a2, (-1, 0))


def test_multiplicativity_direct(a2, a3):
    # cc_module computes both sides by direct enumeration: a genuine check.
    rng = random.Random(17)
    for q in (a2, a3):
        for _ in range(6):
            d1 = tuple(rng.randint(0, 2) for _ in range(q.n))
            d2 = tuple(rng.randint(0, 1) for _ in range(q.n))
            m = random_representation(q, d1, rng_seed=rng.randint(0, 10**6))
            n = random_representation(q, d2, rng_seed=rng.randint(0, 10**6))
            assert cc_module(direct_sum(m, n)) == cc_module(m) * cc_module(n)


def test_index_examples(a2):
    s1 = simple_representation(a2, 1)
    assert index_of(ClusterObject(s1, (0, 0))) == (1, -1)
    assert index_of(shifted_object(a2, (1, 0))) == (-1, 0)
    assert index_of(shifted_object(a2, (0, 1))) == (0, -1)
    p1 = projective_representation(a2, 1)
    assert index_of(ClusterObject(p1, (0, 0))) == (1, 0)


def test_coindex_examples(a2):
    s1 = simple_representation(a2, 1)
    assert coindex_of(ClusterObject(s1, (0, 0))) == (1, 0)
    assert coindex_of(shifted_object(a2, (1, 0))) == (-1, 0)
    s2 = simple_representation(a2, 2)
    assert coindex_of(ClusterObject(s2, (0, 0))) == (-1, 1)


def test_g_vector_examples(a2):
    assert g_vector_of_index(a2, (1, -1)) == (-1, 0)
    assert g_vector_of_index(a2, (0, 0)) == (0, 0)
    assert g_vector_of_index(a2, (1, 0)) == (0, -1)


def test_g_vector_inverts_coxeter(a2, a3):
    for q in (a2, a3):
        ed = euler_data(q)
        n = q.n
        for gamma in product(range(-2, 3), repeat=n):
            g = g_vector_of_index(q, gamma)
            assert tuple(sum(ed.C[i][j] * g[j] for j in range(n)) for i in range(n)) == gamma


def test_g_vector_is_minus_coindex_for_modules(a2, a3):
    for q in (a2, a3):
        for alpha in product(range(3), repeat=q.n):
            m, _ = generic_representation(q, alpha, rng_seed=3)
            obj = ClusterObject(m, (0,) * q.n)
            assert g_vector_of_index(q, index_of(obj)) == tuple(-x for x in coindex_of(obj))


def test_denominator_matches_dimension_small(a2):
    for alpha in product(range(3), repeat=2):
        value = cc_generic(a2, alpha, rng_seed=11)
        assert denominator_vector(value) == alpha


def test_cc_coefficients_nonnegative(a2, a3):
    # observed property, kept as a regression check
    for q in (a2, a3):
        for alpha in product(range(3), repeat=q.n):
            value = cc_generic(q, alpha, rng_seed=2)
            assert all(c > 0 for c in value.terms.values())


def test_cc_generic_seed_independent(a2):
    vals = {cc_generic(a2, (2, 1), rng_seed=s).to_text() for s in (1, 2, 3)}
    assert len(vals) == 1


def test_dimension_vector_of_shifted(a2):
    ed = euler_data(a2)
    obj = shifted_object(a2, (1, 0))
    assert obj.dimension_vector() == tuple(-ed.Etinv[i][0] for i in range(2))
