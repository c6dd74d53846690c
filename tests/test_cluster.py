import time
from collections import deque
from itertools import product

import pytest

from clusterchar import (
    LaurentPoly,
    cc_module,
    cc_object,
    cluster_monomials_up_to,
    canonical_serialize,
    denominator_vector,
    enumerate_seeds,
    exchange_matrix,
    initial_seed,
    is_cluster_monomial,
    monomial,
    mutate_matrix,
    mutate_seed,
    parse_laurent,
    positive_roots,
    shifted_object,
    validate_quiver,
)
from clusterchar import cluster
from clusterchar.errors import BadVertex, NotFiniteType
from dynkin_oracle import indecomposable_for_root


def test_exchange_matrix(a2, kronecker):
    assert exchange_matrix(a2) == ((0, 1), (-1, 0))
    assert exchange_matrix(kronecker) == ((0, 2), (-2, 0))


def test_matrix_mutation_skew_symmetric(a3):
    b = exchange_matrix(a3)
    for k in (1, 2, 3):
        bp = mutate_matrix(b, k)
        assert all(bp[i][j] == -bp[j][i] for i in range(3) for j in range(3))
        assert mutate_matrix(bp, k) == b


def test_exchange_example_a2(a2):
    s = mutate_seed(initial_seed(a2), 1)
    assert s.cluster[0] == parse_laurent("(1+x2)/x1", 2)


def test_mutation_involution(a2, a3):
    for q in (a2, a3):
        s = initial_seed(q)
        for k in range(1, q.n + 1):
            t = mutate_seed(mutate_seed(s, k), k)
            assert t.cluster == s.cluster and t.b == s.b


def test_pentagon_periodicity(a2):
    s = initial_seed(a2)
    t = s
    for k in (1, 2, 1, 2, 1):
        t = mutate_seed(t, k)
    assert t.cluster_key() == s.cluster_key()


def test_bad_vertex(a2):
    with pytest.raises(BadVertex):
        mutate_seed(initial_seed(a2), 3)


def test_enumeration_counts(a1, a2, a3):
    for q, clusters, variables in ((a1, 2, 2), (a2, 5, 5), (a3, 14, 9)):
        r = enumerate_seeds(q)
        assert r.closed
        assert len(r.seeds) == clusters
        assert len(r.variables) == variables


def test_a1_exchange(a1):
    s = mutate_seed(initial_seed(a1), 1)
    assert s.cluster[0] == parse_laurent("2/x1", 1)


def test_enumeration_limit_kronecker(kronecker):
    r = enumerate_seeds(kronecker, limit=25)
    assert not r.closed and len(r.seeds) == 25


def test_enumeration_stops_at_the_limit(a2, kronecker):
    for q in (a2, kronecker):
        r = enumerate_seeds(q, limit=1)
        assert len(r.seeds) == 1 and not r.closed and len(r.variables) == 2
    exact = enumerate_seeds(a2, limit=5)  # A2 has exactly 5 seeds
    assert len(exact.seeds) == 5 and exact.closed
    assert len(exact.variables) == len(enumerate_seeds(a2).variables) == 5
    short = enumerate_seeds(a2, limit=4)
    assert len(short.seeds) == 4 and not short.closed
    assert set(short.variables) == {v for seed in short.seeds for v in seed.cluster}


def test_enumeration_refuses_a_limit_below_one(a2, kronecker, monkeypatch):
    # the initial seed is always kept, so "at most limit seeds" cannot hold for a
    # limit below 1: it is refused before any mutation, also on the Kronecker,
    # whose closure never ends
    def no_mutation(*args):
        raise AssertionError("mutated")

    monkeypatch.setattr(cluster, "mutate_seed", no_mutation)
    for q in (a2, kronecker):
        for limit in (0, -1):
            with pytest.raises(ValueError, match="limit must be a positive integer"):
                enumerate_seeds(q, limit=limit)


def test_laurent_phenomenon_monomial_denominators(a3):
    r = enumerate_seeds(a3)
    for v in r.variables:
        d = denominator_vector(v)
        num = v * monomial(3, tuple(max(x, 0) for x in d))
        assert all(min(e[i] for e in num.terms) == 0 for i in range(3) if d[i] > 0)


def test_monomials_bounds(a2):
    assert [m.to_text() for m in cluster_monomials_up_to(a2, 0)] == ["1"]
    assert len(cluster_monomials_up_to(a2, 1)) == 6  # 1 + the 5 cluster variables
    # 5 clusters x 3 degree-2 monomials, squares shared pairwise: 10 distinct
    assert len(cluster_monomials_up_to(a2, 2)) == 16


def _monomials_by_seed(q, degree_bound):
    """Oracle: x^a for every seed and every a >= 0 with |a| <= degree_bound, by text form."""
    forms = set()
    for seed in enumerate_seeds(q).seeds:
        for expo in product(range(degree_bound + 1), repeat=q.n):
            if sum(expo) <= degree_bound:
                mono = LaurentPoly.one(q.n)
                for c, a in zip(seed.cluster, expo):
                    for _ in range(a):
                        mono = mono * c
                forms.add(canonical_serialize(mono))
    return forms


@pytest.mark.parametrize(
    "arrows, degrees",
    [
        ([(1, 2)], range(5)),
        ([(1, 2), (2, 3)], range(5)),
        ([(1, 2), (3, 2), (4, 2)], range(4)),
        ([(2, 1), (2, 3), (4, 3)], range(4)),
    ],
    ids=["a2", "a3", "d4", "a4-alternating"],
)
def test_monomials_match_per_seed_products(arrows, degrees):
    q = validate_quiver(max(max(a) for a in arrows), arrows)
    for degree in degrees:
        got = [canonical_serialize(m) for m in cluster_monomials_up_to(q, degree)]
        assert len(got) == len(set(got)), f"repeats at degree {degree}"
        assert set(got) == _monomials_by_seed(q, degree), f"degree {degree}"


def test_monomials_list_is_a_fresh_copy(a2):
    first = cluster_monomials_up_to(a2, 2)
    expected = list(first)
    first.clear()
    first.append(LaurentPoly.zero(2))
    assert cluster_monomials_up_to(a2, 2) == expected
    assert not is_cluster_monomial(a2, LaurentPoly.zero(2), 2)


def test_monomials_need_finite_type(kronecker):
    with pytest.raises(NotFiniteType):
        cluster_monomials_up_to(kronecker, 2)


def test_infinite_type_fails_fast(kronecker):
    # with the default limit, mutating toward 20000 seeds would take minutes
    start = time.perf_counter()
    with pytest.raises(NotFiniteType):
        cluster_monomials_up_to(kronecker, 2)
    with pytest.raises(NotFiniteType):
        is_cluster_monomial(kronecker, parse_laurent("x1", 2), 2)
    assert time.perf_counter() - start < 0.5


def test_membership_examples(a2):
    assert is_cluster_monomial(a2, parse_laurent("(1+x2)/x1", 2), 4)
    assert is_cluster_monomial(a2, parse_laurent("x1*x2", 2), 4)
    assert not is_cluster_monomial(a2, parse_laurent("(1+x1)/x1", 2), 4)


def test_d4_enumeration_never_multiplies_by_one(monkeypatch):
    # each exchange product starts from its first factor, not from 1
    factors = []
    mul = LaurentPoly.__mul__

    def counting_mul(self, other):
        factors.append((self, other))
        return mul(self, other)

    monkeypatch.setattr(LaurentPoly, "__mul__", counting_mul)
    enumerate_seeds(validate_quiver(4, [(1, 2), (3, 2), (4, 2)]))
    one = LaurentPoly.one(4)
    assert not [pair for pair in factors if one in pair]
    assert len(factors) == 44


def _closure_by_mutation(q):
    """The breadth-first closure with one `mutate_seed` per (seed, vertex): no exchange memo."""
    start = initial_seed(q)
    seen = {start.cluster_key(): start}
    queue = deque([start])
    while queue:
        seed = queue.popleft()
        for k in range(1, q.n + 1):
            new = mutate_seed(seed, k)
            if new.cluster_key() not in seen:
                seen[new.cluster_key()] = new
                queue.append(new)
    return list(seen.values())


@pytest.mark.parametrize("n, arrows, edges", [
    (4, [(1, 2), (3, 2), (4, 2)], 100),
    (3, [(1, 2), (2, 3)], 21),
    (4, [(2, 1), (2, 3), (2, 4)], 100),
    (4, [(1, 2), (3, 2), (3, 4)], 84),
])
def test_enumeration_divides_once_per_exchange_graph_edge(monkeypatch, n, arrows, edges):
    # each edge of the exchange graph is reached from both ends; only the first pays
    # for the exact division, and the seeds (order, matrices, clusters) are those
    # of one mutate_seed per seed and vertex
    q = validate_quiver(n, arrows)
    divisions = []
    divide = cluster.exact_divide

    def counting(f, g):
        divisions.append(g)
        return divide(f, g)

    monkeypatch.setattr(cluster, "exact_divide", counting)
    result = enumerate_seeds(q)
    assert result.closed and len(divisions) == edges == len(result.seeds) * n // 2
    assert result.seeds == _closure_by_mutation(q)


def test_cluster_variables_are_characters_d4():
    # the bijection is not a type-A accident
    d4 = validate_quiver(4, [(1, 2), (3, 2), (4, 2)])
    expected = {
        canonical_serialize(cc_object(shifted_object(d4, tuple(1 if j == i else 0 for j in range(4)))))
        for i in range(4)
    }
    for beta in positive_roots(d4):
        expected.add(canonical_serialize(cc_module(indecomposable_for_root(d4, beta))))
    got = {canonical_serialize(v) for v in enumerate_seeds(d4).variables}
    assert got == expected and len(got) == 16


def test_cluster_variables_are_characters(a2, a3):
    # bijection with indecomposable objects: modules at roots plus shifted projectives
    for q in (a2, a3):
        expected = {canonical_serialize(cc_object(shifted_object(q, tuple(1 if j == i else 0 for j in range(q.n))))) for i in range(q.n)}
        for beta in positive_roots(q):
            expected.add(canonical_serialize(cc_module(indecomposable_for_root(q, beta))))
        got = {canonical_serialize(v) for v in enumerate_seeds(q).variables}
        assert got == expected
