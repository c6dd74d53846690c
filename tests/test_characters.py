import random
from itertools import product
from pathlib import Path

import pytest

from clusterchar import (
    ClusterObject,
    cc_generic,
    cc_module,
    cc_object,
    coindex_of,
    decompose,
    denominator_vector,
    direct_sum,
    euler_form,
    g_vector_of_index,
    generic_representation,
    grassmannian_euler,
    index_of,
    monomial,
    parse_laurent,
    positive_roots,
    projective_representation,
    random_representation,
    shifted_object,
    simple_representation,
    validate_quiver,
    zero_object,
    zero_representation,
)
from clusterchar import characters, generic
from clusterchar.characters import (
    _character,
    accepts_tree,
    subset_counts,
    tree_basis,
    tree_character,
)
from clusterchar.errors import FieldMismatch, SubdimensionOutOfRange
from clusterchar.laurent import LaurentPoly
from clusterchar.linalg import GF, QQ
from clusterchar.quiver import antisym_form_simple, euler_data, quiver_from_text
from clusterchar.replab import entry_representation, make_representation

SHIPPED = {
    path.stem: quiver_from_text(path.read_text(encoding="utf-8"))
    for path in sorted((Path(__file__).resolve().parent.parent / "quivers").glob("*.quiver"))
}


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


def test_shifted_object_refuses_a_non_integral_shifted_part(a2):
    # once truncated: shifted_object(a2, (1.6, 0)).shifted was (1, 0)
    with pytest.raises(SubdimensionOutOfRange, match=r"\(1\.6, 0\)"):
        shifted_object(a2, (1.6, 0))
    with pytest.raises(SubdimensionOutOfRange, match="length 2"):
        shifted_object(a2, (1, 0, 0))
    assert shifted_object(a2, (1, 0)).shifted == (1, 0)


def test_multiplicativity_direct(a2, a3):
    # cc_module computes both sides from their own Grassmannians: a genuine check.
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


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_coindex_and_g_vector_against_the_euler_matrix(name):
    # reference values from the matrices E and E^{-t} of euler_data, on seeded objects
    q = SHIPPED[name]
    ed, n = euler_data(q), q.n
    rng = random.Random(29)

    def times(m, v):
        return tuple(sum(m[i][j] * v[j] for j in range(n)) for i in range(n))

    for seed in range(10):
        dims = tuple(rng.randint(0, 2) for _ in range(n))
        shifted = tuple(rng.randint(0, 2) for _ in range(n))
        obj = ClusterObject(random_representation(q, dims, rng_seed=seed), shifted)
        assert coindex_of(obj) == tuple(x - s for x, s in zip(times(ed.E, dims), shifted))
        module_only = ClusterObject(obj.module, (0,) * n)
        assert g_vector_of_index(q, index_of(module_only)) == tuple(-x for x in times(ed.E, dims))
        gamma = tuple(rng.randint(-3, 3) for _ in range(n))
        assert g_vector_of_index(q, gamma) == tuple(-x for x in times(ed.E, times(ed.Etinv, gamma)))


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


# --- characters of exceptional modules from a tree basis ---

D4 = validate_quiver(4, [(1, 2), (3, 2), (4, 2)])  # centre 2


def _constructed_rigid_roots(a2, a3, kronecker):
    roots = [(q, d) for q in (a2, a3, D4) for d in positive_roots(q)]
    return roots + [(kronecker, d) for k in range(1, 4) for d in ((k + 1, k), (k, k + 1))]


def _counted_character(m):
    """The character of m with every chi(Gr_e(m)) counted prime by prime."""
    subdims = product(*(range(x + 1) for x in m.dims))
    return _character(m.quiver, m.dims, {e: grassmannian_euler(m, e).euler for e in subdims})


def test_tree_character_equals_counting_on_every_constructed_rigid_root(a2, a3, kronecker):
    # the exceptional module of d is the generic representation of d, decomposed and
    # counted prime by prime at every e (cc_module would read a thin one off without
    # counting); only D4 (1, 2, 1, 1) has no construction
    missing = []
    for q, d in _constructed_rigid_roots(a2, a3, kronecker):
        assert euler_form(q, d, d) == 1
        tree = tree_character(q, d)
        if tree is None:
            missing.append(d)
            continue
        (x,) = decompose(generic_representation(q, d, rng_seed=5)[0])
        assert tree == _counted_character(x), (q.key(), d)
    assert missing == [(1, 2, 1, 1)]


def test_kronecker_tree_bases_are_zigzag_strings(kronecker):
    # (k+1, k): u_{j-1} -a-> v_j and u_j -b-> v_j; (k, k+1): u_j -a-> v_{j-1} and u_j -b-> v_j
    assert tree_basis(kronecker, (3, 2)) == ((0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 2, 1))
    assert tree_basis(kronecker, (2, 3)) == ((0, 0, 0), (1, 0, 1), (0, 1, 1), (1, 1, 2))
    assert tree_basis(kronecker, (3, 1)) is None
    assert tree_basis(kronecker, (1, 1)) is None  # arrows a and b close a cycle


def test_unseparated_tree_is_refused():
    # the exceptional (1, 2, 1, 1) on D4 has three distinct lines at the centre:
    # leaf 1 -> c1, leaf 4 -> c2, and leaf 3 sent to both, c1 + c2. That 0/1 tree is
    # a brick, but leaf 3's two edges give c1 and c2 one degree, so its coordinate
    # subsets are not the torus fixed points: Gr_(0,1,1,0) is the point c1 + c2,
    # which no successor-closed subset spans
    d, e = (1, 2, 1, 1), (0, 1, 1, 0)
    edges = ((1, 0, 0), (1, 0, 1), (0, 0, 0), (2, 0, 1))
    t = entry_representation(D4, QQ, d, [(a, i, j, 1) for a, i, j in edges])
    assert t.end_dim == 1
    assert subset_counts(D4, d, edges).get(e, 0) == 0
    assert grassmannian_euler(t, e).euler == 1
    assert not accepts_tree(D4, d, edges)


def test_thin_dimension_with_disconnected_support_is_refused(a3):
    # (1, 0, 1): no arrow inside the support, so the forest has two trees; each is
    # separated, but the module S1 + S3 is not a brick
    assert accepts_tree(a3, (1, 1, 1), ((0, 0, 0), (1, 0, 0)))
    assert not accepts_tree(a3, (1, 0, 1), ())
    assert tree_basis(a3, (1, 0, 1)) is None


def test_subset_counts_match_listing_every_subset(kronecker):
    # the leaves-first pass against all 2^N subsets, on a string with both edge directions
    d = (3, 4)
    edges = tree_basis(kronecker, d)
    nodes = [(v, k) for v in range(2) for k in range(d[v])]
    listed: dict = {}
    for bits in product((0, 1), repeat=len(nodes)):
        chosen = {x for x, b in zip(nodes, bits) if b}
        if all((1, j) in chosen for a, i, j in edges if (0, i) in chosen):
            e = tuple(sum(v == w for w, _ in chosen) for v in range(2))
            listed[e] = listed.get(e, 0) + 1
    assert subset_counts(kronecker, d, edges) == listed


def _exponent_by_euler_forms(q, d, e) -> tuple[int, ...]:
    """<S_i, e>_a - <S_i, d> for each vertex i, from the two forms of the quiver."""
    units = [tuple(int(k == i) for k in range(q.n)) for i in range(q.n)]
    return tuple(antisym_form_simple(q, i + 1, e) - euler_form(q, units[i], d) for i in range(q.n))


def test_character_equals_the_term_by_term_sum_over_euler_forms():
    # entries that share an exponent (D4's antisymmetric form has rank 2, A3's has
    # rank 2 too) are summed, and a sum of 0 leaves no term
    rng = random.Random(25)
    kronecker3 = validate_quiver(2, [(1, 2)] * 3)
    shared = cancelled = 0
    for q in (*SHIPPED.values(), kronecker3):
        for _ in range(10):
            d = tuple(rng.randint(0, 3) for _ in range(q.n))
            chis = {e: rng.choice((0, 1, -1, 2, -3, 5)) for e in product(*(range(x + 1) for x in d))}
            groups: dict[tuple[int, ...], list] = {}
            for e in chis:
                groups.setdefault(_exponent_by_euler_forms(q, d, e), []).append(e)
            for group in groups.values():
                if len(group) > 1 and rng.randrange(2):
                    chis[group[-1]] = -sum(chis[e] for e in group[:-1])
                nonzero = [chis[e] for e in group if chis[e]]
                shared += len(nonzero) > 1
                cancelled += len(nonzero) > 1 and sum(nonzero) == 0
            expected = LaurentPoly.zero(q.n)
            for e, chi in chis.items():
                if chi:
                    expected = expected + LaurentPoly(q.n, {_exponent_by_euler_forms(q, d, e): chi})
            assert _character(q, d, chis) == expected, (q.key(), d)
    assert shared >= 20 and cancelled >= 10


def test_cap_bounds_only_the_subdimensions_that_are_counted(kronecker):
    # a thin module needs no enumeration at any e, nor does a module whose arrows are
    # all zero, so cap=0 cannot be exceeded; the D4 (1, 2, 1, 1) is counted and raises
    # (test_generic.test_a_failed_count_in_the_padded_cone_propagates)
    thin = random_representation(kronecker, (1, 1), rng_seed=4)
    assert cc_module(thin, cap=0) == _counted_character(thin) == parse_laurent("(x1^2+1+x2^2)/(x1*x2)", 2)
    # counting e = (1, 0, 0, 0) would enumerate: its dimension bound is 1, not negative
    one_arrow = make_representation(D4, QQ, (1, 1, 1, 1), [((1,),), ((0,),), ((0,),)])
    assert cc_module(one_arrow, cap=0) == _counted_character(one_arrow)
    zero = make_representation(kronecker, QQ, (2, 2), [((0, 0), (0, 0))] * 2)
    assert cc_module(zero, cap=0) == _counted_character(zero)


def test_cc_generic_never_reads_a_tree(kronecker, monkeypatch):
    # cc-agreement compares generic_character with cc_generic, so cc_generic must
    # find each sample's character on its own: exactly where that is possible, and
    # by counting elsewhere, never from the tree evaluator
    expected = {(q, alpha): tree_character(q, alpha) for q, alpha in ((kronecker, (1, 2)), (D4, (1, 1, 1, 1)))}
    read = []

    def refused(*args):
        read.append(args)
        raise AssertionError("cc_generic read the tree evaluator")

    for module in (characters, generic):
        monkeypatch.setattr(module, "tree_character", refused)
    monkeypatch.setattr(characters, "subset_counts", refused)
    for (q, alpha), value in expected.items():
        assert value is not None
        assert cc_generic(q, alpha, rng_seed=2) == value
    assert not read


def test_cc_module_refuses_a_prime_field(a2):
    # a thin module over F_p is read off at every e, so the field is checked first
    m = make_representation(a2, GF(5), (1, 1), [((1,),)])
    with pytest.raises(FieldMismatch):
        cc_module(m)
