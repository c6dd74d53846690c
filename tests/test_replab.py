import random
import time
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest

from clusterchar import (
    GF,
    QQ,
    cc_module,
    count_subreps,
    decompose,
    direct_sum,
    ext_dim,
    euler_form,
    generic_representation,
    grassmannian_euler,
    hom_dim,
    projective_representation,
    random_representation,
    simple_representation,
    validate_quiver,
    zero_representation,
)
from clusterchar import characters, linalg, replab
from clusterchar.errors import (
    CapExceeded,
    DecompositionUncertified,
    FieldMismatch,
    GenericityUncertified,
    QuiverMismatch,
    SubdimensionOutOfRange,
)
from clusterchar.generic import cone_of_proj_map, min_proj_decomposition, sample_generic_proj_map
from clusterchar.quiver import et_map, quiver_from_text
from clusterchar.replab import (
    Representation,
    _certify_pattern,
    _fitting_split,
    _newton,
    _newton_eval,
    _primes,
    _quadratic_split,
    _split_simples,
    _subrep_on_bases,
    _thin_components,
    direct_sum_all,
    entry_representation,
    gaussian_binomial,
    hom_basis,
    make_representation,
    representation_from_json,
)
from dynkin_oracle import indecomposable_for_root
from fitting_oracle import hom_candidates, is_isomorphic
from linalg_oracle import dense, oracle_kernel, oracle_rref

QUIVERS = Path(__file__).resolve().parent.parent / "quivers"


@pytest.fixture(scope="module")
def point():
    return validate_quiver(1, [])


@pytest.fixture(scope="module")
def d4():
    return validate_quiver(4, [(1, 2), (3, 2), (4, 2)])


@pytest.fixture(scope="module")
def kronecker3():
    return validate_quiver(2, [(1, 2), (1, 2), (1, 2)])


def test_random_representation_shapes_and_determinism(a2):
    m1 = random_representation(a2, (2, 1), rng_seed=5)
    m2 = random_representation(a2, (2, 1), rng_seed=5)
    m3 = random_representation(a2, (2, 1), rng_seed=6)
    assert m1 == m2
    assert m1 != m3
    assert len(m1.maps[0]) == 1 and len(m1.maps[0][0]) == 2
    assert random_representation(a2, (0, 0), rng_seed=1).is_zero()


def test_hom_examples(a2):
    p1 = projective_representation(a2, 1)
    s1 = simple_representation(a2, 1)
    s2 = simple_representation(a2, 2)
    assert p1.dims == (1, 1) and p1.maps == (((1,),),)
    assert hom_dim(p1, s1) == 1
    assert hom_dim(s1, s2) == 0
    for m in (p1, s1, s2, random_representation(a2, (2, 2), rng_seed=9)):
        assert hom_dim(m, m) >= 1


def test_ext_examples(a2):
    s1 = simple_representation(a2, 1)
    s2 = simple_representation(a2, 2)
    assert ext_dim(s1, s2) == 1
    assert ext_dim(s2, s1) == 0
    for i in (1, 2):
        p = projective_representation(a2, i)
        for n in (s1, s2, random_representation(a2, (2, 1), rng_seed=4)):
            assert ext_dim(p, n) == 0


def _hom_rows_reference(m, n):
    """The equation rows of Hom(M, N), each added into a zero row and kept when any entry is nonzero."""
    q = m.quiver
    offsets = [sum(n.dims[u] * m.dims[u] for u in range(v)) for v in range(q.n)]
    nun = sum(n.dims[v] * m.dims[v] for v in range(q.n))
    rows = []
    for a, (s, t) in enumerate(q.arrows):
        for r in range(n.dims[t - 1]):
            for c in range(m.dims[s - 1]):
                row = [0] * nun
                for k in range(m.dims[t - 1]):
                    row[offsets[t - 1] + r * m.dims[t - 1] + k] += m.maps[a][k][c]
                for k in range(n.dims[s - 1]):
                    row[offsets[s - 1] + k * m.dims[s - 1] + c] -= n.maps[a][r][k]
                if any(row):
                    rows.append(row)
    return rows


def test_hom_system_rows_match_the_reference(a2, a3, kronecker, d4, kronecker3):
    # bound 1 makes zero entries, hence rows with one side or no side written, common
    rng = random.Random(31)
    empty = 0
    for q in (a2, a3, kronecker, d4, kronecker3):
        for field in (QQ, GF(3)):
            for _ in range(12):
                m, n = (random_representation(q, [rng.randint(0, 2) for _ in range(q.n)], field,
                                              rng_seed=rng.randrange(10**6), bound=1) for _ in range(2))
                rows, nun, _ = replab._hom_system(m, n)
                assert all(x for row in rows for x in row.values())  # sparse: no zero kept
                assert dense(rows, nun) == _hom_rows_reference(m, n), (q.key(), field, m, n)
                assert nun == sum(a * b for a, b in zip(m.dims, n.dims))
                empty += len(rows) < sum(n.dims[t - 1] * m.dims[s - 1] for s, t in q.arrows)
    assert empty > 10


def _hom_from_the_reference(m, n):
    """(dim, basis) of Hom(M, N) from the dense reference system through the oracle RREF,
    each kernel vector cut into vertexwise matrices as `hom_basis` lays them out."""
    rows = _hom_rows_reference(m, n)
    nun = sum(a * b for a, b in zip(m.dims, n.dims))
    basis = []
    for vec in oracle_kernel(rows, m.field, nun):
        comps, off = [], 0
        for r, c in zip(n.dims, m.dims):
            comps.append(tuple(tuple(vec[off + i * c:off + (i + 1) * c]) for i in range(r)))
            off += r * c
        basis.append(tuple(comps))
    return nun - len(oracle_rref(rows, m.field)[1]) if rows else nun, basis


@pytest.mark.parametrize("name", sorted(p.stem for p in QUIVERS.glob("*.quiver")) + ["kronecker3"])
@pytest.mark.parametrize("field", [QQ, GF(3)], ids=repr)
def test_hom_dim_and_basis_match_the_dense_reference(name, field, kronecker3):
    """hom_dim and hom_basis on the sparse system equal the oracle's reading of the
    dense reference system, on seeded modules of every shipped quiver and the 3-Kronecker."""
    q = kronecker3 if name == "kronecker3" else quiver_from_text((QUIVERS / f"{name}.quiver").read_text(encoding="utf-8"))
    rng = random.Random(33)
    for _ in range(10):
        m, n = (random_representation(q, [rng.randint(0, 3) for _ in range(q.n)], field,
                                      rng_seed=rng.randrange(10**6), bound=rng.choice((1, 9))) for _ in range(2))
        for a, b in ((m, n), (m, m)):
            want_dim, want_basis = _hom_from_the_reference(a, b)
            assert hom_dim(a, b) == want_dim
            assert hom_basis(a, b) == want_basis


def test_hom_of_a_kronecker_frontier_cone_module_matches_the_dense_reference(kronecker):
    """The same on End of a drawn cone module of the Kronecker X(6,-7), a brick."""
    dec = min_proj_decomposition((6, -7))
    m = cone_of_proj_map(sample_generic_proj_map(kronecker, dec, rng_seed=7)).module
    want_dim, want_basis = _hom_from_the_reference(m, m)
    assert hom_dim(m, m) == want_dim == 1
    assert hom_basis(m, m) == want_basis


def test_euler_identity_random(a2, a3, kronecker):
    rng = random.Random(42)
    for q in (a2, a3, kronecker):
        for _ in range(25):
            d = tuple(rng.randint(0, 2) for _ in range(q.n))
            e = tuple(rng.randint(0, 2) for _ in range(q.n))
            m = random_representation(q, d, rng_seed=rng.randint(0, 10**6))
            n = random_representation(q, e, rng_seed=rng.randint(0, 10**6))
            assert hom_dim(m, n) - ext_dim(m, n) == euler_form(q, d, e)


def test_field_mismatch(a2):
    m = random_representation(a2, (1, 1), rng_seed=0)
    n = random_representation(a2, (1, 1), GF(5), rng_seed=0)
    with pytest.raises(FieldMismatch):
        hom_dim(m, n)


def test_direct_sums_refuse_every_part_over_another_quiver_or_field(a2, kronecker):
    m = random_representation(a2, (1, 1), rng_seed=0)
    others = [(random_representation(kronecker, (1, 1), rng_seed=0), QuiverMismatch),
              (random_representation(a2, (1, 1), GF(5), rng_seed=0), FieldMismatch)]
    for other, error in others:
        with pytest.raises(error):
            direct_sum(m, other)
        with pytest.raises(error):
            direct_sum(other, m)
        for k in range(3):
            parts = [m, m]
            parts.insert(k, other)
            with pytest.raises(error):
                direct_sum_all(parts, a2, QQ)


def test_entry_representation_lays_out_one_matrix_per_arrow(kronecker):
    m = entry_representation(kronecker, QQ, (2, 1), [(1, 1, 0, Fraction(1, 2)), (0, 0, 0, 3)])
    assert m.maps == (((3, 0),), ((0, Fraction(1, 2)),))
    assert entry_representation(kronecker, QQ, (0, 2), ()).maps == (((), ()), ((), ()))


def test_negative_dimensions_are_refused(a2):
    with pytest.raises(SubdimensionOutOfRange, match="nonnegative"):
        Representation(a2, QQ, (-1, 0), ((),))
    with pytest.raises(SubdimensionOutOfRange):
        random_representation(a2, (1, -1))


def test_indecomposable_for_root(a2, a3):
    m = indecomposable_for_root(a2, (1, 1))
    assert m.dims == (1, 1) and hom_dim(m, m) == 1
    assert is_isomorphic(m, projective_representation(a2, 1))
    assert is_isomorphic(indecomposable_for_root(a2, (1, 0)), simple_representation(a2, 1))
    thin = indecomposable_for_root(a3, (1, 1, 1))
    assert thin.dims == (1, 1, 1) and hom_dim(thin, thin) == 1
    with pytest.raises(ValueError):
        indecomposable_for_root(a2, (2, 0))


def test_decompose_examples(a2):
    assert decompose(zero_representation(a2)) == []
    parts = decompose(random_representation(a2, (2, 1), rng_seed=3))
    assert sorted(p.dims for p in parts) == [(1, 0), (1, 1)]
    p1 = projective_representation(a2, 1)
    assert [p.dims for p in decompose(p1)] == [(1, 1)]


def test_decompose_isotypic(a2, kronecker):
    s2 = simple_representation(kronecker, 2)
    m = direct_sum(direct_sum(s2, s2), s2)
    assert sorted(p.dims for p in decompose(m)) == [(0, 1)] * 3
    p1 = projective_representation(a2, 1)
    m2 = direct_sum(p1, p1)
    assert sorted(p.dims for p in decompose(m2)) == [(1, 1), (1, 1)]


def _passes(monkeypatch, m) -> tuple[list, int]:
    """decompose(m) and the number of passes over all of m: each pass splits the
    simple summands off m once."""
    calls = []

    def counted(x):
        calls.append(x is m)
        return _split_simples(x)

    monkeypatch.setattr(replab, "_split_simples", counted)
    return decompose(m), sum(calls)


def test_decompose_all_bricks_takes_one_pass(monkeypatch, kronecker, d4):
    kron = direct_sum(random_representation(kronecker, (1, 2), rng_seed=4), random_representation(kronecker, (1, 1), rng_seed=5))
    samples = [kron] + [random_representation(d4, d, rng_seed=s) for s, d in ((6, (2, 1, 1, 1)), (7, (1, 2, 1, 1)))]
    results = [_passes(monkeypatch, m) for m in samples]
    for parts, passes in results:
        assert passes == 1
        assert all(hom_dim(x, x) == 1 for x in parts)
    assert sorted(x.dims for x in results[0][0]) == [(1, 1), (1, 2)]


def test_decompose_non_brick_takes_one_pass(monkeypatch, kronecker):
    # End = Q(sqrt 2): a Q-indecomposable that is not a brick
    m = make_representation(kronecker, QQ, (2, 2), [((1, 0), (0, 1)), ((0, 1), (2, 0))])
    parts, passes = _passes(monkeypatch, m)
    assert parts == [m]
    assert passes == 1


def _fresh(x):
    """x as a new object, with no End dimension recorded on it."""
    return Representation(x.quiver, x.field, x.dims, x.maps)


@pytest.mark.parametrize("p", [None, 5])
def test_unit_candidates_are_the_basis_endomorphisms(monkeypatch, kronecker, p):
    # End = Q(sqrt 2) (over F_5 too: 2 is not a square mod 5), so nothing splits:
    # the 2 basis elements are tried, the quadratic step finds no root, and that is all
    field = QQ if p is None else GF(p)
    m = make_representation(kronecker, field, (2, 2), [((1, 0), (0, 1)), ((0, 1), (2, 0))])
    bases, phis, quadratic = [], [], []

    def basis(x, y):
        bases.append(hom_basis(x, y))
        return bases[-1]

    def split(x, phi):
        phis.append(phi)
        return _fitting_split(x, phi)

    def quad(x, endos):
        quadratic.append(_quadratic_split(x, endos))
        return quadratic[-1]

    monkeypatch.setattr(replab, "hom_basis", basis)
    monkeypatch.setattr(replab, "_fitting_split", split)
    monkeypatch.setattr(replab, "_quadratic_split", quad)
    assert decompose(m) == [m]
    (endos,) = bases
    assert len(endos) == 2 and len(phis) == len(endos)
    assert all(phi is b for phi, b in zip(phis, endos))
    assert quadratic == [None]
    if p is not None:
        assert all(0 <= x < p for b in endos for mat in b for row in mat for x in row)


def _companion(kronecker, field, a, b):
    """Kronecker (2, 2) with maps id and the companion matrix B of x² - a·x - b:
    End = k[B], of dim 2, which splits exactly when x² - a·x - b has a root in k."""
    return make_representation(kronecker, field, (2, 2), [((1, 0), (0, 1)), ((0, b), (1, a))])


@pytest.mark.parametrize(
    "p, a, b, splits",
    [
        (None, 0, 1, True),  # x² - 1 = (x - 1)(x + 1): End = Q x Q
        (None, 1, Fraction(3, 4), True),  # roots 3/2 and -1/2
        (None, 0, 2, False),  # End = Q(sqrt 2)
        (None, 0, Fraction(1, 8), False),  # a² + 4b = 1/2: a square numerator is not enough
        (None, 0, -1, False),  # End = Q(i): a² + 4b < 0
        (None, 2, -1, False),  # (x - 1)²: End local
        (None, 0, 0, False),  # x²: B is a nilpotent Jordan block, End = Q[t]/t²
        (2, 1, 0, True),  # x² + x = x(x + 1)
        (2, 1, 1, False),  # x² + x + 1 is irreducible over F_2
        (3, 0, 1, True),  # x² - 1
        (3, 0, 2, False),  # x² + 1: -1 is not a square mod 3
        (5, 0, 4, True),  # x² - 4 = (x - 2)(x + 2)
        (5, 0, 2, False),  # 2 is not a square mod 5
    ],
)
def test_quadratic_split_finds_a_root_of_the_minimal_polynomial(kronecker, p, a, b, splits):
    field = QQ if p is None else GF(p)
    m = _companion(kronecker, field, a, b)
    assert len(hom_basis(m, m)) == 2
    # the basis (id, B) at both vertices, id first: the step must pass over it
    split = _quadratic_split(m, [(m.maps[0],) * 2, (m.maps[1],) * 2])
    if not splits:
        assert split is None
        (x,) = decompose(m)
        assert x is m and x.end_dim == 2
        return
    assert sorted(x.dims for x in split) == [(1, 1), (1, 1)]
    assert all(hom_dim(x, x) == 1 for x in split)
    assert sorted(x.dims for x in decompose(m)) == [(1, 1), (1, 1)]


@pytest.mark.parametrize("r, splits", [(3, False), (4, True)])
def test_quadratic_split_over_a_61_bit_field_searches_no_field(kronecker, r, splits):
    # p = 2^61 - 1: End of the Kronecker (2, 2) with B = [[0, r], [1, 0]] is F_p[B],
    # B² = r. 3 is not a square mod p (Euler's criterion), so End is a field and
    # the module stays whole; 4 = 2² splits it into two (1, 1) bricks. A search of
    # F_p would never end here
    p = 2**61 - 1
    assert pow(3, (p - 1) // 2, p) == p - 1
    m = _companion(kronecker, GF(p), 0, r)
    start = time.perf_counter()
    parts = decompose(m)
    assert time.perf_counter() - start < 1.0
    if not splits:
        assert parts == [m] and m.end_dim == 2
        return
    assert sorted(x.dims for x in parts) == [(1, 1), (1, 1)]
    assert all(hom_dim(x, x) == 1 for x in parts)


def test_quadratic_split_over_small_prime_fields_splits_exactly_at_two_roots(kronecker):
    # B² = r over F_p: the module splits exactly when x² - r has two roots, that is
    # when r is a nonzero square and p is odd (over F_2, x² - 1 = (x - 1)²)
    primes = [p for p in range(2, 50) if all(p % d for d in range(2, p))]
    for p in primes:
        squares = {c * c % p for c in range(1, p)}
        for r in range(p):
            parts = decompose(_companion(kronecker, GF(p), 0, r))
            assert (len(parts) == 2) == (r in squares and p != 2), (p, r)


def test_decompose_draws_no_random_number(monkeypatch, kronecker, d4):
    dec = min_proj_decomposition(et_map(d4, (1, 2, 1, 2)))
    cone = cone_of_proj_map(sample_generic_proj_map(d4, dec, rng_seed=1000, bound=10)).module
    field_ext = make_representation(kronecker, QQ, (2, 2), [((1, 0), (0, 1)), ((0, 1), (2, 0))])

    def no_rng(*args, **kwargs):
        raise AssertionError("a random generator was made")

    monkeypatch.setattr(replab.random, "Random", no_rng)
    parts = decompose(cone)
    assert len(parts) >= 2 and all(x.end_dim == 1 for x in parts)
    assert decompose(field_ext) == [field_ext]


@pytest.mark.parametrize("seed", range(30))
def test_d4_generic_representation_certifies_for_every_seed(d4, seed):
    rep, parts = generic_representation(d4, (1, 2, 1, 2), rng_seed=seed)
    assert rep.dims == (1, 2, 1, 2) and all(x.end_dim == 1 for x in parts)


def test_decompose_records_the_end_dimension_of_its_summands(kronecker, d4):
    non_brick = make_representation(kronecker, QQ, (2, 2), [((1, 0), (0, 1)), ((0, 1), (2, 0))])
    (x,) = decompose(non_brick)
    assert vars(x)["end_dim"] == hom_dim(_fresh(x), _fresh(x)) == 2  # recorded by decompose
    assert replab.split_non_brick([[x]]) == (0, x, [(1, 1), (1, 1)])
    rng = random.Random(12)
    for q in (kronecker, d4):
        for _ in range(6):
            d = tuple(rng.randint(0, 3) for _ in range(q.n))
            m = random_representation(q, d, rng_seed=rng.randrange(10**6), bound=rng.choice((1, 3)))
            for part in decompose(m):
                assert "end_dim" in vars(part)
                assert part.end_dim == hom_dim(_fresh(part), _fresh(part))


def test_subrep_on_bases_rejects_a_basis_that_is_not_arrow_stable(a2):
    # M(a) sends e1 to (1, 0) at vertex 2, outside the span of (0, 1)
    m = make_representation(a2, QQ, (1, 2), [((1,), (0,))])
    with pytest.raises(DecompositionUncertified) as exc:
        _subrep_on_bases(m, [[[1]], [[0], [1]]])
    assert exc.value.internal
    assert _subrep_on_bases(m, [[[1]], [[1], [0]]]).dims == (1, 1)


def _fitting_only(m, rng):
    """The Fitting-only decomposition that ran before simple summands were split off
    linearly, kept here as an independent oracle."""
    if m.is_zero():
        return []
    if all(d <= 1 for d in m.dims):
        return _thin_components(m)
    endos = hom_basis(m, m)
    if len(endos) == 1:
        return [m]
    for phi in hom_candidates(m, endos, rng):
        split = _fitting_split(m, phi)
        if split is not None:
            return _fitting_only(split[0], rng) + _fitting_only(split[1], rng)
    return [m]


# (quiver, sink, source, middle vertex or None)
SPLIT_QUIVERS = [
    (validate_quiver(3, [(1, 2), (2, 3)]), 3, 1, 2),
    (validate_quiver(3, [(1, 2), (3, 2)]), 2, 1, None),
    (validate_quiver(3, [(2, 1), (2, 3)]), 1, 2, None),
    (validate_quiver(4, [(1, 2), (3, 2), (3, 4)]), 2, 3, None),
    (validate_quiver(4, [(1, 2), (3, 2), (4, 2)]), 2, 4, None),
    (validate_quiver(2, [(1, 2), (1, 2)]), 2, 1, None),
    (validate_quiver(2, [(1, 2), (1, 2), (1, 2)]), 2, 1, None),
]


def _with_simples(m, v, k):
    return direct_sum_all([m] + [simple_representation(m.quiver, v, m.field)] * k, m.quiver, m.field)


@pytest.mark.parametrize("q, sink, source, middle", SPLIT_QUIVERS)
def test_decompose_matches_fitting_only_with_simple_summands(q, sink, source, middle):
    rng = random.Random(q.n * 100 + len(q.arrows))
    for v in (x for x in (sink, source, middle) if x is not None):
        for _ in range(3):
            d = tuple(rng.randint(0, 2) for _ in range(q.n))
            m = _with_simples(random_representation(q, d, rng_seed=rng.randrange(10**6), bound=2), v, rng.randint(1, 3))
            parts = decompose(m)
            oracle = _fitting_only(m, random.Random(5))
            assert sorted(x.dims for x in parts) == sorted(x.dims for x in oracle)
            assert is_isomorphic(direct_sum_all(parts, q, QQ), m)


def test_split_simples_runs_once_per_decompose(monkeypatch, d4):
    calls = []

    def counted(m):
        calls.append(m.dims)
        return _split_simples(m)

    monkeypatch.setattr(replab, "_split_simples", counted)
    m = _with_simples(random_representation(d4, (2, 2, 1, 2), rng_seed=8), 2, 2)
    parts = decompose(m)
    assert calls == [m.dims]
    assert sum(x.dims == (0, 1, 0, 0) for x in parts) >= 2 and len(parts) > 3
    assert sorted(x.dims for x in parts) == sorted(x.dims for x in _fitting_only(m, random.Random(5)))
    calls.clear()
    assert decompose(simple_representation(d4, 2)) == [simple_representation(d4, 2)]
    assert calls == []  # thin modules take the shortcut


def test_split_simples_keeps_a_kernel_inside_the_images(a3):
    # A3 path (1,1,0): K_2 = I_2 = M_2 != 0, so S_2 is a submodule but no summand
    m = make_representation(a3, QQ, (1, 1, 0), [((1,),), ()])
    assert _split_simples(m) == (m, [])
    assert decompose(m) == [m]
    square = direct_sum(m, m)
    assert _split_simples(square) == (square, [])
    assert sorted(x.dims for x in decompose(square)) == [(1, 1, 0)] * 2


@pytest.mark.parametrize("p", [3, 5])
def test_split_simples_with_unreduced_prime_field_entries(a3, kronecker, p):
    rng = random.Random(p + 40)
    for q, v in ((a3, 2), (a3, 3), (kronecker, 1), (kronecker, 2)):
        for _ in range(4):
            d = tuple(rng.randint(1, 2) for _ in range(q.n))
            red = _with_simples(random_representation(q, d, GF(p), rng_seed=rng.randrange(10**6)), v, rng.randint(1, 2))
            maps = tuple(tuple(tuple(x + p * rng.choice((-2, -1, 1, 3)) for x in row) for row in mat) for mat in red.maps)
            raw = Representation(q, GF(p), red.dims, maps)
            parts = decompose(raw)
            assert sorted(x.dims for x in parts) == sorted(x.dims for x in _fitting_only(red, random.Random(2)))
            assert all(0 <= x < p for part in parts for mat in part.maps for row in mat for x in row)
            assert is_isomorphic(direct_sum_all(parts, q, GF(p)), red)


def test_decompose_semisimple_needs_no_hom_basis(monkeypatch, d4):
    calls = []

    def counted(m, n):
        calls.append(m.dims)
        return hom_basis(m, n)

    monkeypatch.setattr(replab, "hom_basis", counted)
    s2 = simple_representation(d4, 2)
    parts = decompose(direct_sum_all([s2, s2, s2, simple_representation(d4, 1)], d4))
    assert sorted(x.dims for x in parts) == [(0, 1, 0, 0)] * 3 + [(1, 0, 0, 0)]
    assert calls == []


def test_decompose_is_a_function_of_the_module(a2, a3, d4):
    rng = random.Random(8)
    for q in (a2, a3, d4):
        for _ in range(5):
            d = tuple(rng.randint(0, 2) for _ in range(q.n))
            m = random_representation(q, d, rng_seed=rng.randint(0, 10**6))
            first, second = decompose(m), decompose(m)
            assert first == second and [x.end_dim for x in first] == [x.end_dim for x in second]


def test_count_subreps_examples(point, a2):
    v2 = random_representation(point, (2,), GF(2), rng_seed=0)
    assert count_subreps(v2, (1,)) == 3  # projective line over F_2
    assert count_subreps(v2, (0,)) == 1
    p1 = make_representation(a2, GF(7), (1, 1), [((1,),)])
    assert count_subreps(p1, (0, 1)) == 1
    assert count_subreps(p1, (1, 0)) == 0
    assert count_subreps(p1, (1, 1)) == 1


def test_count_subreps_errors(point, a2):
    v = random_representation(point, (3,), GF(11), rng_seed=0)
    with pytest.raises(SubdimensionOutOfRange):
        count_subreps(v, (4,))
    m = make_representation(a2, GF(11), (3, 3), [((1, 0, 0), (0, 1, 0), (0, 0, 1))])
    with pytest.raises(CapExceeded):
        count_subreps(m, (1, 1), cap=2)


def test_count_subreps_free_vertex_factor(point):
    # an unconstrained vertex contributes the full Gaussian binomial
    v = random_representation(point, (5,), GF(23), rng_seed=0)
    assert count_subreps(v, (2,), cap=10) == gaussian_binomial(5, 2, 23)


def _echelon_subspaces(p, d, e):
    """Every e-dimensional subspace of F_p^d, once, as (RREF rows, pivots)."""
    out = []
    for pivots in combinations(range(d), e):
        free = [(r, c) for r in range(e) for c in range(pivots[r] + 1, d) if c not in pivots]
        for values in product(range(p), repeat=len(free)):
            rows = [[int(c == pivots[r]) for c in range(d)] for r in range(e)]
            for (r, c), val in zip(free, values):
                rows[r][c] = val
            out.append((rows, pivots))
    return out


def _in_span(vec, rows, pivots, p):
    w = list(vec)
    for r, c in zip(rows, pivots):
        f = w[c]
        w = [(x - f * y) % p for x, y in zip(w, r)]
    return not any(w)


def _count_by_full_walk(m, e):
    """Reference count: enumerate subspaces at every vertex an active arrow touches,
    checking each such arrow once both ends are chosen; other vertices give their
    Gaussian binomial."""
    q, p, d = m.quiver, m.field.p, m.dims
    active = [
        a for a, (s, t) in enumerate(q.arrows)
        if e[s - 1] > 0 and e[t - 1] < d[t - 1] and any(x % p for row in m.maps[a] for x in row)
    ]
    touched = [v for v in q.topological_order() if any(v in q.arrows[a] for a in active)]
    factor = 1
    for v in range(1, q.n + 1):
        if v not in touched:
            factor *= gaussian_binomial(d[v - 1], e[v - 1], p)
    chosen = {}

    def fits(a):
        s, t = q.arrows[a]
        rows_t, piv_t = chosen[t]
        mat = m.maps[a]
        return all(
            _in_span([sum(x * y for x, y in zip(row, u)) % p for row in mat], rows_t, piv_t, p)
            for u in chosen[s][0]
        )

    def walk(k):
        if k == len(touched):
            return 1
        v = touched[k]
        total = 0
        for sub in _echelon_subspaces(p, d[v - 1], e[v - 1]):
            chosen[v] = sub
            if all(fits(a) for a in active if v in q.arrows[a] and all(w in chosen for w in q.arrows[a])):
                total += walk(k + 1)
        del chosen[v]
        return total

    return factor * walk(0)


@pytest.mark.parametrize(
    "arrows",
    [
        [(1, 2), (3, 2), (4, 2)],  # D4 as shipped, the centre a sink
        [(1, 2), (3, 2), (2, 4)],  # D4, arrows through the centre
        [(1, 2), (3, 2)],  # A3, sink in the middle
        [(2, 1), (2, 3)],  # A3, source in the middle
        [(1, 2), (2, 3)],  # A3, a path: a closed middle vertex has both W and K
        [(1, 2), (1, 2)],  # Kronecker
        [(1, 2), (1, 2), (1, 2)],  # 3-Kronecker
    ],
    ids=["d4", "d4_through", "a3_sink", "a3_source", "a3_path", "kronecker", "kronecker3"],
)
def test_count_subreps_matches_full_walk(arrows):
    q = validate_quiver(max(max(a) for a in arrows), arrows)
    rng = random.Random(len(arrows) * 31 + q.n)
    top = 2 if q.n > 2 else 3
    for p in (2, 3, 5):
        for _ in range(8):
            d = tuple(rng.randint(0, top) for _ in range(q.n))
            m = random_representation(q, d, GF(p), rng_seed=rng.randrange(10**6))
            maps = [tuple(tuple(0 for _ in row) for row in mat) if rng.random() < 0.25 else mat for mat in m.maps]
            m = make_representation(q, GF(p), d, maps)
            for e in product(*(range(x + 1) for x in d)):
                assert count_subreps(m, e) == _count_by_full_walk(m, e), (p, d, e, m.maps)


def test_count_subreps_cap_bounds_the_cover(kronecker):
    # all subspace pairs: [2,1]_3 * [3,2]_3 = 4 * 13; the cover is vertex 1 alone, 4
    m = random_representation(kronecker, (2, 3), GF(3), rng_seed=11)
    assert count_subreps(m, (1, 2), cap=10) == _count_by_full_walk(m, (1, 2))
    with pytest.raises(CapExceeded):
        count_subreps(m, (1, 2), cap=3)


def test_total_subrep_count_cross_check(a2):
    # Independent oracle: enumerate every tuple of vector subsets closed under
    # span and the arrow map, for a tiny module over F_2.
    p = 2
    m = make_representation(a2, GF(p), (2, 1), [((1, 0),)])
    all_vectors = {
        1: [tuple(v) for v in product(range(p), repeat=2)],
        2: [tuple(v) for v in product(range(p), repeat=1)],
    }

    def spans(vecs, d):
        out = set()
        base = [tuple([0] * d)]
        from itertools import combinations

        for r in range(3):
            for gens in combinations(vecs, r):
                span = set(base)
                changed = True
                while changed:
                    changed = False
                    for g in gens:
                        for v in list(span):
                            for c in range(p):
                                w = tuple((a + c * b) % p for a, b in zip(v, g))
                                if w not in span:
                                    span.add(w)
                                    changed = True
                out.add(frozenset(span))
        return out

    spaces1 = spans(all_vectors[1], 2)
    spaces2 = spans(all_vectors[2], 1)
    mat = m.maps[0]
    total = 0
    for u1 in spaces1:
        for u2 in spaces2:
            if all(tuple(sum(mat[i][j] * v[j] for j in range(2)) % p for i in range(1)) in u2 for v in u1):
                total += 1
    by_counts = sum(
        count_subreps(m, e) for e in product(range(3), range(2))
    )
    assert total == by_counts


def test_grassmannian_euler_binomial(point):
    from math import comb

    v4 = random_representation(point, (4,), QQ, rng_seed=0)
    g = grassmannian_euler(v4, (2,))
    assert g.euler == comb(4, 2) == 6
    assert grassmannian_euler(v4, (4,)).euler == 1
    assert grassmannian_euler(v4, (0,)).euler == 1


def test_grassmannian_euler_p1(a2):
    p1 = make_representation(a2, QQ, (1, 1), [((1,),)])
    assert grassmannian_euler(p1, (0, 1)).euler == 1
    assert grassmannian_euler(p1, (1, 0)).euler == 0
    assert grassmannian_euler(p1, (1, 1)).euler == 1


def test_grassmannian_euler_thin_equals_any_count(a3):
    m = make_representation(a3, QQ, (1, 1, 1), [((1,),), ((1,),)])
    for e in product(range(2), repeat=3):
        g = grassmannian_euler(m, e)
        # an e proved empty is answered without counting, so check fixed primes too
        assert set(g.counts.values()) <= {g.euler}
        for p in (2, 3, 5, 7):
            assert count_subreps(make_representation(a3, GF(p), m.dims, m.maps), e) == g.euler


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % k for k in range(2, int(n**0.5) + 1))


def _lagrange_at(points: list[tuple[int, int]], x: int) -> Fraction:
    total = Fraction(0)
    for i, (xi, yi) in enumerate(points):
        term = Fraction(yi)
        for j, (xj, _) in enumerate(points):
            if j != i:
                term *= Fraction(x - xj, xi - xj)
        total += term
    return total


def _ambient_degree_euler(m, e) -> int:
    """chi(Gr_e(M)) fitted at the ambient degree sum e_v(d_v - e_v): counts on that
    many primes plus three, consecutive among those where dim End does not jump,
    checked on the last two and evaluated at 1."""
    deg = sum(ei * (di - ei) for ei, di in zip(e, m.dims))
    end = hom_dim(m, m)
    points = []
    p = 1
    while len(points) < deg + 3:
        p += 1
        if _is_prime(p):
            mp = make_representation(m.quiver, GF(p), m.dims, m.maps)
            if hom_dim(mp, mp) == end:
                points.append((p, count_subreps(mp, e)))
    fit = points[: deg + 1]
    assert all(_lagrange_at(fit, x) == y for x, y in points[deg + 1 :])
    value = _lagrange_at(fit, 1)
    assert value.denominator == 1
    return int(value)


def _fit_modules(a3, d4, kronecker, kronecker3) -> list:
    """Seeded modules of a3, d4 and the Kronecker quivers, rigid or not."""
    rng = random.Random(6)
    modules = []
    for q in (a3, d4):
        for _ in range(6):
            d = tuple(rng.randint(0, 2) for _ in range(q.n))
            modules.append(random_representation(q, d, rng_seed=rng.randrange(10**6)))
    for q, dims in ((kronecker, [(1, 2), (2, 1), (2, 3), (3, 2)]), (kronecker3, [(1, 1), (1, 2), (2, 1), (1, 3)])):
        modules += [random_representation(q, d, rng_seed=rng.randrange(10**6)) for d in dims]
    # not rigid: Kronecker (1,1), and (2,2) as two distinct or two equal copies of it
    k11 = random_representation(kronecker, (1, 1), rng_seed=rng.randrange(10**6))
    modules += [k11, direct_sum(k11, random_representation(kronecker, (1, 1), rng_seed=rng.randrange(10**6))), direct_sum(k11, k11)]
    return modules


def test_grassmannian_euler_matches_ambient_degree_fit(a3, d4, kronecker, kronecker3):
    modules = _fit_modules(a3, d4, kronecker, kronecker3)
    empty = checked = 0
    for m in modules:
        end = hom_dim(m, m)
        for e in product(*(range(x + 1) for x in m.dims)):
            g = grassmannian_euler(m, e)
            assert g.euler == _ambient_degree_euler(m, e), (m.quiver.key(), m.dims, e)
            if g.counts:
                continue
            empty += 1  # proved empty: no counting was needed
            for p in (2, 3, 5):
                mp = make_representation(m.quiver, GF(p), m.dims, m.maps)
                if hom_dim(mp, mp) == end:  # the bound holds where End does not jump
                    assert count_subreps(mp, e) == 0, (m.quiver.key(), m.dims, e, p)
                    checked += 1
    assert empty > 50 and checked > 50


def _thin_modules_with_zero_arrows(q, rng: random.Random, count: int) -> list:
    """Seeded thin modules of q whose arrows are zero about a third of the time."""
    modules = []
    for _ in range(count):
        d = tuple(rng.randint(0, 1) for _ in range(q.n))
        maps = [[[rng.choice((0, 1, -2, 3)) for _ in range(d[s - 1])] for _ in range(d[t - 1])] for s, t in q.arrows]
        modules.append(make_representation(q, QQ, d, maps))
    return modules


def test_cc_module_reads_off_exactly_what_counting_gives(a3, d4, kronecker, kronecker3, monkeypatch):
    # cc_module answers an e with no active arrow (a product of Grassmannians) and an
    # e of a thin module with an active arrow (empty) without a prime; each such
    # answer must be grassmannian_euler's, and a thin module must count nothing
    shipped = [quiver_from_text(path.read_text(encoding="utf-8")) for path in sorted(QUIVERS.glob("*.quiver"))]
    rng = random.Random(25)
    thin = [m for q in (*shipped, kronecker3) for m in _thin_modules_with_zero_arrows(q, rng, 12)]
    seen, counted, subreps, reductions = [], [], [], []
    real_character, real_at = characters._character, replab.ReductionPool.at

    def character(q, d, chis):
        seen.append(dict(chis))
        return real_character(q, d, chis)

    def counting(m, e, **kwargs):
        counted.append(tuple(e))
        return grassmannian_euler(m, e, **kwargs)

    def reducing(pool, k):
        reductions.append(k)
        return real_at(pool, k)

    def subrep_count(m, e, cap=5_000_000):
        subreps.append(tuple(e))
        return count_subreps(m, e, cap=cap)

    monkeypatch.setattr(characters, "_character", character)
    monkeypatch.setattr(characters, "grassmannian_euler", counting)
    monkeypatch.setattr(replab, "count_subreps", subrep_count)
    monkeypatch.setattr(replab.ReductionPool, "at", reducing)
    empty = products = 0
    for m in _fit_modules(a3, d4, kronecker, kronecker3) + thin:
        for spy in (seen, counted, subreps, reductions):
            spy.clear()
        value = cc_module(m)
        (chis,) = seen
        if max(m.dims, default=0) <= 1:
            assert not counted and not subreps and not reductions, (m.quiver.key(), m.dims)
        euler = {e: grassmannian_euler(m, e).euler for e in product(*(range(x + 1) for x in m.dims))}
        for e in (e for e in euler if e not in counted):
            assert chis.get(e, 0) == euler[e], (m.quiver.key(), m.dims, m.maps, e)
            empty += euler[e] == 0
            products += max(m.dims) > 1
        assert value == real_character(m.quiver, m.dims, euler)
    assert empty >= 30 and products >= 100


def test_grassmannian_flags_non_polynomial_counts(kronecker):
    # Q-indecomposable with End = Q(sqrt 2): the (1,1)-subspace count follows the
    # splitting of 2 mod p, which no integer polynomial matches.
    m = make_representation(kronecker, QQ, (2, 2), [((1, 0), (0, 1)), ((0, 1), (2, 0))])
    from clusterchar.errors import NotPolynomialCount

    with pytest.raises(NotPolynomialCount):
        grassmannian_euler(m, (1, 1))


def test_grassmannian_skips_denominator_primes(a2):
    m = make_representation(a2, QQ, (1, 1), [((Fraction(1, 2),),)])
    g = grassmannian_euler(m, (0, 1))
    assert 2 not in g.counts
    assert g.euler == 1


def test_primes_are_the_first_200():
    gen = _primes()
    first = [next(gen) for _ in range(200)]
    assert first == [n for n in range(2, 1224) if _is_prime(n)]
    assert first[-1] == 1223


def _lagrange_coeffs(points: list[tuple[int, int]]) -> list[Fraction]:
    """Ascending coefficients of the polynomial through `points`, over Q."""
    coeffs = [Fraction(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        basis, denom = [Fraction(1)], 1
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            denom *= xi - xj
            times_x = [Fraction(0)] * (len(basis) + 1)  # basis * (x - xj)
            for t, c in enumerate(basis):
                times_x[t] -= c * xj
                times_x[t + 1] += c
            basis = times_x
        for t, c in enumerate(basis):
            coeffs[t] += Fraction(yi, denom) * c
    return coeffs


def test_newton_matches_lagrange():
    rng = random.Random(3)
    primes = [n for n in range(2, 200) if _is_prime(n)]
    integral = non_integral = 0
    for trial in range(400):
        k = rng.randint(1, 7)
        xs = sorted(rng.sample(primes, k))
        if trial % 2:  # values of an integer polynomial of degree < k
            poly = [rng.randint(-50, 50) for _ in range(k)]
            ys = [sum(c * x**t for t, c in enumerate(poly)) for x in xs]
        else:
            ys = [rng.randint(-10**6, 10**6) for _ in xs]
        points = list(zip(xs, ys))
        oracle = _lagrange_coeffs(points)
        coeffs = _newton(points)
        if any(c.denominator != 1 for c in oracle):
            assert coeffs is None, points
            non_integral += 1
            continue
        integral += 1
        for x in [1, 0, -3] + [rng.randint(-100, 300) for _ in range(3)]:
            assert _newton_eval(xs, coeffs, x) == sum(c * x**t for t, c in enumerate(oracle))
    assert integral >= 200 and non_integral >= 150


def test_gaussian_binomial():
    assert gaussian_binomial(2, 1, 2) == 3
    assert gaussian_binomial(4, 2, 3) == (3**4 - 1) * (3**3 - 1) // ((3**2 - 1) * (3 - 1))


def test_generic_representation_patterns(a2, kronecker):
    m, parts = generic_representation(a2, (2, 1), rng_seed=1)
    assert sorted(p.dims for p in parts) == [(1, 0), (1, 1)]
    assert m.dims == (2, 1)
    m, parts = generic_representation(kronecker, (2, 2), rng_seed=1)
    assert sorted(p.dims for p in parts) == [(1, 1), (1, 1)]
    assert all(hom_dim(p, p) == 1 for p in parts)


# On A2 (1 -> 2): index(S_1) = (1, -1), index(S_2) = (0, 1), Ext(S_1, S_2) = k.
def test_certify_pattern_accepts_the_cone_of_p2_to_p1(a2):
    # the generic cone of index (-1, 1) is S_2 ⊕ P_1[1]
    _certify_pattern(a2, (-1, 1), [simple_representation(a2, 2)], (1, 0))


def test_certify_pattern_refuses_a_non_brick_part_naming_its_dims(a2):
    # S1 ⊕ S1 has index (2, -2) and End of dimension 4: only the brick test refuses it
    s1 = simple_representation(a2, 1)
    with pytest.raises(GenericityUncertified, match=r"non-brick summand \(2, 0\) with End dim 4"):
        _certify_pattern(a2, (2, -2), [direct_sum(s1, s1)], (0, 0))


def test_certify_pattern_refuses_a_part_on_the_shifted_support(a2):
    with pytest.raises(GenericityUncertified, match=r"summand \(1, 0\) meets the shifted support \(1, 0\)"):
        _certify_pattern(a2, (0, -1), [simple_representation(a2, 1)], (1, 0))


def test_certify_pattern_refuses_an_ext_pair_naming_both_dims(a2):
    parts = [simple_representation(a2, 1), simple_representation(a2, 2)]
    with pytest.raises(GenericityUncertified, match=r"Ext\(\(1, 0\),\(0, 1\)\) nonzero"):
        _certify_pattern(a2, (1, 0), parts, (0, 0))


def test_certify_pattern_refuses_indices_that_do_not_add_up(a2):
    with pytest.raises(GenericityUncertified, match=r"index reconstruction \(-1, 1\) != \(0, 1\)"):
        _certify_pattern(a2, (0, 1), [simple_representation(a2, 2)], (1, 0))


def test_is_isomorphic(a2):
    p1 = projective_representation(a2, 1)
    scaled = make_representation(a2, QQ, (1, 1), [((7,),)])
    assert is_isomorphic(p1, scaled)
    assert not is_isomorphic(p1, direct_sum(simple_representation(a2, 1), simple_representation(a2, 2)))


def _change_of_basis(m, rng):
    """m after a random invertible change of basis g_v at each vertex: M'(a) = g_t M(a) g_s^-1."""
    gs = []
    for d in m.dims:
        while True:
            g = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]
            if linalg.rank(g, QQ) == d:
                break
        gs.append(g)
    inverses = [linalg.solve_columns(g, [[int(i == j) for j in range(len(g))] for i in range(len(g))], QQ) for g in gs]
    maps = [
        linalg.mat_mul(linalg.mat_mul(gs[t - 1], mat, QQ), inverses[s - 1], QQ) if mat and mat[0] else mat
        for (s, t), mat in zip(m.quiver.arrows, m.maps)
    ]
    return make_representation(m.quiver, QQ, m.dims, maps)


def test_is_isomorphic_needs_a_combination_of_basis_elements(a3):
    p1, p2 = projective_representation(a3, 1), projective_representation(a3, 2)
    s1, s3 = simple_representation(a3, 1), simple_representation(a3, 3)
    m = direct_sum_all([p1, p1, s3, s3], a3)
    copy = _change_of_basis(m, random.Random(3))
    assert copy != m
    basis = hom_basis(m, copy)
    assert len(basis) == 12
    assert not any(all(linalg.rank(b[v], QQ) == d for v, d in enumerate(m.dims)) for b in basis)
    assert is_isomorphic(m, copy) and is_isomorphic(copy, m)
    other = direct_sum_all([p1, s1, p2, s3, s3], a3)
    assert other.dims == m.dims == (2, 2, 4)
    assert not is_isomorphic(m, other) and not is_isomorphic(other, copy)


def test_representation_json_round_trip(a2):
    m = make_representation(a2, QQ, (2, 1), [((1, Fraction(1, 2)),)])
    assert representation_from_json(m.to_json()) == m
    mp = random_representation(a2, (2, 1), GF(5), rng_seed=2)
    assert representation_from_json(mp.to_json()) == mp


@pytest.mark.parametrize("p", [3, 5])
def test_unreduced_prime_field_entries(a3, kronecker, p):
    # Representation(...) keeps entries as given: every entry here is off [0, p)
    # by a nonzero multiple of p, so zeros arrive as multiples of p, some negative.
    rng = random.Random(p)
    for q in (a3, kronecker):
        for case in range(8):
            d = tuple(rng.randint(0, 1 if case % 2 else 2) for _ in range(q.n))
            sample = random_representation(q, d, GF(p), rng_seed=rng.randrange(10**6))
            maps = tuple(
                tuple(tuple((0 if rng.random() < 0.25 else x) + p * rng.choice((-3, -1, 1, 2)) for x in row) for row in mat)
                for mat in sample.maps
            )
            raw = Representation(q, GF(p), d, maps)
            red = make_representation(q, GF(p), d, maps)
            assert all(0 <= x < p for mat in red.maps for row in mat for x in row)
            assert sorted(x.dims for x in decompose(raw)) == sorted(x.dims for x in decompose(red))
            if all(x <= 1 for x in d):
                assert [x.dims for x in _thin_components(raw)] == [x.dims for x in _thin_components(red)]
            assert hom_dim(raw, raw) == hom_dim(red, raw) == hom_dim(red, red)
            for e in product(*(range(x + 1) for x in d)):
                assert count_subreps(raw, e) == count_subreps(red, e)
