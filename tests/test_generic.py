import ast
import json
import random
from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from clusterchar import (
    GF,
    QQ,
    LaurentPoly,
    CharacterCache,
    cc_generic,
    cc_module,
    check_multiplicativity,
    cone_of_proj_map,
    count_subreps,
    direct_sum,
    generic_character,
    generic_decomposition,
    generic_representation,
    grassmannian_euler,
    index_of,
    min_proj_decomposition,
    monomial,
    parse_laurent,
    positive_roots,
    projective_representation,
    random_representation,
    sample_generic_proj_map,
    simple_representation,
    stability_check,
    validate_quiver,
    virtual_generic_decomposition,
    zero_representation,
)
from clusterchar import characters, generic, replab
from clusterchar.characters import ClusterObject, tree_character
from clusterchar.config import RunConfig
from clusterchar.errors import CapExceeded, ClusterCharError, GenericityUncertified, SubdimensionOutOfRange
from clusterchar.generic import (
    MultiplicativityReport,
    ProjDecomposition,
    ProjectiveMap,
    _cone_pattern_once,
    _pattern_value,
    cone_signature,
)
from clusterchar.quiver import et_map, euler_form, euler_matrix, quiver_from_text
from clusterchar.replab import (
    BlockPlan,
    Representation,
    ext_dim,
    first_ext_pair,
    hom_dim,
    split_non_brick,
)
from clusterchar.seeds import certify, mix_seed
from dynkin_oracle import root_search_decomposition
from linalg_oracle import oracle_rref

QUIVERS = Path(__file__).resolve().parent.parent / "quivers"


def test_min_proj_decomposition():
    dec = min_proj_decomposition((2, -3, 0))
    assert dec.gamma0 == (2, 0, 0) and dec.gamma1 == (0, 3, 0)
    dec = min_proj_decomposition((0, 0))
    assert dec.gamma0 == (0, 0) and dec.gamma1 == (0, 0)
    dec = min_proj_decomposition((-1, 1))
    assert dec.gamma0 == (0, 1) and dec.gamma1 == (1, 0)


def _projective_fold(q, gamma):
    """P(gamma) as the direct sum of gamma_i copies of each P_i, i ascending."""
    acc = zero_representation(q, QQ)
    for i in range(1, q.n + 1):
        for _ in range(gamma[i - 1]):
            acc = direct_sum(acc, projective_representation(q, i))
    return acc


def projective_module(q, gamma):
    """P(gamma) as the cone plan of 0 -> P(gamma) sees it: its dims and arrow targets."""
    plan = generic._cone_plan(q, (0,) * q.n, tuple(gamma))
    maps = []
    for a, (s, t) in enumerate(q.arrows):
        mat = [[0] * plan.dims0[s - 1] for _ in range(plan.dims0[t - 1])]
        for c, r in enumerate(plan.targets[a]):
            mat[r][c] = 1
        maps.append(tuple(map(tuple, mat)))
    return Representation(q, QQ, plan.dims0, tuple(maps))


def test_projective_module_matches_direct_sum_fold(a2, a3, kronecker):
    d4 = validate_quiver(4, [(1, 2), (3, 2), (4, 2)])
    kronecker3 = validate_quiver(2, [(1, 2), (1, 2), (1, 2)])
    cases = 0
    for q in (a2, a3, kronecker, d4, kronecker3):
        for gamma in product(range(3), repeat=q.n):
            rep = projective_module(q, gamma)
            assert rep == _projective_fold(q, gamma), (q.key(), gamma)
            bases = generic._path_bases(q, gamma)
            assert [len(b) for b in bases] == list(rep.dims)
            for v, basis in enumerate(bases, start=1):
                assert basis == [(i, c, p) for i in range(1, q.n + 1) for c in range(gamma[i - 1]) for p in q.paths(i, v)]
            cases += 1
    assert cases == 9 + 27 + 9 + 81 + 9


def test_sample_determinism(a3):
    dec = min_proj_decomposition((1, 0, -1))
    f1 = sample_generic_proj_map(a3, dec, rng_seed=9)
    f2 = sample_generic_proj_map(a3, dec, rng_seed=9)
    assert f1.blocks == f2.blocks
    # Hom(P_3, P_1) is one-dimensional: a single path coefficient
    assert list(f1.blocks) == [(1, 3)]
    assert len(f1.blocks[(1, 3)][0][0]) == 1


def test_zero_domain_map(a2):
    dec = ProjDecomposition(gamma0=(1, 0), gamma1=(0, 0))
    cone = cone_of_proj_map(sample_generic_proj_map(a2, dec, rng_seed=0))
    assert cone.module.dims == (1, 1) and cone.shifted == (0, 0)


def test_cone_of_identity_is_zero(a2):
    blocks = {(1, 1): (((1,),),), (2, 2): (((1,),),)}
    f = ProjectiveMap(quiver=a2, gamma1=(1, 1), gamma0=(1, 1), blocks=blocks)
    cone = cone_of_proj_map(f)
    assert cone.module.is_zero() and cone.shifted == (0, 0)


def test_cone_of_zero_map_splits(a2):
    f = ProjectiveMap(quiver=a2, gamma1=(0, 1), gamma0=(2, 0), blocks={})
    cone = cone_of_proj_map(f)
    assert cone.module.dims == (2, 2)  # P_1^2
    assert cone.shifted == (0, 1)


def test_cone_a3_p3_to_p1(a3):
    dec = min_proj_decomposition((1, 0, -1))
    cone = cone_of_proj_map(sample_generic_proj_map(a3, dec, rng_seed=1))
    assert cone.module.dims == (1, 1, 0) and cone.shifted == (0, 0, 0)


def test_index_of_cone_equals_presentation_index(a2, a3, kronecker):
    import random

    rng = random.Random(3)
    for q in (a2, a3, kronecker):
        for _ in range(10):
            gamma = tuple(rng.randint(-2, 2) for _ in range(q.n))
            f = sample_generic_proj_map(q, min_proj_decomposition(gamma), rng_seed=rng.randint(0, 10**6))
            assert index_of(cone_of_proj_map(f)) == gamma
        # the zero map satisfies the identity as well
        f = ProjectiveMap(quiver=q, gamma1=(1,) * q.n, gamma0=(0,) * q.n, blocks={})
        assert index_of(cone_of_proj_map(f)) == (-1,) * q.n


def _cone_oracle(f):
    """Cone(f) evaluated on the path bases, each arrow's image reduced by the RREF in
    Fraction arithmetic: the evaluate-then-quotient reference for `cone_of_proj_map`.
    The RREF is the oracle Gauss-Jordan of `linalg_oracle`, so the reference shares
    no elimination code with `cone_of_proj_map`."""
    q, n = f.quiver, f.quiver.n

    def bases(g):
        return [[(i, c, p) for i in range(1, n + 1) for c in range(g[i - 1]) for p in q.paths(i, v)]
                for v in range(1, n + 1)]

    bases0, bases1 = bases(f.gamma0), bases(f.gamma1)
    p0 = _projective_fold(q, f.gamma0)
    reducers, coker_coords, ker_dims = [], [], []
    for v in range(n):
        d0, d1 = len(bases0[v]), len(bases1[v])
        index0 = {b: r for r, b in enumerate(bases0[v])}
        mat = [[0] * d1 for _ in range(d0)]
        for c, (j, c1, p) in enumerate(bases1[v]):
            for i in range(1, n + 1):
                block = f.blocks.get((i, j))
                for c0 in range(len(block) if block else 0):
                    for w, coeff in zip(q.paths(i, j), block[c0][c1]):
                        mat[index0[(i, c0, w + p)]][c] += coeff
        image_rows = [[mat[r][c] for r in range(d0)] for c in range(d1)]
        red, pivots = oracle_rref(image_rows, QQ) if d0 and d1 else ([], [])
        reducers.append((red[:len(pivots)], pivots))
        coker_coords.append([c for c in range(d0) if c not in pivots])
        ker_dims.append(d1 - len(pivots))

    def quotient(v, vec):
        w = list(vec)
        for row, pc in zip(*reducers[v]):
            if w[pc] != 0:
                w = [a - w[pc] * b for a, b in zip(w, row)]
        return [w[c] for c in coker_coords[v]]

    maps = []
    for a, (s, t) in enumerate(q.arrows):
        amat = p0.maps[a]
        cols = [quotient(t - 1, [row[c] for row in amat]) for c in coker_coords[s - 1]]
        maps.append(tuple(tuple(col[r] for col in cols) for r in range(len(coker_coords[t - 1]))))
    module = Representation(q, QQ, tuple(map(len, coker_coords)), tuple(maps))
    e = euler_matrix(q).E
    return module, tuple(sum(e[j][i] * ker_dims[j] for j in range(n)) for i in range(n))


def _oracle_maps(q, rng):
    """Seeded maps on q: minimal and padded decompositions of every index in
    [-2,2]^n with |gamma|_1 <= 4, and each with some of its blocks left out."""
    for gamma in product(range(-2, 3), repeat=q.n):
        if sum(map(abs, gamma)) > 4:
            continue
        dec = min_proj_decomposition(gamma)
        pad = tuple(rng.randint(0, 2) for _ in range(q.n))
        padded = ProjDecomposition(
            gamma0=tuple(a + b for a, b in zip(dec.gamma0, pad)),
            gamma1=tuple(a + b for a, b in zip(dec.gamma1, pad)),
        )
        for d in (dec, padded):
            f = sample_generic_proj_map(q, d, rng_seed=rng.randrange(10**6), bound=rng.choice((1, 3, 10)))
            yield f
            kept = {key: b for key, b in f.blocks.items() if rng.random() < 0.5}
            yield ProjectiveMap(quiver=q, gamma1=f.gamma1, gamma0=f.gamma0, blocks=kept)


@pytest.mark.parametrize("name", sorted(p.stem for p in QUIVERS.glob("*.quiver")))
def test_cone_of_proj_map_matches_evaluate_then_quotient(name):
    q = quiver_from_text((QUIVERS / f"{name}.quiver").read_text())
    rng = random.Random(name)
    cases = 0
    for f in _oracle_maps(q, rng):
        cone = cone_of_proj_map(f)
        module, shifted = _cone_oracle(f)
        assert cone.module == module, (name, f.gamma1, f.gamma0, f.blocks)
        assert cone.shifted == shifted, (name, f.gamma1, f.gamma0, f.blocks)
        cases += 1
    assert cases >= 100


def test_cone_plan_built_once_per_value(monkeypatch, a3):
    generic._cone_plan.cache_clear()
    plans = []
    cone = generic.cone_of_proj_map

    def traced(f):
        plans.append(generic._cone_plan(f.quiver, f.gamma1, f.gamma0))
        return cone(f)

    monkeypatch.setattr(generic, "cone_of_proj_map", traced)
    generic_character(a3, (1, -1, 1), rng_seed=4, cache=CharacterCache())
    assert len(plans) >= 5
    assert all(p is plans[0] for p in plans)
    info = generic._cone_plan.cache_info()
    assert info.misses == 1 and info.hits == 2 * len(plans) - 1


def test_d4_cone_summands_with_end_q_x_q_are_split():
    # cones of D4 index E^t(1,2,1,2) have End = Q x Q where no End basis element
    # splits; the quadratic step of `decompose` splits every one into bricks
    d4 = quiver_from_text((QUIVERS / "d4.quiver").read_text())
    gamma = et_map(d4, (1, 2, 1, 2))
    for seed in range(6):
        module, _ = generic._draw_cone(d4, min_proj_decomposition(gamma), seed, 10)
        parts = replab.decompose(module)
        for x in parts:
            fresh = Representation(d4, QQ, x.dims, x.maps)  # no End dimension recorded
            assert x.end_dim == hom_dim(fresh, fresh) == 1
        assert sorted(x.dims for x in parts) == [(0, 1, 1, 1), (1, 1, 0, 1)]
        assert split_non_brick([parts]) is None


# every shipped quiver, the affine Ã2 and the 3-Kronecker, as quiver file text
PROJECTIVE_CONE_QUIVERS = {path.stem: path.read_text() for path in sorted(QUIVERS.glob("*.quiver"))}
PROJECTIVE_CONE_QUIVERS.update({"a2-affine": "3\n1 2\n2 3\n1 3\n", "kronecker3": "2\n1 2\n1 2\n1 2\n"})


# --- indices without a path from supp gamma0 to supp gamma1: read off, never drawn ---


def _reached(q, vertices):
    """The vertices at the end of a nonempty path from one of `vertices`, from the arrows alone."""
    reached, frontier = set(), set(vertices)
    while frontier:
        frontier = {t for s, t in q.arrows if s in frontier} - reached
        reached |= frontier
    return reached


@pytest.mark.parametrize("name", sorted(PROJECTIVE_CONE_QUIVERS))
def test_an_index_without_a_path_is_read_off_as_the_drawn_cone(monkeypatch, name):
    # Hom(P(gamma1), P(gamma0)) = 0 exactly when no path runs from supp gamma0 to
    # supp gamma1; then the only map is 0 and the cone is P(gamma0) ⊕ P(gamma1)[1].
    # The rule reads off exactly those indices, with no draw, and gives the parts
    # and shifted part that the drawn path gives at three seeds
    q = quiver_from_text(PROJECTIVE_CONE_QUIVERS[name])
    free = []
    for gamma in product(range(-2, 3), repeat=q.n):
        dec = min_proj_decomposition(gamma)
        support1 = {j for j, b in enumerate(dec.gamma1, start=1) if b}
        no_path = not _reached(q, {i for i, a in enumerate(dec.gamma0, start=1) if a}) & support1
        assert generic._no_path(q, dec) == no_path, (name, gamma)
        free += [gamma] * no_path
    drawn = []
    _recording(monkeypatch, generic, "sample_generic_proj_map", lambda *args: drawn.append(args))
    _recording(monkeypatch, generic, "cone_of_proj_map", lambda *args: drawn.append(args))

    def signatures():
        return [generic.cone_signature(_cone_pattern_once(q, g, seed, plan=BlockPlan()))
                for g in free for seed in (0, 1, 2)]

    read_off = signatures()
    assert not drawn
    monkeypatch.setattr(generic, "_no_path", lambda q, dec: False)
    assert signatures() == read_off
    assert drawn


def test_a_read_off_pattern_is_certified_once_per_quiver_and_index(monkeypatch):
    # D4 X(-1, 1, 1, -1): no path from {2, 3} to {1, 4}. Two values with fresh caches
    # certify the pattern once, and agree with the drawn path's value
    generic._read_off_pattern.cache_clear()
    gamma, certified = (-1, 1, 1, -1), []
    _recording(monkeypatch, generic, "_certify_pattern", lambda q, g, parts, shifted: certified.append(g))
    values = [generic_character(D4, gamma, rng_seed=seed, cache=CharacterCache()) for seed in (0, 1)]
    assert certified == [gamma] and values[0] == values[1]
    monkeypatch.setattr(generic, "_no_path", lambda q, dec: False)
    assert generic_character(D4, gamma, cache=CharacterCache()) == values[0]


def test_an_index_with_a_path_still_draws_five_cones(monkeypatch):
    # D4 X(1, -1, 1, -1): the paths 1 -> 2 and 3 -> 2 give a map to draw
    value = lambda: generic_character(D4, (1, -1, 1, -1), rng_seed=1, cache=CharacterCache())  # noqa: E731
    assert _work(monkeypatch, value)["cone_of_proj_map"] == 5


def test_generic_character_frozen_values(a2):
    assert generic_character(a2, (-1, 0)) == monomial(2, (1, 0))
    assert generic_character(a2, (0, -1)) == monomial(2, (0, 1))
    assert generic_character(a2, (1, -1)) == parse_laurent("(1+x2)/x1", 2)
    assert generic_character(a2, (1, 0)) == parse_laurent("(x1+1+x2)/(x1*x2)", 2)


def test_generic_character_seed_independent(a3):
    vals = {generic_character(a3, (1, -1, 1), rng_seed=s, cache=CharacterCache()).to_text() for s in (1, 5, 9)}
    assert len(vals) == 1


def test_generic_character_cache(tmp_path, a2):
    path = str(tmp_path / "cache.json")
    cache = CharacterCache(path)
    v1 = generic_character(a2, (2, -1), cache=cache)
    assert CharacterCache(path).get(a2, (2, -1)) == v1
    # a corrupt entry is discarded, a valid one kept
    with open(path) as fh:
        data = json.load(fh)
    data["bogus:1,1"] = {"nvars": "broken"}
    with open(path, "w") as fh:
        json.dump(data, fh)
    reloaded = CharacterCache(path)
    assert reloaded.get(a2, (2, -1)) == v1
    assert len(reloaded._mem) == 1


def test_cache_file_of_one_object_loads_and_takes_appends(tmp_path, a2):
    # a file written as one JSON object with no final newline
    path = tmp_path / "cache.json"
    x = generic_character(a2, (1, 0), cache=CharacterCache())
    y = generic_character(a2, (0, 1), cache=CharacterCache())
    path.write_text(json.dumps({CharacterCache.key_for(a2, (1, 0)): x.to_json()}, sort_keys=True))
    cache = CharacterCache(str(path))
    assert cache.get(a2, (1, 0)) == x
    cache.put(a2, (0, 1), y)
    lines = path.read_text().split("\n")
    assert len(lines) == 3 and lines[2] == "" and [len(json.loads(line)) for line in lines[:2]] == [1, 1]
    reloaded = CharacterCache(str(path))
    assert reloaded.get(a2, (1, 0)) == x and reloaded.get(a2, (0, 1)) == y


def test_caches_sharing_a_file_keep_every_entry(tmp_path, a2):
    path = str(tmp_path / "cache.json")
    first, second = CharacterCache(path), CharacterCache(path)
    gammas = [(1, 0), (0, 1), (1, -1), (-1, 0), (0, -1)]
    values = {g: generic_character(a2, g, cache=CharacterCache()) for g in gammas}
    for k, g in enumerate(gammas):
        (first if k % 2 else second).put(a2, g, values[g])
    second.put(a2, gammas[0], values[gammas[1]])  # a later line wins
    reloaded = CharacterCache(path)
    assert len(reloaded._mem) == len(gammas)
    assert all(reloaded.get(a2, g) == values[g] for g in gammas[1:])
    assert reloaded.get(a2, gammas[0]) == values[gammas[1]]


@pytest.mark.parametrize("corrupt", [
    {"nvars": 2, "terms": [{"exp": [-1.9, 0.6], "coef": "3"}]},
    {"nvars": 2, "terms": [{"exp": [-1, 0], "coef": 3.0}]},
    {"nvars": 2, "terms": [{"exp": [-1.0, 0], "coef": 3}]},
    {"nvars": 2.0, "terms": [{"exp": [-1, 0], "coef": 3}]},
], ids=["float-exp-string-coef", "float-coef", "float-exp", "float-nvars"])
def test_a_cache_entry_with_non_integral_numbers_is_discarded(tmp_path, a2, corrupt):
    """Such an entry once loaded truncated, as 3/x1; it is discarded, the value is
    certified, and a valid entry on the next line of the file still loads."""
    path = tmp_path / "cache.json"
    y = generic_character(a2, (0, 1), cache=CharacterCache())
    path.write_text(json.dumps({CharacterCache.key_for(a2, (1, 0)): corrupt}) + "\n"
                    + json.dumps({CharacterCache.key_for(a2, (0, 1)): y.to_json()}) + "\n")
    cache = CharacterCache(str(path))
    assert cache.get(a2, (1, 0)) is None and cache.get(a2, (0, 1)) == y
    assert generic_character(a2, (1, 0), cache=cache) == parse_laurent("(x1+1+x2)/(x1*x2)", 2)


def test_a_cache_entry_in_another_number_of_variables_is_a_miss(tmp_path, a2):
    path = tmp_path / "cache.json"
    foreign = {"nvars": 3, "terms": [{"exp": [1, 2, 3], "coef": 5}]}
    path.write_text(json.dumps({CharacterCache.key_for(a2, (0, 1)): foreign}) + "\n")
    cache = CharacterCache(str(path))
    assert cache.get(a2, (0, 1)) is None
    assert generic_character(a2, (0, 1), cache=cache) == parse_laurent("(x1+1)/x2", 2)


def test_cache_keys_are_integer_indices_of_the_quiver(a2):
    assert CharacterCache.key_for(a2, (1, -1)) == CharacterCache.key_for(a2, [1, -1])
    for gamma, named in [((1.5, 0), "integer entries"), ((1, 0, 0), "length 2")]:
        with pytest.raises(SubdimensionOutOfRange, match=named):
            CharacterCache.key_for(a2, gamma)


def _proj_map_blocks_by_every_pair(q, dec, rng_seed, bound):
    """The blocks of `sample_generic_proj_map` as drawn when every pair (i, j)
    looked up its paths first, empty blocks included."""
    rng = random.Random(rng_seed)
    blocks = {}
    for i in range(1, q.n + 1):
        for j in range(1, q.n + 1):
            paths = q.paths(i, j)
            if not paths:
                continue
            rows = tuple(
                tuple(tuple(rng.randint(-bound, bound) for _ in paths) for _c1 in range(dec.gamma1[j - 1]))
                for _c0 in range(dec.gamma0[i - 1])
            )
            if rows and rows[0]:
                blocks[(i, j)] = rows
    return blocks


@pytest.mark.parametrize("name", sorted(p.stem for p in QUIVERS.glob("*.quiver")))
def test_sampled_maps_skip_empty_blocks_without_changing_the_draws(name):
    q = quiver_from_text((QUIVERS / f"{name}.quiver").read_text())
    rng = random.Random(name)
    for _ in range(40):
        dec = ProjDecomposition(
            gamma0=tuple(rng.choice((0, 0, 1, 2)) for _ in range(q.n)),
            gamma1=tuple(rng.choice((0, 0, 1, 2)) for _ in range(q.n)),
        )
        seed, bound = rng.randrange(10**6), rng.choice((1, 10))
        f = sample_generic_proj_map(q, dec, rng_seed=seed, bound=bound)
        assert f.blocks == _proj_map_blocks_by_every_pair(q, dec, seed, bound)


def test_generic_decomposition_examples(a2, kronecker):
    assert generic_decomposition(a2, (2, 1)) == [(1, 0), (1, 1)]
    assert generic_decomposition(a2, (0, 0)) == []
    assert generic_decomposition(a2, (1, 1)) == [(1, 1)]
    assert generic_decomposition(kronecker, (2, 2)) == [(1, 1), (1, 1)]
    assert generic_decomposition(kronecker, (3, 2)) == [(3, 2)]
    with pytest.raises(SubdimensionOutOfRange):
        generic_decomposition(a2, (-1, 0))


@pytest.mark.parametrize(
    "call",
    [
        lambda q: cc_generic(q, (1, 1)),
        lambda q: check_multiplicativity(q, (1, 1)),
        lambda q: stability_check(q, (1, 0, 0), (1,)),
        lambda q: generic_character(q, (1, 0)),
        lambda q: virtual_generic_decomposition(q, (1, 0, 0, 0)),
        lambda q: generic_representation(q, (1, 1)),
        lambda q: random_representation(q, (1, 1)),
        lambda q: sample_generic_proj_map(q, min_proj_decomposition((1, 1))),
        lambda q: sample_generic_proj_map(q, ProjDecomposition(gamma0=(1, 0, 0), gamma1=(0, 1))),
    ],
    ids=["cc_generic", "check_multiplicativity", "stability_pad", "generic_character", "virtual",
         "generic_representation", "random_representation", "proj_map_gamma0", "proj_map_gamma1"],
)
def test_wrong_length_vectors_are_rejected(a3, call):
    with pytest.raises(SubdimensionOutOfRange):
        call(a3)


def test_non_integral_vectors_are_named_not_truncated(kronecker):
    """A float once went through int(): X(1.7, -1.2) came out as X(1, -1),
    et_map(2.5, 1) as (2, -3), and subrepresentations were counted at e = (0, 0)."""
    m = random_representation(kronecker, (1, 1), GF(5), rng_seed=0)
    repros = [
        (lambda: generic_character(kronecker, (1.7, -1.2), cache=CharacterCache()), r"\(1\.7, -1\.2\)"),
        (lambda: et_map(kronecker, (2.5, 1)), r"\(2\.5, 1\)"),
        (lambda: count_subreps(m, (0.9, 0)), r"\(0\.9, 0\)"),
    ]
    for call, named in repros:
        with pytest.raises(SubdimensionOutOfRange, match=named):
            call()


@pytest.mark.parametrize(
    "call",
    [
        lambda q: grassmannian_euler(random_representation(q, (1, 1), rng_seed=0), (0.5, 0)),
        lambda q: check_multiplicativity(q, (1, 0.5), cache=CharacterCache()),
        lambda q: stability_check(q, (1.5, 0), (0, 0), cache=CharacterCache()),
        lambda q: stability_check(q, (1, 0), (Fraction(1, 2), 0), cache=CharacterCache()),
        lambda q: min_proj_decomposition((1, 2.0)),
        lambda q: cc_generic(q, (1.0, 1)),
        lambda q: generic_decomposition(q, (1, 1.5)),
        lambda q: virtual_generic_decomposition(q, (0.5, 1)),
        lambda q: generic_representation(q, (1, 1.0)),
    ],
    ids=["grassmannian_euler", "check_multiplicativity", "stability_gamma", "stability_pad",
         "min_proj_decomposition", "cc_generic", "generic_decomposition", "virtual", "generic_representation"],
)
def test_non_integral_vectors_are_rejected(kronecker, call):
    with pytest.raises(SubdimensionOutOfRange, match="integer entries"):
        call(kronecker)


def test_three_arrow_kronecker_frontier_fails_with_its_name():
    # Gr_(1,2) of a generic (2,3) module is the zero set of a binary cubic, so its
    # point count depends on p (Reineke, arXiv:1204.5730): no integer polynomial fits
    q = validate_quiver(2, [(1, 2)] * 3)
    with pytest.raises(GenericityUncertified) as info:
        generic_character(q, (2, -3))
    message = str(info.value)
    assert "NotPolynomialCount: no degree-3 integer polynomial" in message
    assert "e=(1, 2)" in message


def test_generic_decomposition_two_algorithms_agree(a2, a3):
    # exhaustive root search vs certified random-sample decomposition
    d4 = validate_quiver(4, [(1, 2), (3, 2), (4, 2)])
    a4 = validate_quiver(4, [(1, 2), (3, 2), (3, 4)])
    for q in (a2, a3, d4, a4):
        for d in product(range(3), repeat=q.n):
            if not any(d):
                continue
            by_roots = root_search_decomposition(q, d)
            assert generic_decomposition(q, d) == by_roots
            _, parts = generic_representation(q, d, rng_seed=13)
            assert sorted(p.dims for p in parts) == by_roots


def _module_path_decomposition(q, d, rng_seed=0, bound=10, retries=8):
    """Summand dimensions of the certified generic representative (the direct
    sampler behind cc_generic), agreed over five seeds: the module path that the
    cone path of generic_decomposition is compared with."""

    def draw(attempt, s):
        _, parts = generic_representation(q, d, rng_seed=mix_seed(rng_seed, attempt, s), bound=bound)
        return sorted(p.dims for p in parts)

    return certify(draw, retries, f"module path decomposition of {d}")


def test_generic_decomposition_kronecker_samplers_agree(kronecker):
    # no root-search oracle off Dynkin type: the cone path and the module path must agree
    for d in product(range(4), repeat=2):
        assert generic_decomposition(kronecker, d) == _module_path_decomposition(kronecker, d)


@pytest.mark.parametrize("name", sorted(p.stem for p in QUIVERS.glob("*.quiver")))
def test_gate_multiplicativity_nonnegative_alphas_agree_with_module_path(name):
    """Every alpha >= 0 that the gate's multiplicativity suite draws on a shipped
    quiver, at the seed its virtual generic decomposition uses there: no shifted
    part, and the betas are the module path's generic decomposition."""
    config = RunConfig()
    q = quiver_from_text((QUIVERS / f"{name}.quiver").read_text())
    golden = json.loads((QUIVERS.parent / "tests" / "golden" / f"multiplicativity-{name}.json").read_text())
    alphas = [ast.literal_eval(c["name"].removeprefix("alpha=")) for c in golden["cases"]]
    checked = 0
    for index, alpha in enumerate(alphas):
        if any(x < 0 for x in alpha):
            continue
        # check_multiplicativity's seed for case `index`, then its seed for the decomposition
        seed = mix_seed(mix_seed(config.rng_seed, 43, index), 13)
        betas, shift = virtual_generic_decomposition(
            q, alpha, rng_seed=seed, bound=config.sample_bound, retries=config.retries
        )
        assert not any(shift), alpha
        assert betas == _module_path_decomposition(q, alpha, seed, config.sample_bound, config.retries), alpha
        checked += 1
    assert checked > 0


def test_virtual_generic_decomposition_examples(a2):
    betas, gamma = virtual_generic_decomposition(a2, (-1, 0))
    assert betas == [(0, 1)] and gamma == (1, 0)
    betas, gamma = virtual_generic_decomposition(a2, (2, 1))
    _, parts = generic_representation(a2, (2, 1))
    assert gamma == (0, 0) and betas == sorted(p.dims for p in parts)
    # alpha = -E^{-t}·alpha_1 is the pure shifted object P_1[1]
    ed = euler_matrix(a2)
    alpha = tuple(-ed.Etinv[i][0] for i in range(2))
    betas, gamma = virtual_generic_decomposition(a2, alpha)
    assert betas == [] and gamma == (1, 0)


def test_check_multiplicativity_examples(a2):
    r = check_multiplicativity(a2, (-1, 0))
    assert r.equal
    s2 = simple_representation(a2, 2)
    assert r.lhs == cc_module(s2) * monomial(2, (1, 0))
    assert r.lhs == parse_laurent("(x1^2+x1)/x2", 2)
    r = check_multiplicativity(a2, (0, 0))
    assert r.equal and r.lhs == LaurentPoly.one(2)
    r = check_multiplicativity(a2, (2, 1))
    assert r.equal and sorted(r.betas) == [(1, 0), (1, 1)]


def test_stability_examples(a2, a3):
    r = stability_check(a2, (1, -1), (0, 0))
    assert r.equal
    r = stability_check(a2, (1, -1), (1, 0))
    assert r.equal and r.minimal == parse_laurent("(1+x2)/x1", 2)
    r = stability_check(a3, (1, 0, -1), (0, 1, 0))
    assert r.equal


def test_stability_decomposes_every_padded_cone(monkeypatch, a2):
    # gamma = (1, 1) >= 0 with no padding: the padded map is 0, and each of its five
    # cones P1 ⊕ P2 is still drawn and decomposed; the minimal value is read off
    decomposed = []
    _recording(monkeypatch, generic, "decompose", lambda m: decomposed.append(m.dims))
    r = stability_check(a2, (1, 1), (0, 0), cache=CharacterCache())
    assert r.equal and decomposed == [(1, 2)] * 5


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("pad", [(0, 0), (1, 0), (1, 1)])
def test_padded_sample_of_a_refined_cone_is_uncertified(kronecker, monkeypatch, pad, seed):
    # X(2, -2) certifies only by splitting its non-brick cone into blocks; a padded
    # cone is one map and is not split, so the stability suite replaces such a draw.
    # With a padding the five samples agree on the first attempt, whose certificate
    # names the non-brick: no further attempt is drawn.
    cache = CharacterCache()
    generic_character(kronecker, (2, -2), rng_seed=seed, cache=cache)
    real, calls = generic._draw_cone, []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(generic, "_draw_cone", counting)
    with pytest.raises(GenericityUncertified, match="non-brick summand"):
        stability_check(kronecker, (2, -2), pad, rng_seed=seed, cache=cache)
    if any(pad):
        assert len(calls) == 5


def test_a_failed_count_in_the_padded_cone_propagates():
    # the minimal value is a cache hit, so the only count is the padded one: the
    # rigid part (1, 2, 1, 1) of the D4 X(1, -1, 1, 1), which has no tree basis
    d4 = quiver_from_text((QUIVERS / "d4.quiver").read_text(encoding="utf-8"))
    cache = CharacterCache()
    cache.put(d4, (1, -1, 1, 1), generic_character(d4, (1, -1, 1, 1)))
    with pytest.raises(CapExceeded, match="exceeds cap 0"):
        stability_check(d4, (1, -1, 1, 1), (1, 0, 0, 0), cap=0, cache=cache)


def test_virtual_generic_decomposition_refuses_a_shifted_pattern_for_nonnegative_alpha(a2, monkeypatch):
    real = generic._cone_pattern_once
    attempt_0 = {mix_seed(0, 7, 0, s) for s in range(5)}

    def shifted_on_attempt_0(q, gamma, rng_seed, *args, **kwargs):
        parts, shifted = real(q, gamma, rng_seed, *args, **kwargs)
        return (parts, (0, 1)) if rng_seed in attempt_0 else (parts, shifted)

    monkeypatch.setattr(generic, "_cone_pattern_once", shifted_on_attempt_0)
    assert virtual_generic_decomposition(a2, (1, 1)) == ([(1, 1)], (0, 0))
    with pytest.raises(GenericityUncertified, match="nonnegative alpha with a shifted part"):
        virtual_generic_decomposition(a2, (1, 1), retries=1)


def test_kronecker_imaginary_multiplicativity(kronecker):
    # 2δ and 3δ need the block-refined sampler; the theorem must still hold exactly.
    for alpha in ((2, 2), (3, 3)):
        r = check_multiplicativity(kronecker, alpha)
        assert r.equal
        assert r.betas == [(1, 1)] * alpha[0]


def test_nonpositive_index_gives_initial_monomial(a2, a3):
    assert generic_character(a2, (-2, -1)) == monomial(2, (2, 1))
    assert generic_character(a3, (-1, 0, -2)) == monomial(3, (1, 0, 2))


def test_a1_character_matches_exchange(a1):
    from clusterchar import initial_seed, mutate_seed

    assert generic_character(a1, (1,)) == mutate_seed(initial_seed(a1), 1).cluster[0]


def test_disconnected_quiver_pipeline():
    from clusterchar import enumerate_seeds, positive_roots, validate_quiver

    q = validate_quiver(3, [(1, 2)])  # A2 ⊔ A1
    assert positive_roots(q) == ((0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 0))
    r = enumerate_seeds(q)
    assert len(r.seeds) == 10 and len(r.variables) == 7
    assert generic_character(q, (1, -1, 1)) == parse_laurent("(2+2*x2)/(x1*x3)", 3)
    assert generic_decomposition(q, (1, 1, 2)) == [(0, 0, 1), (0, 0, 1), (1, 1, 0)]
    rep = check_multiplicativity(q, (2, 1, -1))
    assert rep.equal and rep.gamma_shift == (0, 0, 1)


@pytest.fixture(scope="module")
def drawn_patterns():
    """(quiver, index, (parts, shifted)) for every shipped quiver, every index in
    [-2, 2]^n with |index|_1 <= 4, and two seeds each."""
    out = []
    for path in sorted(QUIVERS.glob("*.quiver")):
        q = quiver_from_text(path.read_text(encoding="utf-8"))
        for gamma in product(range(-2, 3), repeat=q.n):
            if sum(map(abs, gamma)) <= 4:
                out += [(q, gamma, _cone_pattern_once(q, gamma, seed, plan=BlockPlan())) for seed in (0, 1)]
    return out


def _is_rigid(x):
    return euler_form(x.quiver, x.dims, x.dims) == 1


def test_rigid_parts_counted_once_match_per_part_counting(drawn_patterns):
    # one map per (quiver, index), shared by its samples as in generic_character
    maps: dict = {}
    reused = 0
    for q, gamma, (parts, shifted) in drawn_patterns:
        rigid = maps.setdefault((q.key(), gamma), {})
        reused += sum(_is_rigid(x) and x.dims in rigid for x in parts)
        plain = monomial(q.n, shifted)
        for x in parts:
            plain = plain * cc_module(x)
        assert _pattern_value(parts, shifted, 5_000_000, rigid) == plain, (q.key(), gamma)
    assert len({q.key() for q, *_ in drawn_patterns}) == len(list(QUIVERS.glob("*.quiver"))) >= 4
    assert reused > 100
    assert any(not _is_rigid(x) for *_, (parts, _) in drawn_patterns for x in parts)


def _counting_cc_module(monkeypatch):
    counted = []

    def counting(m, cap=5_000_000):
        counted.append(m.dims)
        return cc_module(m, cap=cap)

    monkeypatch.setattr(generic, "cc_module", counting)
    return counted


def _counting_tree_character(monkeypatch):
    counted = []

    def counting(q, d):
        counted.append(d)
        return tree_character(q, d)

    monkeypatch.setattr(generic, "tree_character", counting)
    return counted


def test_rigid_map_lives_for_one_call(monkeypatch, kronecker):
    # X(2, 0): every sample's cone is two copies of the rigid brick of dims (1, 2),
    # whose character comes from its tree basis once per value
    counted = _counting_cc_module(monkeypatch)
    trees = _counting_tree_character(monkeypatch)
    first = generic_character(kronecker, (2, 0), cache=CharacterCache())
    assert trees == [(1, 2)]
    second = generic_character(kronecker, (2, 0), cache=CharacterCache())
    assert trees == [(1, 2), (1, 2)] and counted == []
    assert first == second == cc_module(random_representation(kronecker, (1, 2), rng_seed=3)) ** 2


def test_frontier_rigid_value_is_not_counted(monkeypatch, kronecker):
    # X(4, -3) is the character of the exceptional module of dims (4, 5): one tree
    # basis, no point count. Its value is pinned, against the cluster variable of
    # the same denominator, by the frontier golden tests of test_cli.py
    assert et_map(kronecker, (4, 5)) == (4, -3)
    counted = _counting_cc_module(monkeypatch)
    trees = _counting_tree_character(monkeypatch)
    generic_character(kronecker, (4, -3), cache=CharacterCache())
    assert counted == [] and trees == [(4, 5)]


def test_tree_character_is_built_once_per_quiver_and_dims(monkeypatch, kronecker):
    # a tree character uses no prime and no sample: two values of X(4, -3), each
    # with a fresh character cache, make one subset pass between them
    characters.tree_character.cache_clear()
    real, calls = characters.subset_counts, []

    def counting(q, d, edges):
        calls.append(d)
        return real(q, d, edges)

    monkeypatch.setattr(characters, "subset_counts", counting)
    first = generic_character(kronecker, (4, -3), cache=CharacterCache())
    second = generic_character(kronecker, (4, -3), cache=CharacterCache())
    assert calls == [(4, 5)] and first == second


def test_rigid_part_without_a_tree_basis_is_counted_once_per_value(monkeypatch):
    # D4 (1, 2, 1, 1), of index E^t·d = (1, -1, 1, 1), has no tree construction
    d4 = quiver_from_text((QUIVERS / "d4.quiver").read_text(encoding="utf-8"))
    assert et_map(d4, (1, 2, 1, 1)) == (1, -1, 1, 1)
    counted = _counting_cc_module(monkeypatch)
    generic_character(d4, (1, -1, 1, 1), cache=CharacterCache())
    assert counted == [(1, 2, 1, 1)]
    generic_character(d4, (1, -1, 1, 1), cache=CharacterCache())
    assert counted == [(1, 2, 1, 1)] * 2


def test_non_rigid_part_counted_on_every_sample(monkeypatch, kronecker):
    # X(1, -1) is the regular brick of dims (1, 1), with <d, d> = 0
    assert euler_form(kronecker, (1, 1), (1, 1)) == 0
    counted = _counting_cc_module(monkeypatch)
    generic_character(kronecker, (1, -1), cache=CharacterCache())
    assert counted == [(1, 1)] * 5


def _every_ext_pair(parts):
    """The unskipped double loop: Ext computed for every ordered pair."""
    for i, x in enumerate(parts):
        for j, y in enumerate(parts):
            if i != j and ext_dim(x, y) != 0:
                return x, y
    return None


def test_first_ext_pair_skips_only_ext_free_pairs(drawn_patterns):
    # each drawn list, and each list joined with the one of the next index on its
    # quiver, which can carry Ext between the two cones' parts
    lists = [[x for x in parts if _is_rigid(x)] for *_, (parts, _) in drawn_patterns]
    quivers = [q.key() for q, *_ in drawn_patterns]
    joined = [a + b for a, b, qa, qb in zip(lists, lists[2:], quivers, quivers[2:]) if qa == qb]
    flagged = 0
    for parts in lists + joined:
        pair = first_ext_pair(parts)
        assert pair == _every_ext_pair(parts)
        flagged += pair is not None
    assert flagged > 20
    assert sum(len(p) > len({x.dims for x in p}) for p in lists) > 100


def test_first_ext_pair_flags_a_non_rigid_repeat(kronecker):
    x = random_representation(kronecker, (1, 1), rng_seed=4)
    assert ext_dim(x, x) == 1
    assert first_ext_pair([x, x]) == (x, x)


def test_first_ext_pair_keeps_a_rigid_non_projective_first_part(a2):
    # S1 and S2 are both rigid; S2 = P2 is skipped, S1 (index (1, -1)) is not
    s1, s2 = simple_representation(a2, 1), simple_representation(a2, 2)
    assert first_ext_pair([s1, s2]) == (s1, s2)
    assert first_ext_pair([s2, s1]) == (s1, s2)


@pytest.mark.parametrize("name", sorted(PROJECTIVE_CONE_QUIVERS))
def test_no_ext_is_computed_from_a_projective_part(monkeypatch, name):
    # a rigid brick of index e_i is P_i and Ext(P_i, -) = 0, so certifying a cone
    # never computes Ext with a projective first argument: not on a gamma >= 0 cone,
    # nor on a mixed cone with a P_i part
    q = quiver_from_text(PROJECTIVE_CONE_QUIVERS[name])
    projective = {projective_representation(q, i).dims for i in range(1, q.n + 1)}
    ext = replab.ext_dim
    firsts = []

    def recording(x, y):
        firsts.append(x.dims)
        return ext(x, y)

    monkeypatch.setattr(replab, "ext_dim", recording)
    mixed_with_projective = 0
    for gamma in product(range(-1, 3), repeat=q.n):
        if not any(gamma):
            continue
        try:
            parts, _ = _cone_pattern_once(q, gamma, 5, plan=BlockPlan())
        except ClusterCharError:
            continue
        mixed_with_projective += min(gamma) < 0 and any(x.dims in projective for x in parts)
    assert mixed_with_projective > 0
    assert not [d for d in firsts if d in projective]


# --- a value's block plan: found by its first certified sample, used by the rest ---


def _recording(monkeypatch, module, name, record):
    """Replace module.name by a wrapper that calls record with its arguments, then the original."""
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        record(*args, **kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def _counting_splits(monkeypatch):
    """The dims of each non-brick summand `_refine_blocks` splits, in order."""
    split = replab.split_non_brick
    splits = []

    def counting(parts_per_block):
        found = split(parts_per_block)
        if found is not None:
            splits.append(found[1].dims)
        return found

    monkeypatch.setattr(replab, "split_non_brick", counting)
    return splits


def test_kronecker_x_4_4_finds_its_block_plan_once_per_value(monkeypatch, kronecker):
    # the (4, 4) cone has End of dim 4; its 32-unknown Hom system is solved by the
    # first sample only, and each value (fresh cache) pays for it again
    ends = []
    _recording(monkeypatch, replab, "hom_basis", lambda m, n: ends.append(m.dims))
    splits = _counting_splits(monkeypatch)
    first = generic_character(kronecker, (4, -4), cache=CharacterCache())
    assert ends.count((4, 4)) == 1 and splits == [(4, 4)]
    second = generic_character(kronecker, (4, -4), cache=CharacterCache())
    assert ends.count((4, 4)) == 2 and splits == [(4, 4)] * 2
    assert first == second


def test_cc_generic_splits_a_non_brick_once_per_value(monkeypatch, kronecker):
    splits = _counting_splits(monkeypatch)
    value = cc_generic(kronecker, (2, 2))
    assert splits == [(2, 2)]
    assert cc_generic(kronecker, (2, 2)) == value and splits == [(2, 2)] * 2


def test_d4_samples_the_same_blocks_and_seeds_with_or_without_a_plan(monkeypatch):
    # no D4 value here refines, so its plan is [gamma] and every sample draws what
    # it drew before plans existed; a sample that takes the certified parts of a
    # rigid round still draws its own map, with the same seed
    d4 = quiver_from_text((QUIVERS / "d4.quiver").read_text())

    def draws():
        seen = []
        splits = _counting_splits(monkeypatch)
        _recording(monkeypatch, generic, "sample_generic_proj_map",
                   lambda q, dec, rng_seed=0, bound=10: seen.append((dec, rng_seed)))
        _recording(monkeypatch, replab, "random_representation",
                   lambda q, d, field, rng_seed, bound: seen.append((d, rng_seed)))
        for gamma in (et_map(d4, (1, 2, 1, 2)), (1, -1, 0, 1), (1, -1, 1, -1), (2, -1, 0, -1)):
            generic_character(d4, gamma, cache=CharacterCache())
        virtual_generic_decomposition(d4, (1, 2, 1, 2))
        cc_generic(d4, (1, 2, 1, 1))
        monkeypatch.undo()
        assert not splits
        return seen

    planned = draws()
    _unplanned(monkeypatch)
    assert draws() == planned and len(planned) > 30, len(planned)


def _unplanned(monkeypatch):
    """Certify every sample with a fresh block plan, as before plans existed."""
    refine = replab._refine_blocks
    unplanned = lambda *args, plan, **kwargs: refine(*args, plan=BlockPlan(), **kwargs)  # noqa: E731
    monkeypatch.setattr(generic, "_refine_blocks", unplanned)
    monkeypatch.setattr(replab, "_refine_blocks", unplanned)


# --- later samples of an all-rigid value: certified by one Hom rank, not decomposed ---

D4 = quiver_from_text((QUIVERS / "d4.quiver").read_text(encoding="utf-8"))


def _work(monkeypatch, run) -> Counter:
    """Calls of cone_of_proj_map, decompose and hom_dim while run() computes."""
    seen = Counter()
    for module, name in ((generic, "cone_of_proj_map"), (replab, "decompose"), (replab, "hom_dim")):
        _recording(monkeypatch, module, name, lambda *args, name=name: seen.update([name]))
    run()
    monkeypatch.undo()
    return seen


def test_an_all_rigid_value_decomposes_its_first_sample_only(monkeypatch):
    # D4 X(1, -1, 0, 1) at seed 1: five cones of the rigid brick (1, 1, 0, 1), each
    # round 0 of its sample; the first is decomposed, the other four are rigid
    def value():
        return generic_character(D4, (1, -1, 0, 1), rng_seed=1, cache=CharacterCache())

    value()  # the tree basis of (1, 1, 0, 1) is built once per process: build it first
    assert _work(monkeypatch, value) == Counter(cone_of_proj_map=5, decompose=1, hom_dim=4)
    # the certified round lives for one value: the next value decomposes again
    assert _work(monkeypatch, value)["decompose"] == 1
    _unplanned(monkeypatch)
    assert _work(monkeypatch, value)["decompose"] == 5


def test_a_value_with_a_non_rigid_part_decomposes_every_sample(monkeypatch, kronecker):
    # X(2, -2): blocks (1, -1) twice, whose cones are regular bricks with <d, d> = 0
    work = _work(monkeypatch, lambda: generic_character(kronecker, (2, -2), cache=CharacterCache()))
    assert work["decompose"] == work["cone_of_proj_map"] == 11


# --- one multiplicativity case is one certified draw of its one index ---


def _unshared_report(q, alpha, seed=0):
    """check_multiplicativity from a separate lhs and decomposition of alpha, each
    certified by its own five draws, and the rhs multiplied from 1."""
    cache = CharacterCache()
    lhs = generic_character(q, et_map(q, alpha), rng_seed=seed, cache=cache)
    betas, shift = virtual_generic_decomposition(q, alpha, rng_seed=mix_seed(seed, 13))
    rhs = LaurentPoly.one(q.n)
    for beta in betas:
        rhs = rhs * generic_character(q, et_map(q, beta), rng_seed=mix_seed(seed, 17), cache=cache)
    if any(shift):
        rhs = rhs * generic_character(q, tuple(-x for x in shift), rng_seed=mix_seed(seed, 19), cache=cache)
    return MultiplicativityReport(alpha, betas, shift, lhs, rhs, lhs == rhs)


def test_an_all_rigid_multiplicativity_case_decomposes_once(monkeypatch):
    # D4 alpha = (1, 1, 1, 1), a real Schur root: X(1, -2, 1, 1) draws five cones of
    # its rigid brick, and the same five give the decomposition of alpha. Only the
    # first is decomposed; the other four take its certified round by one Hom rank.
    # The rhs X(E^t·beta), beta = alpha, is the lhs just put into the cache. A
    # separate decomposition would draw five cones more and decompose one of them
    alpha = (1, 1, 1, 1)
    assert et_map(D4, alpha) == (1, -2, 1, 1)
    expected = _unshared_report(D4, alpha)  # builds the tree basis of alpha first
    one_draw = _work(monkeypatch, lambda: check_multiplicativity(D4, alpha, cache=CharacterCache()))
    assert one_draw["cone_of_proj_map"] == 5 and one_draw["decompose"] == 1
    unshared = _work(monkeypatch, lambda: _unshared_report(D4, alpha))
    assert unshared["cone_of_proj_map"] == 10 and unshared["decompose"] == 2
    report = check_multiplicativity(D4, alpha, cache=CharacterCache())
    assert report == expected and report.betas == [alpha] and report.equal


@pytest.mark.parametrize("quiver, box", [("d4", 1), ("kronecker", 3), ("a3", 2), ("a2", 2)])
def test_one_certified_draw_gives_the_report_of_separate_draws(a2, a3, kronecker, quiver, box):
    q = {"d4": D4, "kronecker": kronecker, "a3": a3, "a2": a2}[quiver]
    for alpha in product(range(-box, box + 1), repeat=q.n):
        assert check_multiplicativity(q, alpha, cache=CharacterCache()) == _unshared_report(q, alpha), alpha


def test_a_wrong_cached_lhs_is_certified_again():
    # a cache that holds a wrong X(E^t·alpha) does not decide the lhs: the case
    # certifies it and puts it into the cache, and its rhs X(E^t·beta), beta = alpha,
    # reads the certified value back
    alpha = (1, 1, 1, 1)
    gamma, wrong = et_map(D4, alpha), LaurentPoly.one(D4.n)
    cache = CharacterCache()
    cache.put(D4, gamma, wrong)
    report = check_multiplicativity(D4, alpha, cache=cache)
    assert report == _unshared_report(D4, alpha) and report.equal
    assert cache.get(D4, gamma) == report.lhs != wrong


def test_a_file_cache_gains_no_line_for_an_lhs_it_holds(tmp_path):
    # the second run certifies each lhs again and finds it in the file already
    path = str(tmp_path / "cache")
    first = [check_multiplicativity(D4, alpha, cache=CharacterCache(path)) for alpha in ((1, 1, 1, 1), (1, 0, -1, 0))]
    with open(path, "rb") as fh:
        lines = fh.readlines()
    second = [check_multiplicativity(D4, alpha, cache=CharacterCache(path)) for alpha in ((1, 1, 1, 1), (1, 0, -1, 0))]
    with open(path, "rb") as fh:
        assert second == first and fh.readlines() == lines


def test_multiplicativity_refuses_a_shifted_pattern_for_nonnegative_alpha(monkeypatch, a2):
    # five agreeing cones with a shifted part contradict Kac's decomposition of alpha >= 0
    monkeypatch.setattr(generic, "_cone_pattern_once", lambda *args, **kwargs: ([], (0, 1)))
    with pytest.raises(GenericityUncertified, match="nonnegative alpha with a shifted part"):
        check_multiplicativity(a2, (1, 1), cache=CharacterCache())


def _counting_products(monkeypatch):
    """The number of factors of each product `_pattern_value` takes, in order."""
    real, sizes = generic.product, []

    def counting(factors, nvars):
        sizes.append(len(factors))
        return real(factors, nvars)

    monkeypatch.setattr(generic, "product", counting)
    return sizes


def test_an_all_rigid_value_multiplies_its_part_characters_once(monkeypatch):
    # D4 X(1, -1, 0, 2): every sample's cone is the rigid bricks (0, 1, 0, 1) and
    # (1, 1, 0, 1), no shifted part; five samples are certified, one product taken
    gamma = (1, -1, 0, 2)
    patterns = []
    _recording(monkeypatch, generic, "_pattern_value",
               lambda parts, shifted, *rest: patterns.append(cone_signature((parts, shifted))))
    sizes = _counting_products(monkeypatch)
    value = generic_character(D4, gamma, cache=CharacterCache())
    assert patterns == [([(0, 1, 0, 1), (1, 1, 0, 1)], (0, 0, 0, 0))] * 5 and sizes == [2]
    assert value == tree_character(D4, (0, 1, 0, 1)) * tree_character(D4, (1, 1, 0, 1))


def test_a_value_with_non_rigid_parts_counts_and_multiplies_every_sample(monkeypatch, kronecker):
    # Kronecker X(2, -2): two regular bricks (1, 1), <d, d> = 0, on each of five samples
    counted = _counting_cc_module(monkeypatch)
    sizes = _counting_products(monkeypatch)
    value = generic_character(kronecker, (2, -2), cache=CharacterCache())
    assert counted == [(1, 1)] * 10 and sizes == [2] * 5
    assert value == generic_character(kronecker, (1, -1), cache=CharacterCache()) ** 2


@pytest.mark.parametrize("quiver, gamma, seed", [
    ("d4", (1, -1, 0, 1), 0), ("d4", (1, -1, 0, 1), 3), ("d4", (1, -1, 1, 1), 0),
    ("d4", (1, 1, 0, 1), 0), ("d4", (-1, 0, -1, -1), 0), ("kronecker", (3, 0), 0),
    ("kronecker", (-2, -1), 0), ("kronecker", (2, -1), 0), ("kronecker", (4, -3), 0),
])
def test_the_rigid_path_draws_the_same_cones_as_before(monkeypatch, kronecker, quiver, gamma, seed):
    q = D4 if quiver == "d4" else kronecker

    def value():
        return generic_character(q, gamma, rng_seed=seed, cache=CharacterCache())

    expected = value()  # tree bases are built once per process: build them first
    planned = _work(monkeypatch, value)
    _unplanned(monkeypatch)
    unplanned = _work(monkeypatch, value)
    assert value() == expected
    assert planned["cone_of_proj_map"] == unplanned["cone_of_proj_map"]
    if generic._no_path(q, min_proj_decomposition(gamma)):
        # read off the quiver before any draw, with or without a plan
        assert planned["cone_of_proj_map"] == unplanned["cone_of_proj_map"] == 0
        assert planned["hom_dim"] == unplanned["hom_dim"]
    else:
        assert planned["decompose"] < unplanned["decompose"]


def test_a_later_sample_that_is_not_rigid_is_decomposed_and_refused(monkeypatch):
    # sample 2 of X(1, -1, 0, 1) gets S1 ⊕ S2 ⊕ S4, which has the certified dims
    # (1, 1, 0, 1) and shifted part 0 but is not rigid: it must be decomposed and
    # refused (Ext(S1, S2) != 0), as before, and never take the certified parts
    gamma = (1, -1, 0, 1)
    expected = generic_character(D4, gamma, rng_seed=1, cache=CharacterCache())
    real_cone, cones, degenerate = generic.cone_of_proj_map, [], []

    def degenerate_third(f):
        cone = real_cone(f)
        cones.append(cone)
        if len(cones) != 3:
            return cone
        d = cone.module.dims
        zero = tuple(tuple((0,) * d[s - 1] for _ in range(d[t - 1])) for s, t in D4.arrows)
        degenerate.append(Representation(D4, QQ, d, zero))
        return ClusterObject(degenerate[0], cone.shifted)

    decomposed, refused = [], []
    real_certify = replab._certify_pattern

    def certifying(q, g, parts, shifted):
        try:
            real_certify(q, g, parts, shifted)
        except GenericityUncertified as exc:
            refused.append(str(exc))
            raise

    monkeypatch.setattr(generic, "cone_of_proj_map", degenerate_third)
    _recording(monkeypatch, replab, "decompose", decomposed.append)
    monkeypatch.setattr(replab, "_certify_pattern", certifying)
    assert generic_character(D4, gamma, rng_seed=1, cache=CharacterCache()) == expected
    assert cones[2].module.dims == degenerate[0].dims == (1, 1, 0, 1) and not any(cones[2].shifted)
    assert len(cones) == 6 and [m is degenerate[0] for m in decomposed] == [False, True]
    assert refused == ["Ext((1, 0, 0, 0),(0, 1, 0, 0)) nonzero on the sample"]


def test_cc_generic_counts_each_samples_own_module(monkeypatch):
    # D4 (1, 2, 1, 1) at seed 1: four of the five samples take the first one's
    # certified parts, but cc_module still counts each sample's own representative
    drawn, counted, decomposed = [], [], []
    real = replab.random_representation

    def drawing(*args, **kwargs):
        drawn.append(real(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(replab, "random_representation", drawing)
    _recording(monkeypatch, characters, "cc_module", lambda m, cap: counted.append(m))
    _recording(monkeypatch, replab, "decompose", decomposed.append)
    cc_generic(D4, (1, 2, 1, 1), rng_seed=1)
    assert len(decomposed) == 1 and len({m.maps for m in drawn}) == 5
    assert counted == drawn
