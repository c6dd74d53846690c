"""The Fitting candidate screen of `replab`: combinations over Q proven invertible
mod a prime are never built, and `_fitting_split` stops at once on an invertible
or zero map. Neither may change a summand, so `decompose` and `is_isomorphic` are
compared with a copy of the exhaustive loop that builds and squares every candidate."""

import random
from pathlib import Path

import pytest

from clusterchar import linalg, replab
from clusterchar.generic import cone_of_proj_map, min_proj_decomposition, sample_generic_proj_map
from clusterchar.linalg import QQ
from clusterchar.quiver import et_map, quiver_from_text
from clusterchar.replab import (
    _CANDIDATE_SEED,
    _combine_endos,
    _fitting_split,
    _known_end,
    _split_simples,
    _subrep_on_bases,
    _thin_components,
    decompose,
    direct_sum_all,
    hom_basis,
    is_isomorphic,
    make_representation,
    projective_representation,
    random_representation,
    simple_representation,
)

QUIVERS = Path(__file__).resolve().parent.parent / "quivers"


def _exhaustive_candidates(m, basis, rng):
    """Every candidate built: the basis, then 8 sparse and 8 dense combinations."""
    yield from basis
    lo, hi = (-9, 9) if m.field.p is None else (0, m.field.p - 1)
    for _ in range(8):
        cf = [0] * len(basis)
        for _ in range(min(3, len(basis))):
            cf[rng.randrange(len(basis))] = rng.randint(lo, hi) or 1
        yield _combine_endos(m, basis, cf)
    for _ in range(8):
        yield _combine_endos(m, basis, [rng.randint(lo, hi) for _ in basis])


def _squaring_split(m, phi):
    """The Fitting split that squares phi until its rank is stable, whatever phi is."""
    field, n = m.field, m.quiver.n
    powers = [list(map(list, phi[v])) for v in range(n)]
    prev = sum(linalg.rank(powers[v], field) for v in range(n))
    for _ in range(max(1, m.total_dim.bit_length() + 1)):
        squared = [linalg.mat_mul(powers[v], powers[v], field) for v in range(n)]
        r = sum(linalg.rank(squared[v], field) for v in range(n))
        if r == prev:
            break
        powers, prev = squared, r
    if prev in (0, m.total_dim):
        return None
    ker, im = [], []
    for v, d in enumerate(m.dims):
        if d == 0:
            ker.append([])
            im.append([])
            continue
        kb = linalg.nullspace(powers[v], field, ncols=d)
        ker.append([[kb[j][i] for j in range(len(kb))] for i in range(d)] if kb else [[] for _ in range(d)])
        pivots = linalg.rref(powers[v], field)[1]
        im.append([[row[j] for j in pivots] for row in powers[v]])
    return _subrep_on_bases(m, ker), _subrep_on_bases(m, im)


def _exhaustive_summands(m, rng, splits):
    if all(d <= 1 for d in m.dims):
        return _thin_components(m)
    endos = hom_basis(m, m)
    if len(endos) == 1:
        return [_known_end(m, 1)]
    for k, phi in enumerate(_exhaustive_candidates(m, endos, rng)):
        split = _squaring_split(m, phi)
        if split is not None:
            splits.append(k >= len(endos))
            return _exhaustive_summands(split[0], rng, splits) + _exhaustive_summands(split[1], rng, splits)
    return [_known_end(m, len(endos))]


def exhaustive_decompose(m, splits=None):
    """`decompose` as it ran before the screen; `splits` collects, per Fitting split,
    whether a combination (rather than a basis element) made it."""
    n, simples = (m, []) if all(d <= 1 for d in m.dims) else _split_simples(m)
    return _exhaustive_summands(n, random.Random(_CANDIDATE_SEED), [] if splits is None else splits) + simples


def exhaustive_is_isomorphic(m, n):
    if m.quiver != n.quiver or m.field != n.field or m.dims != n.dims:
        return False
    candidates = _exhaustive_candidates(m, hom_basis(m, n), random.Random(_CANDIDATE_SEED))
    return any(all(linalg.rank(phi[v], m.field) == d for v, d in enumerate(m.dims)) for phi in candidates)


def _summary(parts):
    """Each summand's matrices and the End dimension `decompose` recorded for it."""
    return [(x.dims, x.maps, vars(x).get("end_dim")) for x in parts]


def _modules():
    out = []
    rng = random.Random(15)
    for path in sorted(QUIVERS.glob("*.quiver")):
        q = quiver_from_text(path.read_text())
        for _ in range(6):
            d = tuple(rng.randint(0, 3) for _ in range(q.n))
            out.append(random_representation(q, d, rng_seed=rng.randrange(10**6), bound=rng.choice((1, 2, 10))))
    kronecker = quiver_from_text((QUIVERS / "kronecker.quiver").read_text())
    for k in range(1, 5):
        for seed in range(3):
            out.append(random_representation(kronecker, (k, k), rng_seed=seed, bound=(1, 2, 10)[seed]))
    d4 = quiver_from_text((QUIVERS / "d4.quiver").read_text())
    dec = min_proj_decomposition(et_map(d4, (1, 2, 1, 2)))
    for seed in range(8):
        for bound in (2, 10):
            out.append(cone_of_proj_map(sample_generic_proj_map(d4, dec, rng_seed=seed, bound=bound)).module)
    return out


MODULES = _modules()


def _spy_screen(monkeypatch):
    """Record the bases `_hom_candidates` reduced mod the screening prime, and the
    combinations it built exactly (the calls of `_combine_endos` on another basis)."""
    screens, exact = [], []
    reduce_basis, combine = replab._reduce_basis, replab._combine_endos

    def spy_reduce(basis, field):
        screens.append(reduce_basis(basis, field))
        return screens[-1]

    def spy_combine(m, endos, coeffs):
        phi = combine(m, endos, coeffs)
        if not any(endos is s for s in screens):
            exact.append((m, phi))
        return phi

    monkeypatch.setattr(replab, "_reduce_basis", spy_reduce)
    monkeypatch.setattr(replab, "_combine_endos", spy_combine)
    return screens, exact


def _full_rank(m, phi):
    return all(linalg.rank(phi[v], m.field) == d for v, d in enumerate(m.dims))


def test_decompose_matches_the_exhaustive_loop(monkeypatch):
    expected, splits = [], []
    for m in MODULES:
        expected.append(_summary(exhaustive_decompose(m, splits)))
    assert sum(splits) >= 3  # some summands need a random combination to split off
    screens, exact = _spy_screen(monkeypatch)
    assert [_summary(decompose(m)) for m in MODULES] == expected
    # at the default prime every combination that does not split is proven invertible unbuilt
    assert screens and all(screens)
    assert len(exact) == sum(splits)


@pytest.mark.parametrize("prime", [2, 3])
def test_decompose_does_not_depend_on_the_screening_prime(monkeypatch, prime):
    expected = [_summary(exhaustive_decompose(m)) for m in MODULES]
    monkeypatch.setattr(replab, "_SCREEN_PRIME", prime)
    screens, exact = _spy_screen(monkeypatch)
    assert [_summary(decompose(m)) for m in MODULES] == expected
    # both ways a candidate escapes the screen occur: a basis denominator divisible
    # by the prime, and a singular reduction of an invertible combination
    assert any(not s for s in screens) and any(screens)
    assert any(_full_rank(m, phi) for m, phi in exact)


@pytest.mark.parametrize("prime", [None, 2, 3])
def test_is_isomorphic_matches_the_exhaustive_loop(monkeypatch, a3, prime):
    from test_replab import _change_of_basis

    if prime is not None:
        monkeypatch.setattr(replab, "_SCREEN_PRIME", prime)
    p1, p2 = projective_representation(a3, 1), projective_representation(a3, 2)
    s1, s3 = simple_representation(a3, 1), simple_representation(a3, 3)
    m = direct_sum_all([p1, p1, s3, s3], a3)
    copy = _change_of_basis(m, random.Random(3))
    other = direct_sum_all([p1, s1, p2, s3, s3], a3)
    pairs = [(m, copy), (copy, m), (m, other), (other, copy), (copy, copy)]
    answers = [is_isomorphic(x, y) for x, y in pairs]
    assert answers == [exhaustive_is_isomorphic(x, y) for x, y in pairs] == [True, True, False, False, True]


def test_fitting_split_stops_on_an_invertible_or_zero_map(monkeypatch, kronecker):
    m = make_representation(kronecker, QQ, (2, 2), [((1, 0), (0, 1)), ((0, 1), (2, 0))])
    ident = tuple(tuple(tuple(int(i == j) for j in range(d)) for i in range(d)) for d in m.dims)
    zero = tuple(tuple((0,) * d for _ in range(d)) for d in m.dims)
    (b, c) = hom_basis(m, m)
    invertible = _combine_endos(m, [b, c], [1, 1])
    assert _full_rank(m, invertible) and invertible != ident

    def no_product(*args):
        raise AssertionError("a power of phi was computed")

    monkeypatch.setattr(linalg, "mat_mul", no_product)
    for phi in (ident, invertible, zero):
        assert _fitting_split(m, phi) is None
