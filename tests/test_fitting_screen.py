"""`decompose` against the random-combination search of `fitting_oracle`.

`decompose` tries the End basis elements and, for dim End = 2, an exact quadratic
step; the oracle tries the basis and 16 random combinations of it. On every module
the summands of `decompose` add up to M (the oracle's True is a proof), agree with
the oracle's wherever the oracle split every summand into a brick, and are never
fewer; on D4 cones of index E^t(1,2,1,2) the quadratic step splits summands with
End = Q x Q that no combination does."""

import random
from pathlib import Path

from clusterchar import linalg
from clusterchar.generic import cone_of_proj_map, min_proj_decomposition, sample_generic_proj_map
from clusterchar.linalg import QQ
from clusterchar.quiver import et_map, quiver_from_text
from clusterchar.replab import _fitting_split, decompose, direct_sum_all, hom_basis, make_representation, random_representation
from fitting_oracle import combine_endos, exhaustive_decompose, is_isomorphic

QUIVERS = Path(__file__).resolve().parent.parent / "quivers"


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
    seeds = [(seed, bound) for seed in range(8) for bound in (2, 10)] + [(seed, 10) for seed in range(1000, 1030)]
    for seed, bound in seeds:
        out.append(cone_of_proj_map(sample_generic_proj_map(d4, dec, rng_seed=seed, bound=bound)).module)
    return out


MODULES = _modules()


def test_decompose_against_the_exhaustive_combination_loop():
    by_combination = only_quadratic = 0
    for m in MODULES:
        splits = []
        oracle = exhaustive_decompose(m, splits)
        parts = decompose(m)
        assert is_isomorphic(direct_sum_all(parts, m.quiver, m.field), m)
        assert len(parts) >= len(oracle)
        if all(x.end_dim == 1 for x in oracle):
            assert sorted(x.dims for x in parts) == sorted(x.dims for x in oracle)
        by_combination += any(splits)
        only_quadratic += len(parts) > len(oracle)
    assert by_combination >= 3  # some splits of the oracle need a random combination
    assert only_quadratic >= 20  # the D4 End = Q x Q summands the combinations leave unsplit


def test_fitting_split_stops_on_an_invertible_or_zero_map(monkeypatch, kronecker):
    m = make_representation(kronecker, QQ, (2, 2), [((1, 0), (0, 1)), ((0, 1), (2, 0))])
    ident = tuple(tuple(tuple(int(i == j) for j in range(d)) for i in range(d)) for d in m.dims)
    zero = tuple(tuple((0,) * d for _ in range(d)) for d in m.dims)
    (b, c) = hom_basis(m, m)
    invertible = combine_endos(m, [b, c], [1, 1])
    assert all(linalg.rank(invertible[v], QQ) == d for v, d in enumerate(m.dims)) and invertible != ident

    def no_product(*args):
        raise AssertionError("a power of phi was computed")

    monkeypatch.setattr(linalg, "mat_mul", no_product)
    for phi in (ident, invertible, zero):
        assert _fitting_split(m, phi) is None
