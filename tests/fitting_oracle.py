"""A random-combination search in Hom, kept as an oracle that the tests compare the library against.

`decompose` splits End(M) with its basis elements and, when dim End(M) = 2, with an
exact quadratic step; it draws no random number. The search here also tries 8
sparse and 8 dense combinations of the basis, with coefficients from a fixed-seed
generator. An invertible candidate in Hom(M, N) proves M ≅ N (`is_isomorphic`);
a candidate that is neither invertible nor nilpotent splits M (`exhaustive_decompose`).
"""

import random

from clusterchar import linalg
from clusterchar.replab import _fitting_split, _known_end, _split_simples, _thin_components, hom_basis
from clusterchar.seeds import mix_seed

SEED = mix_seed(0, 1)


def combine_endos(m, endos, coeffs):
    """sum(coeffs[k] * endos[k]) for maps M -> N with dim N = dim M."""
    p = m.field.p
    phi = []
    for v, d in enumerate(m.dims):
        mat = [[0] * d for _ in range(d)]
        for cf, b in zip(coeffs, endos):
            for out, row in zip(mat, b[v]):
                for j, x in enumerate(row):
                    out[j] += cf * x
        if p is not None:
            mat = [[x % p for x in row] for row in mat]
        phi.append(tuple(tuple(r) for r in mat))
    return phi


def hom_candidates(m, basis, rng):
    """The basis, then 8 sparse (at most 3 terms) and 8 dense combinations of it, with
    coefficients from rng: in [-9, 9] over Q, in F_p over F_p."""
    yield from basis
    lo, hi = (-9, 9) if m.field.p is None else (0, m.field.p - 1)
    for _ in range(8):
        cf = [0] * len(basis)
        for _ in range(min(3, len(basis))):
            cf[rng.randrange(len(basis))] = rng.randint(lo, hi) or 1
        yield combine_endos(m, basis, cf)
    for _ in range(8):
        yield combine_endos(m, basis, [rng.randint(lo, hi) for _ in basis])


def is_isomorphic(m, n):
    """True proves M ≅ N: a candidate of Hom(M, N) has full rank at every vertex.
    False means no candidate was invertible."""
    if m.quiver != n.quiver or m.field != n.field or m.dims != n.dims:
        return False
    candidates = hom_candidates(m, hom_basis(m, n), random.Random(SEED))
    return any(all(linalg.rank(phi[v], m.field) == d for v, d in enumerate(m.dims)) for phi in candidates)


def _summands(m, rng, splits):
    if all(d <= 1 for d in m.dims):
        return _thin_components(m)
    endos = hom_basis(m, m)
    if len(endos) == 1:
        return [_known_end(m, 1)]
    for k, phi in enumerate(hom_candidates(m, endos, rng)):
        split = _fitting_split(m, phi)
        if split is not None:
            splits.append(k >= len(endos))
            return _summands(split[0], rng, splits) + _summands(split[1], rng, splits)
    return [_known_end(m, len(endos))]


def exhaustive_decompose(m, splits=None):
    """Simple summands split off as in `decompose`, then Fitting splits with the first
    candidate of each piece that splits; `splits` collects, per split, whether a
    combination (rather than a basis element) made it."""
    n, simples = (m, []) if all(d <= 1 for d in m.dims) else _split_simples(m)
    return _summands(n, random.Random(SEED), [] if splits is None else splits) + simples
