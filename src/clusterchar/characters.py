"""Cluster-category objects and the Caldero-Chapoton cluster character for T = kQ.

An object is a module plus multiplicities of shifted projectives P_i[1]; its
character is a sum over subdimension vectors of Grassmannian Euler
characteristics with exponents read off the (antisymmetrized) Euler form.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Sequence

from .errors import SubdimensionOutOfRange
from .laurent import LaurentPoly, monomial
from .quiver import Quiver, antisym_form_simple, et_map, euler_data, euler_form, vertex_vector
from .replab import (
    ReductionPool,
    Representation,
    generic_representation,
    grassmannian_euler,
    zero_representation,
)
from .seeds import certify, mix_seed


@dataclass(frozen=True)
class ClusterObject:
    """module ⊕ ⊕_i P_i[1]^{shifted[i]}."""

    module: Representation
    shifted: tuple[int, ...]

    def __post_init__(self):
        if len(self.shifted) != self.module.quiver.n:
            raise SubdimensionOutOfRange("shifted vector length must equal vertex count")
        if any(s < 0 for s in self.shifted):
            raise SubdimensionOutOfRange("shifted multiplicities must be nonnegative")

    @property
    def quiver(self) -> Quiver:
        return self.module.quiver

    def is_zero(self) -> bool:
        return self.module.is_zero() and all(s == 0 for s in self.shifted)

    def dimension_vector(self) -> tuple[int, ...]:
        """dim in the cluster category: dim(module) - E^{-t}·shifted."""
        back = et_map(self.quiver, self.shifted, inverse=True)
        return tuple(d - b for d, b in zip(self.module.dims, back))


def zero_object(q: Quiver) -> ClusterObject:
    return ClusterObject(zero_representation(q), (0,) * q.n)


def shifted_object(q: Quiver, shifted: Sequence[int]) -> ClusterObject:
    return ClusterObject(zero_representation(q), tuple(int(x) for x in shifted))


def cc_module(m: Representation, cap: int = 5_000_000) -> LaurentPoly:
    """The Caldero-Chapoton character of a module, by direct Grassmannian counting.

    X_M = sum_e chi(Gr_e(M)) prod_i x_i^{<S_i,e>_a - <S_i, dim M>}. One reduction
    pool (End dimension, good primes, reduced copies of M) serves every e.
    """
    q = m.quiver
    n = q.n
    d = m.dims
    out = LaurentPoly.zero(n)
    units = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
    base = [-euler_form(q, units[i], d) for i in range(n)]
    pool = ReductionPool(m)
    for e in product(*(range(di + 1) for di in d)):
        g = grassmannian_euler(m, e, cap=cap, pool=pool)
        if g.euler == 0:
            continue
        expo = tuple(base[i] + antisym_form_simple(q, i + 1, e) for i in range(n))
        out = out + LaurentPoly(n, {expo: g.euler})
    return out


def cc_object(x: ClusterObject, cap: int = 5_000_000) -> LaurentPoly:
    """cc_module(module) · prod_i x_i^{shifted[i]}."""
    return cc_module(x.module, cap=cap) * monomial(x.quiver.n, x.shifted)


def index_of(x: ClusterObject) -> tuple[int, ...]:
    """E^t·dim(module) - shifted."""
    return tuple(a - s for a, s in zip(et_map(x.quiver, x.module.dims), x.shifted))


def coindex_of(x: ClusterObject) -> tuple[int, ...]:
    """E·dim(module) - shifted."""
    ed = euler_data(x.quiver)
    n = x.quiver.n
    d = x.module.dims
    return tuple(sum(ed.E[i][j] * d[j] for j in range(n)) - x.shifted[i] for i in range(n))


def g_vector_of_index(q: Quiver, gamma: Sequence[int]) -> tuple[int, ...]:
    """C^{-1}·gamma = -E·E^{-t}·gamma (valid when the generic cone of gamma is a module)."""
    ed = euler_data(q)
    v = et_map(q, gamma, inverse=True)
    return tuple(-sum(ed.E[i][j] * v[j] for j in range(q.n)) for i in range(q.n))


def cc_generic(
    q: Quiver,
    alpha: Sequence[int],
    rng_seed: int = 0,
    bound: int = 10,
    retries: int = 8,
    cap: int = 5_000_000,
) -> LaurentPoly:
    """CC(alpha) for alpha >= 0: character of the certified generic representative.

    Five independently sampled representatives must give equal characters; the
    blocks of the first certified sample are the later samples' block plan.
    """
    alpha = vertex_vector(q, alpha, "alpha")
    plan: list[tuple[int, ...]] = []  # lives for this value only

    def draw(attempt: int, s: int) -> LaurentPoly:
        m, _ = generic_representation(q, alpha, rng_seed=mix_seed(rng_seed, attempt, s), bound=bound, plan=plan)
        return cc_module(m, cap=cap)

    return certify(draw, retries, f"CC({alpha})")
