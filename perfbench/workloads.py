"""Workloads of the clusterchar benchmark: their operations and correctness checks.

An operation ("op") is one call into the public clusterchar API, or, where
noted, one call followed by the call whose answer its check compares it with
(CC then X, X then cluster-monomial membership). The set of
ops and the sampling seed handed to the library are fixed, so that every
workload seed does the same work and no op fails at any seed; the workload
seed shuffles the order of the ops, except on kronecker-frontier (see there).
Each workload's `check` tests the ops' outputs against identities that hold
whatever the seed, and returns one (op key, reason) pair per wrong output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Callable

import clusterchar as cc
from clusterchar.config import RunConfig
from clusterchar.seeds import mix_seed

# The sampling seed of a default CLI run; every op below certifies at it.
RNG_SEED = RunConfig().rng_seed


@dataclass
class Op:
    key: str
    fn: Callable[[], object]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    check: Callable[[dict[str, object]], list[tuple[str, str]]]
    cleanup: Callable[[], None] = lambda: None


def load_quiver(root: Path, name: str) -> cc.Quiver:
    return cc.quiver_from_text((root / "quivers" / f"{name}.quiver").read_text(encoding="utf-8"))


def et(q: cc.Quiver, v) -> tuple[int, ...]:
    """E^t·v with E = I - A: the index of a module of dimension vector v."""
    out = list(v)
    for s, t in q.arrows:
        out[t - 1] -= v[s - 1]
    return tuple(out)


def box(n: int, lo: int, hi: int) -> list[tuple[int, ...]]:
    return sorted(product(range(lo, hi + 1), repeat=n))


def shuffled(ops: list[Op], name: str, seed: int) -> list[Op]:
    out = list(ops)
    random.Random(f"{name}/{seed}").shuffle(out)
    return out


def x_op(q, gamma, cache) -> Op:
    return Op(f"X{gamma}", lambda: cc.generic_character(q, gamma, rng_seed=RNG_SEED, cache=cache))


def cc_op(q, alpha, cache) -> Op:
    """CC(alpha) by direct sampling, then X(E^t alpha) from the shared cache or the cone."""
    def run():
        direct = cc.cc_generic(q, alpha, rng_seed=mix_seed(RNG_SEED, 47))
        return direct, cc.generic_character(q, et(q, alpha), rng_seed=RNG_SEED, cache=cache)

    return Op(f"CC{alpha}", run)


def member_op(q, gamma, degree, cache) -> Op:
    """X(gamma), then whether it is a cluster monomial of degree <= `degree`."""
    def run():
        x = cc.generic_character(q, gamma, rng_seed=RNG_SEED, cache=cache)
        return x, cc.is_cluster_monomial(q, x, degree)

    return Op(f"X{gamma}", run)


def check_cc(outputs, wrong) -> None:
    for key, out in outputs.items():
        if key.startswith("CC") and out[0] != out[1]:
            wrong.append((key, "CC(alpha) != X(E^t alpha)"))


def check_injective(values: dict[str, cc.LaurentPoly], wrong) -> None:
    """Distinct indices have distinct generic characters (they form a basis)."""
    seen: dict[bytes, str] = {}
    for key, x in values.items():
        other = seen.setdefault(cc.canonical_serialize(x), key)
        if other != key:
            wrong.append((key, f"same value as {other}"))


def check_finite_type(outputs, wrong) -> None:
    """Every X(gamma) is a cluster monomial, and gamma -> X(gamma) is injective."""
    values = {key: out[0] for key, out in outputs.items() if key.startswith("X")}
    for key, out in outputs.items():
        if key in values and not out[1]:
            wrong.append((key, "not a cluster monomial"))
    check_injective(values, wrong)


def check_monomials(q, monomials, key, wrong) -> None:
    """The list is free of repeats and holds 1 and the initial cluster variables."""
    forms = {cc.canonical_serialize(m) for m in monomials}
    if len(forms) != len(monomials):
        wrong.append((key, "repeated cluster monomial"))
    for seed_var in (cc.LaurentPoly.one(q.n),) + cc.initial_seed(q).cluster:
        if cc.canonical_serialize(seed_var) not in forms:
            wrong.append((key, f"missing {seed_var.to_text()}"))


def evaluate(p: cc.LaurentPoly, point: tuple[Fraction, ...]) -> Fraction:
    total = Fraction(0)
    for expo, coef in p.terms.items():
        term = Fraction(coef)
        for x, e in zip(point, expo):
            term *= x ** e
        total += term
    return total


def cluster_monomial_finder(clusters, max_degree: int):
    """A test of whether p = c_1^a_1 ... c_n^a_n for one of the clusters, with sum(a) <= max_degree.

    Candidates are screened by their value at a fixed rational point and then
    confirmed by exact multiplication, so only matching products are expanded.
    """
    n = len(clusters[0])
    point = tuple(Fraction(k + 2, 2 * k + 3) for k in range(n))
    values = [tuple(evaluate(c, point) for c in cluster) for cluster in clusters]

    def find(p: cc.LaurentPoly):
        target = evaluate(p, point)
        for cluster, vals in zip(clusters, values):
            for expo in product(range(max_degree + 1), repeat=n):
                if sum(expo) > max_degree:
                    continue
                v = Fraction(1)
                for val, a in zip(vals, expo):
                    v *= val ** a
                if v != target:
                    continue
                mono = cc.LaurentPoly.one(n)
                for c, a in zip(cluster, expo):
                    mono = mono * c ** a
                if mono == p:
                    return expo
        return None

    return find


# --- kronecker-frontier ---

KRONECKER_SKIP = {(3, -2)}  # CapExceeded after about 34 s: a known failure, not measured
KRONECKER_FRONTIER = [(3, -4), (4, -4)]


def kronecker_frontier(root: Path, seed: int, scratch: Path) -> Workload:
    q = load_quiver(root, "kronecker")
    cache = cc.CharacterCache()
    gammas = [g for g in box(2, -3, 3) if g not in KRONECKER_SKIP] + KRONECKER_FRONTIER
    ops = [x_op(q, g, cache) for g in gammas] + [cc_op(q, a, cache) for a in box(2, 0, 2)]

    def check(outputs):
        wrong: list[tuple[str, str]] = []
        clusters = []
        for first in (1, 2):
            s = cc.initial_seed(q)
            clusters.append(s.cluster)
            for step in range(8):
                s = cc.mutate_seed(s, first if step % 2 == 0 else 3 - first)
                clusters.append(s.cluster)
        monomial = cluster_monomial_finder(clusters, max_degree=8)
        x11 = outputs.get("X(1, -1)")
        for g in gammas:
            key = f"X{g}"
            if key not in outputs:
                continue
            x = outputs[key]
            if g[0] > 0 and g[0] == -g[1]:
                if x11 is not None and x != x11 ** g[0]:
                    wrong.append((key, "X(k,-k) != X(1,-1)^k"))
            elif monomial(x) is None:
                wrong.append((key, "not a cluster monomial c0^a c1^b"))
        check_injective({k: x for k, x in outputs.items() if k.startswith("X")}, wrong)
        check_cc(outputs, wrong)
        return wrong

    # Fixed order: the order decides which op pays to fill the library's
    # subspace cache, which moved op_p50_s by a quarter between seeds.
    return Workload("kronecker-frontier", ops, check)


# --- d4-suites ---

MULT_ALPHAS = 44


def mult_alphas() -> list[tuple[int, ...]]:
    """A fixed list of alpha in [-3,3]^4, drawn once from the default sampling seed."""
    rng = random.Random(mix_seed(RNG_SEED, 41))
    out: list[tuple[int, ...]] = []
    while len(out) < MULT_ALPHAS:
        alpha = tuple(rng.randint(-3, 3) for _ in range(4))
        if alpha not in out:
            out.append(alpha)
    return out


def finite_type_ops(q, radius: int, cache):
    """The finite-type equality suite on the box [-radius, radius]^n.

    Returns the op that lists the cluster monomials, one op per index (X(gamma),
    then its membership), and the check of their outputs.
    """
    degree = radius * q.n  # the most summands an index in the box can have
    monomials = Op(f"monomials(degree={degree})", lambda: cc.cluster_monomials_up_to(q, degree))
    ops = [member_op(q, g, degree, cache) for g in box(q.n, -radius, radius)]

    def check(outputs, wrong) -> None:
        if monomials.key in outputs:
            check_monomials(q, outputs[monomials.key], monomials.key, wrong)
        check_finite_type(outputs, wrong)

    return monomials, ops, check


def d4_suites(root: Path, seed: int, scratch: Path) -> Workload:
    """Three suites on D4, as three command-line runs would make them.

    Multiplicativity and CC agreement share one in-memory cache, which they
    mostly read. The finite-type suite writes every value to a fresh cache file.
    """
    q = load_quiver(root, "d4")
    cache = cc.CharacterCache()
    ops = [Op(f"mult{alpha}", lambda a=alpha: cc.check_multiplicativity(q, a, rng_seed=RNG_SEED, cache=cache))
           for alpha in mult_alphas()]
    # CC(1,2,1,2), GenericityUncertified after about 2 s, is a known failure and not measured.
    ops += [cc_op(q, a, cache) for a in box(4, 0, 1)]
    path = scratch / f"cache-d4-suites-{seed}.json"
    path.unlink(missing_ok=True)
    monomials, member_ops, check_ft = finite_type_ops(q, 1, cc.CharacterCache(str(path)))

    def check(outputs):
        wrong = [(k, "X(E^t alpha) != prod X(E^t beta_i) X(-gamma)")
                 for k, r in outputs.items() if k.startswith("mult") and not r.equal]
        check_cc(outputs, wrong)
        check_ft(outputs, wrong)
        return wrong

    return Workload("d4-suites", [monomials] + shuffled(ops + member_ops, "d4-suites", seed), check,
                    lambda: path.unlink(missing_ok=True))


def a2_smoke(root: Path, seed: int, scratch: Path) -> Workload:
    """A few seconds on A2: the benchmark's own test of its output and checks."""
    q = load_quiver(root, "a2")
    cache = cc.CharacterCache()
    monomials, ops, check_ft = finite_type_ops(q, 2, cache)
    ops += [cc_op(q, a, cache) for a in box(2, 0, 2)]

    def check(outputs):
        wrong: list[tuple[str, str]] = []
        check_ft(outputs, wrong)
        check_cc(outputs, wrong)
        return wrong

    return Workload("a2-smoke", [monomials] + shuffled(ops, "a2-smoke", seed), check)


WORKLOADS = {
    "kronecker-frontier": kronecker_frontier,
    "d4-suites": d4_suites,
    "a2-smoke": a2_smoke,
}
