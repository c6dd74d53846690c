"""Named verification suites: exact reproductions of the theorem-level checks.

Each suite returns a SuiteReport with one CaseResult per checked instance; the
CLI `verify` subcommand and the acceptance tests both run these.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import product
from typing import Callable

from .characters import cc_generic, g_vector_of_index
from .cluster import cluster_monomials_up_to, initial_seed, is_cluster_monomial, mutate_seed
from .config import RunConfig
from .errors import ClusterCharError, GenericityUncertified
from .generic import (
    CharacterCache,
    check_multiplicativity,
    generic_character,
    stability_check,
    virtual_generic_decomposition,
)
from .laurent import LaurentPoly, denominator_vector
from .quiver import Quiver, et_map, euler_data
from .replab import injective_representation, projective_representation
from .seeds import mix_seed

A3_KEY = "3;1-2,2-3"
KRONECKER_KEY = "2;1-2,1-2"
SUITE_COUNT = 50  # instances checked by multiplicativity and by stability


@dataclass
class CaseResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class SuiteReport:
    suite: str
    quiver: str
    cases: list[CaseResult] = field(default_factory=list)

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.cases.append(CaseResult(name, passed, detail))

    def check(self, name: str, run: Callable[[], tuple[bool, str]]) -> None:
        """Add the case (passed, detail) = run(); a ClusterCharError fails it with its name and message."""
        try:
            passed, detail = run()
        except ClusterCharError as exc:
            passed, detail = False, f"{exc.name}: {exc}"
        self.add(name, passed, detail)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    def summary(self) -> str:
        good = sum(1 for c in self.cases if c.passed)
        total = len(self.cases)
        return f"PASS {good}/{total}" if good == total else f"FAIL {good}/{total}"

    def lines(self) -> list[str]:
        out = []
        for c in self.cases:
            mark = "ok  " if c.passed else "FAIL"
            detail = f": {c.detail}" if c.detail and not c.passed else ""
            out.append(f"{mark} {c.name}{detail}")
        out.append(self.summary())
        return out

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "quiver": self.quiver,
            "passed": self.passed,
            "summary": self.summary(),
            "cases": [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in self.cases],
        }


def _character(q: Quiver, gamma: tuple[int, ...], config: RunConfig, cache: CharacterCache) -> LaurentPoly:
    """X(gamma) with the run's seed, sample bound, retries and enumeration cap."""
    return generic_character(q, gamma, rng_seed=config.rng_seed, cache=cache, **config.library_kwargs())


def suite_finite_type_equality(q: Quiver, config: RunConfig) -> SuiteReport:
    """X(gamma) over the index box [-2,2]^n: all cluster monomials, injectively,
    and every cluster monomial of degree <= 2 is hit.

    On a quiver of infinite cluster type the suite is one FAIL case, found
    before any character is sampled.
    """
    report = SuiteReport("finite-type-equality", q.key())
    try:
        monomials = cluster_monomials_up_to(q, 2)
    except ClusterCharError as exc:
        report.add("cluster monomials of degree <= 2", False, f"{exc.name}: {exc}")
        return report
    cache = CharacterCache(config.cache_path)
    degree_bound = 2 * q.n  # max summand count over the box (2n at gamma = ±2·(1,…,1))
    box = sorted(product(range(-2, 3), repeat=q.n))
    values: dict[tuple[int, ...], LaurentPoly] = {}

    def member(gamma: tuple[int, ...]) -> tuple[bool, str]:
        x = values[gamma] = _character(q, gamma, config, cache)
        return is_cluster_monomial(q, x, degree_bound), x.to_text()

    for gamma in box:
        report.check(f"X{gamma} is a cluster monomial", lambda: member(gamma))
    image = set(values.values())
    report.add(
        f"gamma -> X(gamma) injective on the box ({len(image)}/{len(box)})",
        len(image) == len(box) == len(values),
    )
    missing = [m.to_text() for m in monomials if m not in image]
    report.add(
        "every cluster monomial of degree <= 2 arises in the box",
        not missing,
        "missing: " + ", ".join(missing[:4]) if missing else "",
    )
    return report


def suite_monomial_containment(q: Quiver, config: RunConfig) -> SuiteReport:
    """Kronecker rigid indecomposables: X(ind) equals an explicitly mutated variable.

    The variables are those of the first three steps of the two alternating
    mutation chains from the initial seed, 1, 2, 1 and 2, 1, 2. The variable made
    at a step is X_M for the rigid indecomposable M whose dimension vector is its
    denominator vector beta (Caldero-Keller), so it must equal X(E^t·beta).
    """
    report = SuiteReport("monomial-containment", q.key())
    if q.key() != KRONECKER_KEY:
        report.add("quiver is the Kronecker quiver (two arrows 1->2)", False, q.key())
        return report
    cache = CharacterCache(config.cache_path)

    def equals(gamma: tuple[int, ...], variable: LaurentPoly) -> tuple[bool, str]:
        x = _character(q, gamma, config, cache)
        return x == variable, x.to_text()

    init = initial_seed(q)
    for first in (1, 2):
        seed, seq = init, []
        for k in (first, 3 - first, first):
            seed = mutate_seed(seed, k)
            seq.append(k)
            variable = seed.cluster[k - 1]
            beta = denominator_vector(variable)
            report.check(f"X(ind {beta}) = mutation {seq} variable", lambda: equals(et_map(q, beta), variable))
    for i in (1, 2):
        gamma = tuple(-1 if k == i - 1 else 0 for k in range(2))
        report.check(f"X(P_{i}[1]) = x{i}", lambda: equals(gamma, init.cluster[i - 1]))
    return report


def suite_multiplicativity(q: Quiver, config: RunConfig) -> SuiteReport:
    """50 pseudo-random alpha in [-3,3]^n: X(E^t a) = prod X(E^t b_i) · X(-gamma)."""
    report = SuiteReport("multiplicativity", q.key())
    cache = CharacterCache(config.cache_path)
    rng = random.Random(mix_seed(config.rng_seed, 41, q.n, len(q.arrows)))
    settings = config.library_kwargs()

    def multiplicative(alpha: tuple[int, ...], index: int) -> tuple[bool, str]:
        r = check_multiplicativity(q, alpha, rng_seed=mix_seed(config.rng_seed, 43, index), cache=cache, **settings)
        return r.equal, f"betas={r.betas} shift={r.gamma_shift}"

    for index in range(SUITE_COUNT):
        alpha = tuple(rng.randint(-3, 3) for _ in range(q.n))
        report.check(f"alpha={alpha}", lambda: multiplicative(alpha, index))
    return report


def suite_cc_agreement(q: Quiver, config: RunConfig) -> SuiteReport:
    """X(E^t alpha) (cone path) equals CC(alpha) (direct sampling) on [0,2]^n."""
    report = SuiteReport("cc-agreement", q.key())
    cache = CharacterCache(config.cache_path)

    def agree(alpha: tuple[int, ...]) -> tuple[bool, str]:
        lhs = _character(q, et_map(q, alpha), config, cache)
        rhs = cc_generic(q, alpha, rng_seed=mix_seed(config.rng_seed, 47), **config.library_kwargs())
        return lhs == rhs, lhs.to_text()

    for alpha in sorted(product(range(3), repeat=q.n)):
        report.check(f"alpha={alpha}", lambda: agree(alpha))
    return report


def suite_denominators(q: Quiver, config: RunConfig) -> SuiteReport:
    """denominator_vector(CC(alpha)) = alpha on [0,2]^n."""
    report = SuiteReport("denominators", q.key())

    def denominator(alpha: tuple[int, ...]) -> tuple[bool, str]:
        value = cc_generic(q, alpha, rng_seed=mix_seed(config.rng_seed, 53), **config.library_kwargs())
        d = denominator_vector(value)
        return d == alpha, f"denominator {d}"

    for alpha in sorted(product(range(3), repeat=q.n)):
        report.check(f"alpha={alpha}", lambda: denominator(alpha))
    return report


def suite_gvectors(q: Quiver, config: RunConfig) -> SuiteReport:
    """Module cones from the criterion boxes: index = gamma = E^t dim, C·(-coindex) = index.

    The cone of gamma is the certified virtual generic decomposition of alpha = E^{-t}·gamma.
    A module cone has shifted part 0, so alpha = sum(betas) >= 0: an index whose alpha
    has a negative entry is not sampled, and for alpha >= 0 the certified cone has no
    shifted part.

    Both identities hold by construction for a certified cone with alpha >= 0: its
    betas sum to alpha, so ind = E^t·dim = E^t·alpha = gamma, and C·g = E^t·E^{-1}·E·dim
    = E^t·dim = gamma. So a gvectors case can fail only by not certifying. A real
    check, such as X(gamma) holding x^{-gamma} and x^g with coefficient 1, would
    change the four gvectors goldens and is left open."""
    report = SuiteReport("gvectors", q.key())
    ed = euler_data(q)
    n = q.n
    indices = set(product(range(-2, 3), repeat=n)) | {et_map(q, a) for a in product(range(3), repeat=n)}
    module_cones = 0
    for gamma in sorted(indices):
        alpha = et_map(q, gamma, inverse=True)
        if any(x < 0 for x in alpha):
            continue  # not a module cone
        try:
            betas, _ = virtual_generic_decomposition(
                q, alpha, rng_seed=mix_seed(config.rng_seed, 59), **config.library_kwargs(cap=False)
            )
        except ClusterCharError as exc:
            report.add(f"gamma={gamma} cone", False, f"{exc.name}: {exc}")
            continue
        module_cones += 1
        dim = [sum(b[i] for b in betas) for i in range(n)]
        idx = et_map(q, dim)
        g = g_vector_of_index(q, idx)  # minus the coindex E·dim
        cg = tuple(sum(ed.C[i][j] * g[j] for j in range(n)) for i in range(n))
        report.add(
            f"gamma={gamma}: ind = E^t·dim = gamma and C·g = gamma",
            idx == gamma and cg == gamma,
            f"ind={idx} C·g={cg}",
        )
    report.add(f"module cones checked ({module_cones})", module_cones > 0)
    return report


def suite_stability(q: Quiver, config: RunConfig) -> SuiteReport:
    """Random (gamma, pad): the padded-space generic character equals X(gamma).

    A padded cone is one sampled map, not split into blocks. So when a rational
    sample shows the generic cone of gamma as a non-brick (Kronecker (2, -2): two
    regular bricks at the roots of a random quadratic), `stability_check` raises
    GenericityUncertified at its first agreeing attempt and the draw is replaced,
    as is any draw whose padded samples fail to certify. An actual stability
    violation would surface as an unequal certified value, never as a skip; a
    failed count is that case's named FAIL.
    """
    report = SuiteReport("stability", q.key())
    cache = CharacterCache(config.cache_path)
    rng = random.Random(mix_seed(config.rng_seed, 61, q.n, len(q.arrows)))
    checked = 0
    attempts = 0
    while checked < SUITE_COUNT and attempts < 40 * SUITE_COUNT:
        attempts += 1
        gamma = tuple(rng.randint(-2, 2) for _ in range(q.n))
        pad = tuple(rng.randint(0, 2) for _ in range(q.n))
        seed = mix_seed(config.rng_seed, 71, attempts)
        try:
            r = stability_check(q, gamma, pad, rng_seed=seed, cache=cache, **config.library_kwargs())
            passed, detail = r.equal, r.minimal.to_text()
        except GenericityUncertified:
            continue
        except ClusterCharError as exc:
            passed, detail = False, f"{exc.name}: {exc}"
        checked += 1
        report.add(f"gamma={gamma} pad={pad}", passed, detail)
    report.add(f"checked {checked} instances", checked >= SUITE_COUNT)
    return report


def suite_cone_table_a3(q: Quiver, config: RunConfig) -> SuiteReport:
    """Generic cones of P_3^a -> P_1^c on A3: I_2^min(a,c) ⊕ P_1^{c-a} ⊕ P_3^{a-c}[1].

    The virtual generic decomposition of E^{-t}·(c, 0, -a) certifies the cone (brick parts
    without Ext between them, disjoint shifted support, indices adding up); its part
    dimensions and shifted part are compared with the table.
    """
    report = SuiteReport("cone-table-a3", q.key())
    if q.key() != A3_KEY:
        report.add("quiver is A3 (1->2->3)", False, q.key())
        return report
    i2 = injective_representation(q, 2).dims
    p1 = projective_representation(q, 1).dims

    def cone(a: int, c: int) -> tuple[bool, str]:
        alpha = et_map(q, (c, 0, -a), inverse=True)
        parts, shifted = virtual_generic_decomposition(
            q, alpha, rng_seed=mix_seed(config.rng_seed, 73, a, c), **config.library_kwargs(cap=False)
        )
        want = sorted([i2] * min(a, c) + [p1] * max(0, c - a))
        return parts == want and shifted == (0, 0, max(0, a - c)), f"parts={parts} shifted={shifted}"

    for a in (1, 2, 3):
        for c in (1, 2, 3):
            report.check(f"P3^{a} -> P1^{c}", lambda: cone(a, c))
    return report


SUITES: dict[str, Callable[[Quiver, RunConfig], SuiteReport]] = {
    "monomial-containment": suite_monomial_containment,
    "finite-type-equality": suite_finite_type_equality,
    "multiplicativity": suite_multiplicativity,
    "cc-agreement": suite_cc_agreement,
    "denominators": suite_denominators,
    "gvectors": suite_gvectors,
    "stability": suite_stability,
    "cone-table-a3": suite_cone_table_a3,
}


def run_suite(name: str, q: Quiver, config: RunConfig) -> SuiteReport:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](q, config)
