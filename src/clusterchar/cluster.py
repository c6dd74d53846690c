"""Cluster seeds, matrix/seed mutation, and finite-type enumeration."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from .errors import BadVertex, NotFiniteType
from .laurent import LaurentPoly, denominator_vector, exact_divide, monomial, product
from .quiver import Quiver, euler_data, is_dynkin

IntMatrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Seed:
    """Exchange matrix plus an ordered cluster of Laurent polynomials."""

    b: IntMatrix
    cluster: tuple[LaurentPoly, ...]

    def cluster_key(self) -> frozenset[LaurentPoly]:
        """Identity of the unordered cluster."""
        return frozenset(self.cluster)


def exchange_matrix(q: Quiver) -> IntMatrix:
    """B = E^t - E: b_ij = #arrows i -> j - #arrows j -> i."""
    e = euler_data(q).E
    return tuple(tuple(y - x for x, y in zip(row, col)) for row, col in zip(e, zip(*e)))


def initial_seed(q: Quiver) -> Seed:
    n = q.n
    cluster = tuple(monomial(n, tuple(1 if k == i else 0 for k in range(n))) for i in range(n))
    return Seed(b=exchange_matrix(q), cluster=cluster)


def mutate_matrix(b: IntMatrix, k: int) -> IntMatrix:
    """Standard matrix mutation at vertex k (1-based)."""
    n = len(b)
    i0 = k - 1
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == i0 or j == i0:
                row.append(-b[i][j])
            else:
                row.append(
                    b[i][j]
                    + max(b[i][i0], 0) * max(b[i0][j], 0)
                    - max(-b[i][i0], 0) * max(-b[i0][j], 0)
                )
        out.append(tuple(row))
    return tuple(out)


def mutate_seed(s: Seed, k: int) -> Seed:
    """Exchange x_k and mutate B; the division must be exact (Laurent phenomenon)."""
    n = len(s.b)
    if not (1 <= k <= n):
        raise BadVertex(f"vertex {k} out of range 1..{n}")
    i0 = k - 1
    plus = [s.cluster[i] ** s.b[i][i0] for i in range(n) if s.b[i][i0] > 0]
    minus = [s.cluster[i] ** -s.b[i][i0] for i in range(n) if s.b[i][i0] < 0]
    nvars = s.cluster[0].nvars
    new_var = exact_divide(product(plus, nvars) + product(minus, nvars), s.cluster[i0])
    cluster = tuple(new_var if i == i0 else s.cluster[i] for i in range(n))
    return Seed(b=mutate_matrix(s.b, k), cluster=cluster)


@dataclass
class EnumerationResult:
    seeds: list[Seed]
    variables: list[LaurentPoly]
    closed: bool

    def to_json(self) -> dict:
        return {
            "clusters": len(self.seeds),
            "variables": len(self.variables),
            "closed": self.closed,
            "variables_list": [v.to_json() for v in self.variables],
        }


def enumerate_seeds(q: Quiver, limit: int = 20000) -> EnumerationResult:
    """Breadth-first mutation closure, deduplicating seeds as unordered clusters.

    Every produced variable is checked to be a genuine Laurent polynomial (its
    denominator is a monomial by construction of the exact division). The
    variables come back sorted by their canonical text. At most `limit` seeds
    are kept: when the closure needs one more, it stops with closed False. A
    limit below 1 raises ValueError, since the initial seed is always kept.

    Each exchange x_k -> x_k' crosses an edge of the exchange graph. Its far end,
    keyed by the other n - 1 variables and x_k', is recorded, and the seed kept
    for the new cluster skips the mutation there, so each edge costs one exact
    division. Mutation is an involution, so that mutation would lead back to
    the cluster it came from, which is kept. This rests on what keeping one
    seed per unordered cluster already rests on: a cluster determines its seed
    up to the order of its variables.
    """
    if limit < 1:
        raise ValueError(f"limit must be a positive integer, got {limit}")
    start = initial_seed(q)
    seen: dict[frozenset[LaurentPoly], Seed] = {start.cluster_key(): start}
    queue = deque([start])
    crossed: set[tuple[frozenset[LaurentPoly], LaurentPoly]] = set()
    closed = True
    while queue and closed:
        seed = queue.popleft()
        for k in range(1, q.n + 1):
            others = frozenset(seed.cluster[: k - 1] + seed.cluster[k:])
            if (others, seed.cluster[k - 1]) in crossed:
                continue
            new = mutate_seed(seed, k)
            crossed.add((others, new.cluster[k - 1]))
            ck = new.cluster_key()
            if ck in seen:
                continue
            if len(seen) == limit:
                closed = False
                break
            seen[ck] = new
            queue.append(new)
    variables = {v for seed in seen.values() for v in seed.cluster}
    for v in variables:
        denominator_vector(v)  # asserts v != 0; monomial denominator by construction
    return EnumerationResult(
        seeds=list(seen.values()),
        variables=sorted(variables, key=LaurentPoly.to_text),
        closed=closed,
    )


@lru_cache(maxsize=64)
def _cluster_monomials(q: Quiver, degree_bound: int) -> dict[LaurentPoly, None]:
    """The distinct cluster monomials of degree <= degree_bound, each built once.

    A monomial is a multiset of compatible cluster variables, written as a sorted
    tuple of variable indices; its value is the value of the multiset without
    its last index, times that variable. The memoized dict is shared, so callers
    only read it.
    """
    if not is_dynkin(q):
        raise NotFiniteType(f"quiver {q.key()} is not Dynkin, so its cluster type is infinite")
    enum = enumerate_seeds(q)
    if not enum.closed:
        raise NotFiniteType(f"mutation closure of {q.key()} exceeded the seed limit")
    index = {v: i for i, v in enumerate(enum.variables)}
    built: dict[tuple[int, ...], LaurentPoly] = {(): LaurentPoly.one(q.n)} if degree_bound >= 0 else {}
    for seed in enum.seeds:
        cluster = sorted(index[v] for v in seed.cluster)
        for degree in range(1, degree_bound + 1):
            for multiset in combinations_with_replacement(cluster, degree):
                if multiset not in built:
                    built[multiset] = built[multiset[:-1]] * enum.variables[multiset[-1]]
    return dict.fromkeys(built.values())


def cluster_monomials_up_to(q: Quiver, degree_bound: int) -> list[LaurentPoly]:
    """All cluster monomials of total degree <= degree_bound, each once (finite type only).

    An acyclic quiver has finite cluster type iff it is Dynkin (Fomin-Zelevinsky),
    so any other quiver raises NotFiniteType at once. The list is a fresh copy.
    """
    return list(_cluster_monomials(q, degree_bound))


def is_cluster_monomial(q: Quiver, p: LaurentPoly, degree_bound: int) -> bool:
    """Whether p equals a cluster monomial of total degree <= degree_bound (finite type only)."""
    return p in _cluster_monomials(q, degree_bound)
