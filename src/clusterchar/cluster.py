"""Cluster seeds, matrix/seed mutation, and finite-type enumeration."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from .errors import BadVertex, NotFiniteType
from .laurent import LaurentPoly, canonical_serialize, denominator_vector, exact_divide, monomial
from .quiver import Quiver, is_dynkin

IntMatrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Seed:
    """Exchange matrix plus an ordered cluster of Laurent polynomials."""

    b: IntMatrix
    cluster: tuple[LaurentPoly, ...]

    def cluster_key(self) -> tuple[bytes, ...]:
        """Canonical identity of the unordered cluster."""
        return tuple(sorted(canonical_serialize(c) for c in self.cluster))


def exchange_matrix(q: Quiver) -> IntMatrix:
    b = [[0] * q.n for _ in range(q.n)]
    for s, t in q.arrows:
        b[s - 1][t - 1] += 1
        b[t - 1][s - 1] -= 1
    return tuple(tuple(row) for row in b)


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
    plus = LaurentPoly.one(s.cluster[0].nvars)
    minus = LaurentPoly.one(s.cluster[0].nvars)
    for i in range(n):
        bik = s.b[i][i0]
        if bik > 0:
            plus = plus * s.cluster[i] ** bik
        elif bik < 0:
            minus = minus * s.cluster[i] ** (-bik)
    new_var = exact_divide(plus + minus, s.cluster[i0])
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
    denominator is a monomial by construction of the exact division).
    """
    start = initial_seed(q)
    seen: dict[tuple[bytes, ...], Seed] = {start.cluster_key(): start}
    variables: dict[bytes, LaurentPoly] = {canonical_serialize(v): v for v in start.cluster}
    queue = deque([start])
    closed = True
    while queue:
        if len(seen) > limit:
            closed = False
            break
        seed = queue.popleft()
        for k in range(1, q.n + 1):
            new = mutate_seed(seed, k)
            for v in new.cluster:
                key = canonical_serialize(v)
                if key not in variables:
                    denominator_vector(v)  # asserts v != 0; monomial denominator by construction
                    variables[key] = v
            ck = new.cluster_key()
            if ck not in seen:
                seen[ck] = new
                queue.append(new)
    return EnumerationResult(
        seeds=list(seen.values()),
        variables=[variables[k] for k in sorted(variables)],
        closed=closed,
    )


_MONOMIAL_CACHE: dict[tuple[str, int, int], dict[bytes, LaurentPoly]] = {}


def cluster_monomials_up_to(q: Quiver, degree_bound: int, limit: int = 20000) -> list[LaurentPoly]:
    """All cluster monomials of total degree <= degree_bound (finite type only).

    An acyclic quiver has finite cluster type iff it is Dynkin (Fomin-Zelevinsky),
    so any other quiver raises NotFiniteType at once; `limit` bounds the mutation
    closure of a Dynkin one.
    """
    key = (q.key(), degree_bound, limit)
    if key not in _MONOMIAL_CACHE:
        if not is_dynkin(q):
            raise NotFiniteType(f"quiver {q.key()} is not Dynkin, so its cluster type is infinite")
        enum = enumerate_seeds(q, limit=limit)
        if not enum.closed:
            raise NotFiniteType(f"mutation closure exceeded {limit} seeds")
        out: dict[bytes, LaurentPoly] = {}
        for seed in enum.seeds:
            for expo in _compositions(q.n, degree_bound):
                mono = LaurentPoly.one(q.n)
                for c, a in zip(seed.cluster, expo):
                    if a:
                        mono = mono * c ** a
                out.setdefault(canonical_serialize(mono), mono)
        _MONOMIAL_CACHE[key] = out
    return list(_MONOMIAL_CACHE[key].values())


def _compositions(n: int, bound: int):
    """All a in Z_{>=0}^n with sum(a) <= bound."""
    if n == 0:
        yield ()
        return
    for head in range(bound + 1):
        for tail in _compositions(n - 1, bound - head):
            yield (head,) + tail


def is_cluster_monomial(q: Quiver, p: LaurentPoly, degree_bound: int, limit: int = 20000) -> bool:
    cluster_monomials_up_to(q, degree_bound, limit=limit)
    key = (q.key(), degree_bound, limit)
    return canonical_serialize(p) in _MONOMIAL_CACHE[key]
