"""Quivers, the Euler form, Coxeter matrix, and positive roots.

Conventions: vertices are 1-based and dense; the Euler matrix is E = I - A with
A[i][j] = #arrows i->j, so <d,e> = d^t E e = sum_i d_i e_i - sum_{a:i->j} d_i e_j.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import (
    BadVertexIndex,
    CycleFound,
    DimensionMismatch,
    LoopFound,
    NotDynkin,
    ParseError,
    SubdimensionOutOfRange,
    TwoCycleFound,
)

IntMatrix = tuple[tuple[int, ...], ...]
IntVector = tuple[int, ...]


@dataclass(frozen=True)
class Quiver:
    """A finite acyclic quiver without loops or 2-cycles."""

    n: int
    arrows: tuple[tuple[int, int], ...]

    def topological_order(self) -> tuple[int, ...]:
        return _topological_order(self.n, self.arrows)

    def paths(self, i: int, j: int) -> list[tuple[int, ...]]:
        """All paths from i to j as tuples of arrow indices, in a canonical DFS order.

        The trivial path at i is the empty tuple (returned when i == j).
        """
        return list(_paths(self.n, self.arrows, i, j))

    def to_dict(self) -> dict:
        return {"n": self.n, "arrows": [list(a) for a in self.arrows]}

    def to_text(self) -> str:
        lines = [str(self.n)] + [f"{s} {t}" for s, t in self.arrows]
        return "\n".join(lines) + "\n"

    def key(self) -> str:
        """Deterministic identity string (used for hashing/caching)."""
        return f"{self.n};" + ",".join(f"{s}-{t}" for s, t in self.arrows)


@lru_cache(maxsize=4096)
def _paths(n: int, arrows: tuple[tuple[int, int], ...], i: int, j: int) -> tuple[tuple[int, ...], ...]:
    """`Quiver.paths`, memoized per (quiver, i, j); the method hands out a fresh list."""
    out: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for idx, (s, _) in enumerate(arrows):
        out[s].append(idx)
    result: list[tuple[int, ...]] = []

    def walk(v: int, acc: tuple[int, ...]) -> None:
        if v == j:
            result.append(acc)
        for idx in out[v]:
            walk(arrows[idx][1], acc + (idx,))

    walk(i, ())
    return tuple(result)


@lru_cache(maxsize=256)
def _topological_order(n: int, arrows: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    indeg = [0] * (n + 1)
    out: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for s, t in arrows:
        indeg[t] += 1
        out[s].append(t)
    ready = sorted(v for v in range(1, n + 1) if indeg[v] == 0)
    order: list[int] = []
    while ready:
        v = ready.pop(0)
        order.append(v)
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                # keep the scan deterministic
                k = 0
                while k < len(ready) and ready[k] < w:
                    k += 1
                ready.insert(k, w)
    if len(order) != n:
        raise CycleFound(f"quiver contains a directed cycle among {sorted(set(range(1, n + 1)) - set(order))}")
    return tuple(order)


def validate_quiver(n: int, arrows: Iterable[Sequence[int]]) -> Quiver:
    """Validate raw data into a Quiver; raises LoopFound/TwoCycleFound/CycleFound/BadVertexIndex."""
    if not isinstance(n, int) or n < 1:
        raise BadVertexIndex(f"vertex count must be a positive integer, got {n!r}")
    arrow_list: list[tuple[int, int]] = []
    for a in arrows:
        s, t = operator.index(a[0]), operator.index(a[1])
        if not (1 <= s <= n) or not (1 <= t <= n):
            raise BadVertexIndex(f"arrow ({s},{t}) out of range 1..{n}")
        if s == t:
            raise LoopFound(f"loop at vertex {s}")
        arrow_list.append((s, t))
    pairs = {(s, t) for s, t in arrow_list}
    for s, t in arrow_list:
        if (t, s) in pairs:
            raise TwoCycleFound(f"2-cycle between {s} and {t}")
    arrow_tuple = tuple(arrow_list)
    _topological_order(n, arrow_tuple)
    return Quiver(n=n, arrows=arrow_tuple)


def quiver_from_dict(data: dict) -> Quiver:
    """The inverse of `Quiver.to_dict`; malformed data raises ParseError."""
    try:
        return validate_quiver(operator.index(data["n"]), data["arrows"])
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ParseError(f"bad quiver data ({type(exc).__name__}: {exc})") from exc


def quiver_from_text(text: str) -> Quiver:
    lines = [ln.split("#")[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise BadVertexIndex("empty quiver description")
    arrows = []
    try:
        n = int(lines[0])
        for ln in lines[1:]:
            parts = ln.split()
            if len(parts) != 2:
                raise BadVertexIndex(f"bad arrow line: {ln!r}")
            arrows.append((int(parts[0]), int(parts[1])))
    except ValueError as exc:
        raise ParseError(f"bad quiver text ({exc})") from exc
    return validate_quiver(n, arrows)


@dataclass(frozen=True)
class EulerData:
    """Euler matrix E, Coxeter matrix C = -E^t E^{-1}, and the exact inverses of E, E^t."""

    E: IntMatrix
    C: IntMatrix
    Einv: IntMatrix
    Etinv: IntMatrix


def euler_matrix(q: Quiver) -> EulerData:
    """E = I - A and C = -E^t·E^{-1}. A is nilpotent on an acyclic quiver, so
    E^{-1} = sum_k A^k: its (i, j) entry is the number of paths i -> j."""
    n = q.n
    e = tuple(tuple(int(i == j) - q.arrows.count((i, j)) for j in range(1, n + 1)) for i in range(1, n + 1))
    einv = tuple(tuple(len(q.paths(i, j)) for j in range(1, n + 1)) for i in range(1, n + 1))
    et, etinv = tuple(zip(*e)), tuple(zip(*einv))
    c = tuple(tuple(-sum(map(operator.mul, row, col)) for col in etinv) for row in et)
    return EulerData(E=e, C=c, Einv=einv, Etinv=etinv)


@lru_cache(maxsize=64)
def euler_data(q: Quiver) -> EulerData:
    """The Euler data of q, computed once per quiver."""
    return euler_matrix(q)


def integer_vector(v: Sequence[int], what: str = "vector") -> IntVector:
    """v as a tuple of ints; a float or Fraction entry raises rather than being truncated."""
    try:
        return tuple(map(operator.index, v))
    except TypeError:
        raise SubdimensionOutOfRange(f"{what} must have integer entries, got {tuple(v)}") from None


def vertex_vector(q: Quiver, v: Sequence[int], what: str = "vector") -> IntVector:
    """v as a tuple of ints (`integer_vector`) with one entry per vertex of q."""
    out = integer_vector(v, what)
    if len(out) != q.n:
        raise SubdimensionOutOfRange(f"{what} must have length {q.n}, got {len(out)}")
    return out


def et_map(q: Quiver, v: Sequence[int], inverse: bool = False) -> IntVector:
    """E^t·v, the index of a module of dimension vector v; E^{-t}·v when inverse."""
    v = vertex_vector(q, v)
    if inverse:
        etinv = euler_data(q).Etinv
        return tuple(sum(etinv[i][j] * v[j] for j in range(q.n)) for i in range(q.n))
    out = list(v)  # E = I - A: (E^t·v)_t = v_t - sum over arrows s -> t of v_s
    for s, t in q.arrows:
        out[t - 1] -= v[s - 1]
    return tuple(out)


def euler_form(q: Quiver, d: Sequence[int], e: Sequence[int]) -> int:
    """<d,e> = dim Hom - dim Ext^1 on dimension vectors."""
    if len(d) != q.n or len(e) != q.n:
        raise DimensionMismatch(f"expected vectors of length {q.n}")
    val = sum(d[i] * e[i] for i in range(q.n))
    for s, t in q.arrows:
        val -= d[s - 1] * e[t - 1]
    return val


def antisym_form_simple(q: Quiver, i: int, e: Sequence[int]) -> int:
    """<alpha_i, e> - <e, alpha_i> for the i-th unit vector."""
    if not (1 <= i <= q.n):
        raise DimensionMismatch(f"vertex {i} out of range 1..{q.n}")
    if len(e) != q.n:
        raise DimensionMismatch(f"expected vector of length {q.n}")
    unit = tuple(1 if k == i - 1 else 0 for k in range(q.n))
    return euler_form(q, unit, e) - euler_form(q, e, unit)


def _symmetrized(q: Quiver) -> IntMatrix:
    """E + E^t, the matrix of the symmetrized Euler form."""
    e = euler_data(q).E
    return tuple(tuple(x + y for x, y in zip(row, col)) for row, col in zip(e, zip(*e)))


def is_dynkin(q: Quiver) -> bool:
    """True iff the symmetrized Euler form is positive definite (ADE unions).

    Sylvester's criterion in one elimination without row swaps: the k-th pivot is
    the k-th leading principal minor over the (k-1)-th, so all leading minors are
    positive iff every pivot is; the elimination stops at the first that is not.
    """
    m = [[Fraction(x) for x in row] for row in _symmetrized(q)]
    for col in range(q.n):
        piv = m[col][col]
        if piv <= 0:
            return False
        for r in range(col + 1, q.n):
            f = m[r][col] / piv
            m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return True


def positive_roots(q: Quiver) -> tuple[IntVector, ...]:
    """All positive roots of a Dynkin quiver, in lexicographic order.

    Computed as the closure of the unit vectors under the simple reflections of
    the symmetrized form.
    """
    if not is_dynkin(q):
        raise NotDynkin("underlying graph is not a simply-laced Dynkin diagram")
    n = q.n
    s = _symmetrized(q)
    units = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
    seen: set[IntVector] = set(units)
    frontier = list(units)
    while frontier:
        v = frontier.pop()
        for i in range(n):
            pairing = sum(s[i][k] * v[k] for k in range(n))
            w = tuple(v[k] - (pairing if k == i else 0) for k in range(n))
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    pos = sorted(v for v in seen if all(x >= 0 for x in v) and any(x > 0 for x in v))
    return tuple(pos)
