"""Cluster-category objects and the Caldero-Chapoton cluster character for T = kQ.

An object is a module plus multiplicities of shifted projectives P_i[1]; its
character is a sum over subdimension vectors of Grassmannian Euler
characteristics with exponents read off the (antisymmetrized) Euler form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import comb, prod
from operator import mul
from typing import Mapping, Sequence

from .errors import FieldMismatch, SubdimensionOutOfRange
from .laurent import LaurentPoly, monomial
from .linalg import QQ
from .quiver import Quiver, et_map, euler_data, vertex_vector
from .replab import (
    BlockPlan,
    ReductionPool,
    Representation,
    entry_representation,
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
    return ClusterObject(zero_representation(q), vertex_vector(q, shifted, "shifted part"))


def _character(q: Quiver, d: Sequence[int], chis: Mapping[tuple[int, ...], int]) -> LaurentPoly:
    """sum_e chis[e] prod_i x_i^{<S_i,e>_a - <S_i, d>}, for the Euler characteristics chi(Gr_e).

    <S_i, d> = d_i - sum over arrows i -> t of d_t, and <S_i,e>_a = <S_i,e> - <e,S_i> =
    sum over arrows s -> i of e_s - sum over arrows i -> t of e_t, so one pass over the
    arrows gives each exponent. Terms that share an exponent are summed and zero sums
    dropped before the one `LaurentPoly` is built.
    """
    terms: dict[tuple[int, ...], int] = {}
    for e, chi in chis.items():
        if chi:
            expo = [-x for x in d]
            for s, t in q.arrows:
                expo[s - 1] += d[t - 1] - e[t - 1]
                expo[t - 1] += e[s - 1]
            key = tuple(expo)
            terms[key] = terms.get(key, 0) + chi
    return LaurentPoly(q.n, {key: c for key, c in terms.items() if c})


def cc_module(m: Representation, cap: int = 5_000_000) -> LaurentPoly:
    """The Caldero-Chapoton character of a rational module, read off or counted per e.

    X_M = sum_e chi(Gr_e(M)) prod_i x_i^{<S_i,e>_a - <S_i, dim M>}. An arrow a: s -> t
    is active at e when e_s > 0, e_t < d_t and M_a != 0. Two cases need no prime:
    - no arrow active: for each arrow U_s = 0, U_t = M_t or M_a = 0, so every choice
      of subspaces of dims e is a subrepresentation, Gr_e(M) = prod_v Gr(e_v, d_v)
      and chi = prod_v C(d_v, e_v);
    - M thin (every d_v <= 1) and some a active: then U_s = M_s and U_t = 0, but
      M_a(M_s) != 0, so Gr_e(M) is empty and chi = 0.
    Every other e goes to `grassmannian_euler`, and one reduction pool (good primes,
    reduced copies of M), built at the first such e, serves them all. So a thin
    module reduces nothing mod p and counts nothing, and `cap` bounds only the
    counted e: an exact e never raises CapExceeded.
    """
    if m.field.p is not None:
        raise FieldMismatch("cc_module expects a rational representation")
    d = m.dims
    live = [(s - 1, t - 1) for (s, t), mat in zip(m.quiver.arrows, m.maps) if any(any(row) for row in mat)]
    thin = max(d, default=0) <= 1
    pool = None
    chis = {}
    for e in product(*(range(x + 1) for x in d)):
        if not any(e[s] and e[t] < d[t] for s, t in live):
            chis[e] = prod(map(comb, d, e))
        elif not thin:  # a thin module with an active arrow has chi 0
            if pool is None:
                pool = ReductionPool(m)
            chis[e] = grassmannian_euler(m, e, cap=cap, pool=pool).euler
    return _character(m.quiver, d, chis)


# --- characters of exceptional modules from a tree basis ---

Edge = tuple[int, int, int]  # (arrow a, basis index at the source of a, basis index at its target)
Node = tuple[int, int]  # (vertex - 1, basis index there)


def _walk(q: Quiver, d: Sequence[int], edges: Sequence[Edge]) -> list[tuple[Node, Node | None, int, bool]] | None:
    """(node, parent, arrow, forward) for every basis vector of a forest, parents first, or
    None when the edges close a cycle. A root has parent None; forward means parent -a-> node."""
    adj: dict[Node, list] = {(v, k): [] for v in range(q.n) for k in range(d[v])}
    for idx, (a, i, j) in enumerate(edges):
        s, t = q.arrows[a]
        adj[(s - 1, i)].append((idx, (t - 1, j), a, True))
        adj[(t - 1, j)].append((idx, (s - 1, i), a, False))
    order: list[tuple[Node, Node | None, int, bool]] = []
    seen: set[Node] = set()
    used: set[int] = set()
    for root in adj:
        if root in seen:
            continue
        seen.add(root)
        k = len(order)
        order.append((root, None, -1, True))
        while k < len(order):
            node = order[k][0]
            k += 1
            for idx, other, a, forward in adj[node]:
                if idx in used:
                    continue
                if other in seen:
                    return None
                used.add(idx)
                seen.add(other)
                order.append((other, node, a, forward))
    return order


def accepts_tree(q: Quiver, d: Sequence[int], edges: Sequence[Edge]) -> bool:
    """Whether the edges are a separated forest whose representation is a brick.

    Separated: walking each tree and adding the unit vector e_a of Z^{arrows} along an
    edge of arrow a (subtracting it when walked backwards) gives the basis vectors at
    each vertex distinct degrees. Brick: End T = k, which also makes the forest a tree.
    """
    order = _walk(q, d, edges)
    if order is None:
        return False
    degree: dict[Node, tuple[int, ...]] = {}
    for node, parent, a, forward in order:
        if parent is None:
            degree[node] = (0,) * len(q.arrows)
        else:
            sign = 1 if forward else -1
            degree[node] = tuple(x + sign * (b == a) for b, x in enumerate(degree[parent]))
    if len({(v, deg) for (v, _), deg in degree.items()}) != len(degree):
        return False
    return entry_representation(q, QQ, d, [(a, i, j, 1) for a, i, j in edges]).end_dim == 1


def subset_counts(q: Quiver, d: Sequence[int], edges: Sequence[Edge]) -> dict[tuple[int, ...], int]:
    """e -> the number of successor-closed sets of basis vectors of dimension vector e.

    A set is successor-closed when each edge x -> y with x in it has y in it. One pass
    over the forest, leaves first, keeps two generating polynomials in y^e per node
    (`LaurentPoly`): subsets of its subtree with the node in, and with it out. No
    subset is listed. No prime or sample enters, so `tree_character` runs it once
    per (quiver, d), unlike the point counts of `cc_module`, which live for one value.
    """
    order = _walk(q, d, edges)
    if order is None:
        raise ValueError("the edges close a cycle")
    n = q.n
    inside = {node: monomial(n, tuple(int(k == node[0]) for k in range(n))) for node, *_ in order}
    outside = {node: LaurentPoly.one(n) for node, *_ in order}
    total = LaurentPoly.one(n)
    for node, parent, _a, forward in reversed(order):
        both = inside[node] + outside[node]
        if parent is None:
            total = total * both
        elif forward:  # parent -> node: parent in forces node in
            inside[parent] = inside[parent] * inside[node]
            outside[parent] = outside[parent] * both
        else:  # node -> parent: node in forces parent in
            inside[parent] = inside[parent] * both
            outside[parent] = outside[parent] * outside[node]
    return total.terms


def tree_basis(q: Quiver, d: tuple[int, ...]) -> tuple[Edge, ...] | None:
    """A 0/1 tree basis of the exceptional module of dims d, or None.

    Two constructions are tried, and their result must pass `accepts_tree`:
    - thin d (every d_v <= 1): the support, with every arrow inside it set to 1;
    - a support of two vertices joined by exactly two parallel arrows a, b: s -> t
      with |d_s - d_t| = 1, the zigzag string u_{j-1} -a-> v_j, u_j -b-> v_j for
      j = 1..k when (d_s, d_t) = (k+1, k), and u_j -a-> v_{j-1}, u_j -b-> v_j for
      (k, k+1).
    Like a cone plan it is structure and holds no count; `tree_character`, its
    caller, memoizes what is read off it once per (quiver, d).
    """
    support = [v for v in range(q.n) if d[v]]
    inner = [a for a, (s, t) in enumerate(q.arrows) if d[s - 1] and d[t - 1]]
    if max(d) <= 1:
        edges = tuple((a, 0, 0) for a in inner)
    elif len(support) == 2 and len(inner) == 2 and q.arrows[inner[0]] == q.arrows[inner[1]]:
        a, b = inner
        s, t = q.arrows[a]
        ds, dt = d[s - 1], d[t - 1]
        if ds == dt + 1:
            edges = tuple(x for j in range(1, dt + 1) for x in ((a, j - 1, j - 1), (b, j, j - 1)))
        elif dt == ds + 1:
            edges = tuple(x for j in range(1, ds + 1) for x in ((a, j - 1, j - 1), (b, j - 1, j)))
        else:
            return None
    else:
        return None
    return edges if accepts_tree(q, d, edges) else None


@lru_cache(maxsize=4096)
def tree_character(q: Quiver, d: tuple[int, ...]) -> LaurentPoly | None:
    """The CC character of the exceptional module of dims d from a tree basis, or None.

    Call it only for d with <d, d> = 1. An exceptional module has a basis whose
    coefficient quiver is a tree (Ringel 1998, "Exceptional modules are tree
    modules"); `tree_basis` builds one for thin d and for the Kronecker strings.
    The tree T it returns is separated, so the torus (k*)^{arrows} acts on each
    Gr_e(T) through the basis degrees with finitely many fixed points, the
    coordinate subrepresentations, and chi(Gr_e(T)) is the number of
    successor-closed basis subsets of dimension e (Haupt 2012, "Euler
    characteristics of quiver Grassmannians and Ringel-Hall algebras of string
    algebras"). T is a brick with <d, d> = 1, so ext(T, T) = 0: T is the
    exceptional module of dims d, unique up to isomorphism (Kac). No prime is
    used and nothing is sampled, so the value, tree basis included, is structure
    of (quiver, d) and is built once per pair: finding it again for another value
    would repeat the same arithmetic and add no independent evidence. None sends
    the caller to `cc_module`, whose counts live for one value.
    """
    edges = tree_basis(q, d)
    if edges is None:
        return None
    return _character(q, d, subset_counts(q, d, edges))


def cc_object(x: ClusterObject, cap: int = 5_000_000) -> LaurentPoly:
    """cc_module(module) · prod_i x_i^{shifted[i]}."""
    return cc_module(x.module, cap=cap) * monomial(x.quiver.n, x.shifted)


def index_of(x: ClusterObject) -> tuple[int, ...]:
    """E^t·dim(module) - shifted."""
    return tuple(a - s for a, s in zip(et_map(x.quiver, x.module.dims), x.shifted))


def coindex_of(x: ClusterObject) -> tuple[int, ...]:
    """E·dim(module) - shifted."""
    minus_e_dim = g_vector_of_index(x.quiver, et_map(x.quiver, x.module.dims))
    return tuple(-g - s for g, s in zip(minus_e_dim, x.shifted))


def g_vector_of_index(q: Quiver, gamma: Sequence[int]) -> tuple[int, ...]:
    """C^{-1}·gamma = -E·E^{-t}·gamma (valid when the generic cone of gamma is a module)."""
    v = et_map(q, gamma, inverse=True)
    return tuple(-sum(map(mul, row, v)) for row in euler_data(q).E)


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
    first certified sample leaves the later ones its blocks and, when its parts are
    all rigid, its parts (`replab.BlockPlan`). Each sample's own representative gets
    its own character from `cc_module`, read off where no arrow is active or the
    module is thin and counted elsewhere, never from a tree basis, so agreement
    stays an independent check.
    """
    alpha = vertex_vector(q, alpha, "alpha")
    plan = BlockPlan()  # lives for this value only

    def draw(attempt: int, s: int) -> LaurentPoly:
        m, _ = generic_representation(q, alpha, rng_seed=mix_seed(rng_seed, attempt, s), bound=bound, plan=plan)
        return cc_module(m, cap=cap)

    return certify(draw, retries, f"CC({alpha})")
