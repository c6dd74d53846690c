"""Generic characters: projective presentations, cones, and certified generic values.

A generic character of index gamma is the character of the cone of a generic map
between projectives realizing the minimal decomposition of gamma. Genericity is
certified operationally: each of five independently seeded samples must exhibit
the virtual generic decomposition pattern exactly (brick summands, pairwise Ext
vanishing, shifted part of disjoint support), and their values must agree.

Within one value, the character of a rigid brick part (<d, d> = 1) is found on
the first sample that meets it and reused after that: an exceptional module is
unique for its dimension vector. It is read off a tree basis of dims d when one
is built (`characters.tree_character`: successor-closed basis subsets, no
primes), and found by `cc_module` when none is. So for an all-rigid pattern
the five samples agree on the certified pattern, and rigidity proves that their
values agree, so the product of its characters is taken once. Parts that are not
rigid go to `cc_module` on every sample, which reads a thin one off without a
prime and counts the rest. A value also
keeps a block plan (`BlockPlan`): the blocks of the last round that certified
(`_refine_blocks`). Its later samples and attempts start from it, so a non-brick
cone such as the Kronecker (4, 4) is split once per value, not once per sample;
each sample still draws its own maps.
The plan also keeps the value's first certified round whose parts are all rigid.
A later sample whose module has that round's dims and shifted part is certified
by one Hom rank instead of a decomposition: dim End M = <dim M, dim M> means
ext(M, M) = 0, so M is rigid. A rigid module has an open orbit in rep(d) (Voigt;
Kac 1982), and two open orbits of the irreducible rep(d) meet, so M is isomorphic
to the certified module, whose parts it takes: bricks, no Ext between them, the
same disjoint shifted support. A module that fails the rank is decomposed and
certified as any other. The map of rigid characters, the plan and its certified
round never outlive one value, so values compared with each other (cc-agreement,
multiplicativity) are computed independently. A multiplicativity case is one
value: X(E^t·alpha) and the decomposition of alpha are read off the same five
certified cones of E^t·alpha (`_certified_value`), whose parts give the betas
and whose shifted part gives gamma. `cc_generic` still finds the
character of each sample's own module with `cc_module`. What does outlive a
value is the plan of a cone (`_cone_plan`): bases and index tables fixed by
(quiver, gamma1, gamma0), never a sampled coefficient, so sharing it shares no
evidence. The same holds for a tree basis (`characters.tree_basis`) and the
character read off it (`characters.tree_character`), both fixed by (quiver, d)
with no prime and no sample: computing them again for each value would repeat
identical arithmetic; so would the pattern read off an index with no path, below.
Only what `cc_module` finds for a sampled module, read off at the subdimensions
that allow it and counted prime by prime at the others, lives for one value.

An index with no path from supp gamma0 to supp gamma1, every gamma >= 0 or <= 0
among them, needs no draw: Hom(P_j, P_i) is spanned by the paths i -> j, so the
only map P(gamma1) -> P(gamma0) is 0 and its cone is P(gamma0) ⊕ P(gamma1)[1] on
every seed (Caldero-Keller). `_read_off_pattern` reads it off the quiver once per
(quiver, gamma) and passes it through the pattern certificate. Its parts are the
shared projectives `_projective_summand`; like a plan, the pattern is structure
with no sampled coefficient and no count, and the rigid characters above still
live for one value.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

from . import linalg
from .characters import ClusterObject, cc_module, tree_character
from .errors import GenericityUncertified, KernelNotProjectiveShape, SubdimensionOutOfRange
from .laurent import LaurentPoly, monomial, product
from .linalg import QQ
from .quiver import Quiver, et_map, euler_form, integer_vector, vertex_vector
from .replab import (
    BlockPlan,
    Representation,
    _certify_pattern,
    _known_end,
    _refine_blocks,
    decompose,
    projective_representation,
)
from .seeds import certify, mix_seed

IntVec = tuple[int, ...]


@dataclass(frozen=True)
class ProjDecomposition:
    """gamma0 - gamma1 = index; minimal when the supports are disjoint."""

    gamma0: IntVec
    gamma1: IntVec


def min_proj_decomposition(gamma: Sequence[int]) -> ProjDecomposition:
    g = integer_vector(gamma, "index")
    return ProjDecomposition(
        gamma0=tuple(max(x, 0) for x in g),
        gamma1=tuple(max(-x, 0) for x in g),
    )


@dataclass
class ProjectiveMap:
    """A map P(gamma1) -> P(gamma0) given blockwise by path coefficients.

    blocks[(i, j)][c0][c1] is the coefficient tuple (over q.paths(i, j)) of the
    component P_j(copy c1) -> P_i(copy c0); pairs without paths are omitted.
    """

    quiver: Quiver
    gamma1: IntVec
    gamma0: IntVec
    blocks: dict[tuple[int, int], tuple]


def sample_generic_proj_map(
    q: Quiver, dec: ProjDecomposition, rng_seed: int = 0, bound: int = 10
) -> ProjectiveMap:
    """Uniform integer path coefficients in [-bound, bound]; deterministic in the seed."""
    gamma0 = vertex_vector(q, dec.gamma0, "gamma0")
    gamma1 = vertex_vector(q, dec.gamma1, "gamma1")
    rng = random.Random(rng_seed)
    blocks: dict[tuple[int, int], tuple] = {}
    for i in range(1, q.n + 1):
        for j in range(1, q.n + 1):
            paths = q.paths(i, j) if gamma0[i - 1] * gamma1[j - 1] else ()
            if not paths:
                continue
            rows = []
            for _c0 in range(gamma0[i - 1]):
                row = []
                for _c1 in range(gamma1[j - 1]):
                    row.append(tuple(rng.randint(-bound, bound) for _ in paths))
                rows.append(tuple(row))
            blocks[(i, j)] = tuple(rows)
    return ProjectiveMap(quiver=q, gamma1=gamma1, gamma0=gamma0, blocks=blocks)


def _path_bases(q: Quiver, g: IntVec) -> list[list[tuple]]:
    """Vertexwise bases of P(g): (i, copy, path i->v) for i ascending, copies
    ascending, paths in canonical order."""
    bases = []
    for v in range(1, q.n + 1):
        basis = []
        for i in range(1, q.n + 1):
            paths = q.paths(i, v)
            basis += [(i, c, p) for c in range(g[i - 1]) for p in paths]
        bases.append(basis)
    return bases


@dataclass(frozen=True)
class _ConePlan:
    """What the cones of all maps f: P(gamma1) -> P(gamma0) share, on the bases of `_path_bases`.

    f sends (j, c1, p) at v to the sum of f.blocks[(i, j)][c0][c1][k] · (i, c0, w + p)
    over i, c0 and the k-th path w: i->j. So cells[v] lists one (row, col, (i, j),
    c0, c1, k) per coefficient landing at (row, col) of f's matrix at v, each
    (row, col) at most once; dims0, dims1 are the dimensions of P(gamma0), P(gamma1)
    at each vertex, and targets[a][c] is the index at t of the path extension by
    a: s -> t of basis vector c of P(gamma0) at s. A plan is structure, never a
    sampled coefficient or value, so it may serve every sample of every value on
    (quiver, gamma1, gamma0) and the samples stay independent.
    """

    dims1: tuple[int, ...]
    dims0: tuple[int, ...]
    cells: tuple[tuple[tuple[int, int, tuple[int, int], int, int, int], ...], ...]
    targets: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=4096)
def _cone_plan(q: Quiver, gamma1: IntVec, gamma0: IntVec) -> _ConePlan:
    """The plan of the cones of maps P(gamma1) -> P(gamma0), built once per triple."""
    bases1 = _path_bases(q, gamma1)
    bases0 = _path_bases(q, gamma0)
    index0 = [{b: r for r, b in enumerate(basis)} for basis in bases0]
    paths = {(i, j): q.paths(i, j) for i in range(1, q.n + 1) for j in range(1, q.n + 1)}
    cells = tuple(tuple(
        (index0[v][(i, c0, w + p)], col, (i, j), c0, c1, k)
        for col, (j, c1, p) in enumerate(bases1[v])
        for i in range(1, q.n + 1)
        for k, w in enumerate(paths[(i, j)])
        for c0 in range(gamma0[i - 1])
    ) for v in range(q.n))
    targets = tuple(
        tuple(index0[t - 1][(i, c, p + (a,))] for i, c, p in bases0[s - 1])
        for a, (s, t) in enumerate(q.arrows)
    )
    return _ConePlan(tuple(map(len, bases1)), tuple(map(len, bases0)), cells, targets)


def cone_of_proj_map(f: ProjectiveMap) -> ClusterObject:
    """Cone(f) = Coker(f) ⊕ Ker(f)[1]; the kernel is projective (kQ hereditary).

    The structure comes from `_cone_plan`. Per map, each vertex fills its image matrix
    from f.blocks (a missing block is zero), one sparse row per basis vector of
    P(gamma1), and takes one RREF. An arrow sends a basis vector to a basis vector
    e_r, which reduces to e_r when r is not a pivot and to e_r minus the RREF row
    with pivot r when it is; the non-pivot coordinates of that are the cokernel
    column. The kernel only enters through its dimension vector: the
    multiplicities of its projective summands are m = E^t·(dim Ker), solved via
    the unitriangular system.
    """
    q = f.quiver
    n = q.n
    plan = _cone_plan(q, tuple(f.gamma1), tuple(f.gamma0))
    pivot_rows = []  # per vertex: pivot column -> sparse RREF row
    free = []  # per vertex: the non-pivot coordinates, a basis of the cokernel
    ker_dims = []
    for v in range(n):
        d0, d1 = plan.dims0[v], plan.dims1[v]
        image: list[dict[int, int]] = [{} for _ in range(d1)]
        for row, col, key, c0, c1, k in plan.cells[v]:
            block = f.blocks.get(key)
            if block is not None:
                image[col][row] = block[c0][c1][k]
        pivot_rows.append(linalg.rref(image, QQ) if d0 and d1 else {})
        free.append([c for c in range(d0) if c not in pivot_rows[v]])
        ker_dims.append(d1 - len(pivot_rows[v]))

    maps = []
    for a, (s, t) in enumerate(q.arrows):
        rows, coords = pivot_rows[t - 1], free[t - 1]
        cols = [[-rows[r].get(x, 0) for x in coords] if r in rows else [int(x == r) for x in coords]
                for r in (plan.targets[a][c] for c in free[s - 1])]
        maps.append(tuple(tuple(col[ri] for col in cols) for ri in range(len(coords))))
    coker = Representation(q, QQ, tuple(map(len, free)), tuple(maps))
    shifted = et_map(q, ker_dims)
    if any(x < 0 for x in shifted):
        raise KernelNotProjectiveShape(f"kernel dims {tuple(ker_dims)} not a projective shape")
    if et_map(q, shifted, inverse=True) != tuple(ker_dims):
        raise KernelNotProjectiveShape(f"multiplicity solve failed for {tuple(ker_dims)}")
    return ClusterObject(module=coker, shifted=shifted)


# --- certified cone patterns ---


@lru_cache(maxsize=4096)
def _projective_summand(q: Quiver, i: int) -> Representation:
    """P_i over Q, with dim End P_i = 1 recorded: End P_i = e_i kQ e_i = k on an
    acyclic quiver. One object per (quiver, i) serves every sample of every value;
    it is structure, like a `_cone_plan`, and carries no count."""
    return _known_end(projective_representation(q, i), 1)


def _no_path(q: Quiver, dec: ProjDecomposition) -> bool:
    """Whether no path runs from supp gamma0 to supp gamma1, so Hom(P(gamma1), P(gamma0)) = 0."""
    return not any(q.paths(i, j) for i, a in enumerate(dec.gamma0, start=1) if a
                   for j, b in enumerate(dec.gamma1, start=1) if b)


@lru_cache(maxsize=4096)
def _read_off_pattern(q: Quiver, gamma: IntVec) -> tuple[tuple[Representation, ...], IntVec]:
    """(parts, shifted) of the cone of index gamma when Hom(P(gamma1), P(gamma0)) = 0:
    P(gamma0) ⊕ P(gamma1)[1], whose parts are `_projective_summand(q, i)`, gamma0_i
    times each, and E^t·dim P(gamma1) = gamma1. Certified once per (quiver, gamma);
    like a `_cone_plan`, it holds no sampled coefficient and no count."""
    dec = min_proj_decomposition(gamma)
    parts = [_projective_summand(q, i) for i, g in enumerate(dec.gamma0, start=1) for _ in range(g)]
    _certify_pattern(q, gamma, parts, dec.gamma1)
    return tuple(parts), dec.gamma1


def _draw_cone(q: Quiver, dec: ProjDecomposition, rng_seed: int, bound: int) -> tuple[Representation, IntVec]:
    """(module, shifted) of the cone of one sampled P(gamma1) -> P(gamma0); the seed
    draws the map. The module is left to the caller to decompose (`decompose`, or
    `_refine_blocks`' certification by rigidity)."""
    cone = cone_of_proj_map(sample_generic_proj_map(q, dec, rng_seed, bound))
    return cone.module, cone.shifted


def cone_signature(cone: tuple[Sequence[Representation], IntVec]) -> tuple[list[IntVec], IntVec]:
    """Sorted summand dimension vectors and shifted part: what agreeing samples share."""
    parts, shifted = cone
    return sorted(p.dims for p in parts), shifted


def _cone_pattern_once(
    q: Quiver, gamma: IntVec, rng_seed: int, bound: int = 10, *, plan: BlockPlan
) -> tuple[Sequence[Representation], IntVec]:
    """(parts, shifted) of one cone of index gamma, certified by `_refine_blocks` from `plan`,
    or read off with no draw when no path runs from supp gamma0 to supp gamma1."""
    if _no_path(q, min_proj_decomposition(gamma)):
        return _read_off_pattern(q, gamma)

    def sample(block: IntVec, seed0: int, k: int) -> tuple[Representation, IntVec]:
        return _draw_cone(q, min_proj_decomposition(block), mix_seed(seed0, k), bound)

    what = f"no certified cone pattern for index {gamma}"
    return _refine_blocks(q, gamma, sample, rng_seed, what, plan=plan)[1:]


def _pattern_value(
    parts: Sequence[Representation], shifted: IntVec, cap: int, rigid: dict[tuple, LaurentPoly]
) -> LaurentPoly:
    """x^shifted times the CC characters of the certified brick parts.

    A brick X with <d, d> = 1 (d = dim X) has ext(X, X) = 1 - <d, d> = 0: it is
    exceptional, hence determined up to isomorphism by d (Kac; Ringel). Its
    character is therefore read from `rigid` (dims -> character), which the caller
    keeps for one certified value. On first sight it comes from a tree basis of
    dims d (`tree_character`, built once per (quiver, d) as structure), or from
    `cc_module` when d has none. Every other part goes to `cc_module` each time.
    When every part is rigid, the value is a function of the sorted part dims and
    the shifted part alone, so `rigid` keeps it under that key and the product is
    taken once per value.
    """
    n = len(shifted)
    is_rigid = [euler_form(p.quiver, p.dims, p.dims) == 1 for p in parts]
    key = (tuple(sorted(p.dims for p in parts)), shifted) if all(is_rigid) else None
    if key in rigid:
        return rigid[key]
    factors = [monomial(n, shifted)] if any(shifted) else []
    for part, exceptional in zip(parts, is_rigid):
        d = part.dims
        if not exceptional:
            factors.append(cc_module(part, cap=cap))
            continue
        if d not in rigid:
            tree = tree_character(part.quiver, d)
            rigid[d] = tree if tree is not None else cc_module(part, cap=cap)
        factors.append(rigid[d])
    value = product(factors, n)
    if key is not None:
        rigid[key] = value
    return value


# --- character cache ---


class CharacterCache:
    """In-memory map keyed by quiver hash and index, optionally persisted to a file.

    The file holds one JSON object of entries per line, and later lines win. `put`
    appends one line {key: value}, so a put costs the same at any cache size, and
    caches that share a file keep each other's entries. Loading discards corrupt (or
    non-UTF-8) lines and entries, never trusting them, and keeps their valid neighbours.
    """

    def __init__(self, path: str | None = None):
        self._path = path
        self._mem: dict[str, LaurentPoly] = {}
        if path and os.path.exists(path):
            self._load(path)

    def _load(self, path: str) -> None:
        with open(path, "rb") as fh:
            lines = fh.readlines()
        for line in lines:
            try:
                raw = json.loads(line.decode("utf-8"))
            except ValueError:  # not UTF-8, or not JSON
                continue
            for key, val in raw.items() if isinstance(raw, dict) else ():
                try:
                    self._mem[key] = LaurentPoly.from_json(val)
                except Exception:
                    continue  # corrupt entries are discarded, never trusted

    @staticmethod
    def key_for(q: Quiver, gamma: Sequence[int]) -> str:
        h = hashlib.sha256(q.key().encode("utf-8")).hexdigest()[:16]
        return f"{h}:" + ",".join(map(str, vertex_vector(q, gamma, "index")))

    def get(self, q: Quiver, gamma: Sequence[int]) -> LaurentPoly | None:
        """The value stored for (q, gamma); one in another number of variables is a miss."""
        hit = self._mem.get(self.key_for(q, gamma))
        return hit if hit is not None and hit.nvars == q.n else None

    def put(self, q: Quiver, gamma: Sequence[int], value: LaurentPoly) -> None:
        key = self.key_for(q, gamma)
        self._mem[key] = value
        if self._path:
            with open(self._path, "ab+") as fh:
                end = fh.seek(0, os.SEEK_END)
                fh.seek(max(end - 1, 0))
                start = b"\n" if end and fh.read(1) != b"\n" else b""  # a file with no final newline
                fh.write(start + json.dumps({key: value.to_json()}, sort_keys=True).encode("utf-8") + b"\n")


_DEFAULT_CACHE = CharacterCache()


# --- public operations ---


def generic_character(
    q: Quiver,
    gamma: Sequence[int],
    rng_seed: int = 0,
    bound: int = 10,
    retries: int = 8,
    cap: int = 5_000_000,
    cache: CharacterCache | None = None,
) -> LaurentPoly:
    """X(gamma): certified by agreement of five independently seeded evaluations on
    their value (`_certified_value`), which share the pattern read off the quiver,
    with no map drawn, where no path runs from supp gamma0 to supp gamma1
    (`_read_off_pattern`). A cached value is returned as it is."""
    g = vertex_vector(q, gamma, "index")
    store = cache if cache is not None else _DEFAULT_CACHE
    hit = store.get(q, g)
    if hit is not None:
        return hit
    value = _certified_value(q, g, rng_seed, bound, retries, cap, key=lambda x: x[0])[0]
    store.put(q, g, value)
    return value


def _certified_value(
    q: Quiver, g: IntVec, rng_seed: int, bound: int, retries: int, cap: int, key: Callable[[tuple], object]
) -> tuple[LaurentPoly, Sequence[Representation], IntVec]:
    """(value, parts, shifted) of the first sample of the first attempt whose five
    certified cones of index g agree on `key` (`certify`). The map of rigid
    characters and the block plan live for this one value."""
    rigid: dict[tuple, LaurentPoly] = {}
    plan = BlockPlan()

    def draw(attempt: int, s: int) -> tuple[LaurentPoly, Sequence[Representation], IntVec]:
        parts, shifted = _cone_pattern_once(q, g, mix_seed(rng_seed, attempt, s), bound=bound, plan=plan)
        return _pattern_value(parts, shifted, cap, rigid), parts, shifted

    return certify(draw, retries, f"X({g})", key=key)


def generic_decomposition(
    q: Quiver,
    d: Sequence[int],
    rng_seed: int = 0,
    bound: int = 10,
    retries: int = 8,
) -> list[IntVec]:
    """Kac's generic decomposition of d >= 0, as a sorted list of dimension vectors.

    The case d >= 0 of `virtual_generic_decomposition`, for every acyclic quiver,
    Dynkin or not: the betas of a certified cone of index E^t·d with no shifted
    part. `generic_representation`, the direct sampler behind `cc_generic`, stays
    independent of this path; the tests compare the two.
    """
    dv = vertex_vector(q, d, "dimension vector")
    if any(x < 0 for x in dv):
        raise SubdimensionOutOfRange("dimension vector must be nonnegative")
    return virtual_generic_decomposition(q, dv, rng_seed, bound, retries)[0]


def virtual_generic_decomposition(
    q: Quiver,
    alpha: Sequence[int],
    rng_seed: int = 0,
    bound: int = 10,
    retries: int = 8,
) -> tuple[list[IntVec], IntVec]:
    """(betas, gamma) with alpha = sum(betas) - E^{-t}·gamma, certified over 5 seeds.

    Each sample is a generic cone of index E^t·alpha that `_refine_blocks` has
    certified: brick parts of dimensions betas with no Ext between them, and a
    shifted part gamma of disjoint support, whose indices add up to E^t·alpha.
    As E^t is invertible over Z, that is the identity above. For alpha >= 0 a
    sample with a shifted part raises GenericityUncertified and ends its attempt,
    so the betas are Kac's canonical decomposition of alpha (Kac; Schofield).
    """
    a = vertex_vector(q, alpha, "alpha")
    gamma_idx = et_map(q, a)
    plan = BlockPlan()  # lives for this index only

    def draw(attempt: int, s: int) -> tuple[list[IntVec], IntVec]:
        cone = _cone_pattern_once(q, gamma_idx, mix_seed(rng_seed, 7, attempt, s), bound, plan=plan)
        if any(cone[1]) and all(x >= 0 for x in a):
            raise GenericityUncertified("nonnegative alpha with a shifted part")
        return cone_signature(cone)

    return certify(draw, retries, f"virtual generic decomposition of {a}")


@dataclass
class MultiplicativityReport:
    alpha: IntVec
    betas: list[IntVec]
    gamma_shift: IntVec
    lhs: LaurentPoly
    rhs: LaurentPoly
    equal: bool


def check_multiplicativity(
    q: Quiver,
    alpha: Sequence[int],
    rng_seed: int = 0,
    bound: int = 10,
    retries: int = 8,
    cap: int = 5_000_000,
    cache: CharacterCache | None = None,
) -> MultiplicativityReport:
    """Compare X(E^t·alpha) against prod_i X(E^t·beta_i) · X(-gamma), exactly.

    X(E^t·alpha), the betas (its part dims) and gamma (its shifted part) come from
    one certified draw of E^t·alpha whose five cones agree on value and pattern
    (`_certified_value`, `cone_signature`); alpha >= 0 with a shifted part raises
    GenericityUncertified. The lhs is written to the cache, never read from it, so
    a stale entry cannot decide it; the rhs factors are `generic_character` values.
    """
    a = vertex_vector(q, alpha, "alpha")
    g = et_map(q, a)
    lhs, parts, shift = _certified_value(q, g, rng_seed, bound, retries, cap,
                                         key=lambda x: (x[0], cone_signature(x[1:])))
    if any(shift) and all(x >= 0 for x in a):
        raise GenericityUncertified(f"multiplicativity of {a}: nonnegative alpha with a shifted part")
    store = cache if cache is not None else _DEFAULT_CACHE
    if store.get(q, g) != lhs:  # a file cache gains no line for a value it holds
        store.put(q, g, lhs)
    betas = sorted(p.dims for p in parts)

    def value(gamma: IntVec, seed: int) -> LaurentPoly:
        return generic_character(q, gamma, rng_seed=seed, bound=bound, retries=retries, cap=cap, cache=cache)

    factors = [value(et_map(q, beta), mix_seed(rng_seed, 17)) for beta in betas]
    if any(shift):
        factors.append(value(tuple(-x for x in shift), mix_seed(rng_seed, 19)))
    rhs = product(factors, q.n)
    return MultiplicativityReport(alpha=a, betas=betas, gamma_shift=shift, lhs=lhs, rhs=rhs, equal=lhs == rhs)


@dataclass
class StabilityReport:
    gamma: IntVec
    pad: IntVec
    minimal: LaurentPoly
    padded: LaurentPoly
    equal: bool


def stability_check(
    q: Quiver,
    gamma: Sequence[int],
    pad: Sequence[int],
    rng_seed: int = 0,
    bound: int = 10,
    retries: int = 8,
    cap: int = 5_000_000,
    cache: CharacterCache | None = None,
) -> StabilityReport:
    """Sample in the padded (non-minimal) Hom space and compare with X(gamma).

    The padded samples must agree on their pattern, and the first sample of the
    agreeing attempt must pass the certificate of the minimal cone of gamma
    (`_certify_pattern`), or GenericityUncertified names the reason. The certificate
    makes the character an invariant, so one counting pass gives the padded value.
    """
    g = vertex_vector(q, gamma, "index")
    pd = vertex_vector(q, pad, "pad")
    if any(x < 0 for x in pd):
        raise SubdimensionOutOfRange("pad must be nonnegative")
    minimal = generic_character(q, g, rng_seed=rng_seed, bound=bound, retries=retries, cap=cap, cache=cache)
    dec = min_proj_decomposition(g)
    padded_dec = ProjDecomposition(
        gamma0=tuple(a + b for a, b in zip(dec.gamma0, pd)),
        gamma1=tuple(a + b for a, b in zip(dec.gamma1, pd)),
    )

    def draw(attempt: int, s: int) -> tuple[list[Representation], IntVec]:
        module, shifted = _draw_cone(q, padded_dec, mix_seed(rng_seed, 23, attempt, s), bound)
        return decompose(module), shifted

    parts, shift = certify(draw, retries, f"padded character for {g} + {pd}", key=cone_signature)
    _certify_pattern(q, g, parts, shift)
    padded = _pattern_value(parts, shift, cap, {})
    return StabilityReport(gamma=g, pad=pd, minimal=minimal, padded=padded, equal=padded == minimal)

