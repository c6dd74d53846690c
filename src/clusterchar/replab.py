"""Quiver representations with exact linear algebra.

Sampling, Hom/Ext dimensions, Krull-Schmidt decomposition (simple summands
by linear algebra, the rest via the fitting lemma), subspace enumeration over
prime fields, and Grassmannian Euler characteristics by point counting +
interpolation.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import isqrt, prod
from typing import Iterable, Sequence

from . import linalg
from .errors import (
    CapExceeded,
    DecompositionUncertified,
    FieldMismatch,
    GenericityUncertified,
    NegativeExt,
    NotPolynomialCount,
    ParseError,
    QuiverMismatch,
    SubdimensionOutOfRange,
)
from .linalg import GF, QQ, Field
from .quiver import Quiver, et_map, euler_form, vertex_vector
from .seeds import mix_seed

MatrixT = tuple[tuple, ...]


@dataclass(frozen=True)
class Representation:
    """One matrix per arrow; maps[a] has shape dims[target] x dims[source]."""

    quiver: Quiver
    field: Field
    dims: tuple[int, ...]
    maps: tuple[MatrixT, ...]

    def __post_init__(self):
        if len(self.dims) != self.quiver.n:
            raise SubdimensionOutOfRange("dims length must equal vertex count")
        if any(d < 0 for d in self.dims):
            raise SubdimensionOutOfRange(f"dims must be nonnegative, got {self.dims}")
        if len(self.maps) != len(self.quiver.arrows):
            raise SubdimensionOutOfRange("one matrix per arrow required")
        for a, (s, t) in enumerate(self.quiver.arrows):
            m = self.maps[a]
            if len(m) != self.dims[t - 1] or any(len(r) != self.dims[s - 1] for r in m):
                raise SubdimensionOutOfRange(
                    f"matrix for arrow {a} has wrong shape (want {self.dims[t-1]}x{self.dims[s-1]})"
                )

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def is_zero(self) -> bool:
        return self.total_dim == 0

    @cached_property
    def end_dim(self) -> int:
        """dim End M, computed once per object; `decompose` records it for the
        summands it returns, whose End it has already determined."""
        return hom_dim(self, self)

    def to_json(self) -> dict:
        return {
            "quiver": self.quiver.to_dict(),
            "field": "Q" if self.field.p is None else {"p": self.field.p},
            "dims": list(self.dims),
            "maps": [[[_entry_json(x) for x in row] for row in m] for m in self.maps],
        }


def _entry_json(x):
    if isinstance(x, Fraction) and x.denominator != 1:
        return f"{x.numerator}/{x.denominator}"
    return int(x)


def _entry_from_json(x):
    return Fraction(x) if isinstance(x, str) else operator.index(x)


def representation_from_json(data: dict) -> Representation:
    """The inverse of `Representation.to_json`; malformed data raises ParseError."""
    from .quiver import quiver_from_dict

    try:
        q = quiver_from_dict(data["quiver"])
        field = QQ if data["field"] == "Q" else GF(int(data["field"]["p"]))
        maps = [[[_entry_from_json(x) for x in row] for row in m] for m in data["maps"]]
        return make_representation(q, field, data["dims"], maps)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad representation data ({type(exc).__name__}: {exc})") from exc


def make_representation(q: Quiver, field: Field, dims: Sequence[int], maps: Iterable[Sequence[Sequence]]) -> Representation:
    """A representation with its entries brought into the field (reduced mod p over F_p).

    Dimensions must be integers and entries ints or Fractions: a float raises
    TypeError rather than being truncated or rounded (`linalg.to_field`).
    """
    frozen = tuple(tuple(tuple(linalg.to_field(x, field) for x in row) for row in m) for m in maps)
    return Representation(q, field, tuple(operator.index(d) for d in dims), frozen)


def entry_representation(q: Quiver, field: Field, dims: Sequence[int], entries: Iterable[tuple]) -> Representation:
    """The representation of dims whose arrow a sends basis vector i at its source to
    x times basis vector j at its target for each entry (a, i, j, x), and every other
    basis vector to 0. Entries must already lie in field. This is the one place that
    lays out maps[a] as a dims[target] x dims[source] tuple of rows."""
    dims = tuple(dims)
    mats = [[[0] * dims[s - 1] for _ in range(dims[t - 1])] for s, t in q.arrows]
    for a, i, j, x in entries:
        mats[a][j][i] = x
    return Representation(q, field, dims, tuple(tuple(map(tuple, m)) for m in mats))


def zero_representation(q: Quiver, field: Field = QQ) -> Representation:
    return entry_representation(q, field, (0,) * q.n, ())


def random_representation(q: Quiver, d: Sequence[int], field: Field = QQ, rng_seed: int = 0, bound: int = 10) -> Representation:
    """Uniform entries: integers in [-bound, bound] over Q, all of F_p over a prime field."""
    rng = random.Random(rng_seed)
    dims = vertex_vector(q, d, "dimension vector")
    maps = []
    for s, t in q.arrows:
        rows_n, cols_n = dims[t - 1], dims[s - 1]
        if field.p is None:
            m = tuple(tuple(rng.randint(-bound, bound) for _ in range(cols_n)) for _ in range(rows_n))
        else:
            m = tuple(tuple(rng.randrange(field.p) for _ in range(cols_n)) for _ in range(rows_n))
        maps.append(m)
    return Representation(q, field, dims, tuple(maps))


def simple_representation(q: Quiver, i: int, field: Field = QQ) -> Representation:
    return entry_representation(q, field, [int(v == i) for v in range(1, q.n + 1)], ())


def _path_representation(q: Quiver, bases: dict, step, field: Field) -> Representation:
    """Basis at v is bases[v]; arrow a sends a basis path p to step(p, a), or to 0 for None."""
    entries = []
    for a, (s, t) in enumerate(q.arrows):
        index = {p: k for k, p in enumerate(bases[t])}
        for i, p in enumerate(bases[s]):
            image = step(p, a)
            if image is not None:
                entries.append((a, i, index[image], 1))
    return entry_representation(q, field, [len(bases[v]) for v in range(1, q.n + 1)], entries)


def projective_representation(q: Quiver, i: int, field: Field = QQ) -> Representation:
    """P_i: basis at v is the set of paths i -> v, arrows act by path extension."""
    bases = {v: q.paths(i, v) for v in range(1, q.n + 1)}
    return _path_representation(q, bases, lambda p, a: p + (a,), field)


def injective_representation(q: Quiver, i: int, field: Field = QQ) -> Representation:
    """I_i: basis at v is the set of paths v -> i, arrows strip their first step."""
    bases = {v: q.paths(v, i) for v in range(1, q.n + 1)}
    return _path_representation(q, bases, lambda p, a: p[1:] if p and p[0] == a else None, field)


def direct_sum(m1: Representation, m2: Representation) -> Representation:
    return direct_sum_all((m1, m2), m1.quiver, m1.field)


def direct_sum_all(parts: Sequence[Representation], q: Quiver, field: Field = QQ) -> Representation:
    """The direct sum of the parts, in order: each part's basis at v follows the
    bases of the parts before it. A part over another quiver or field raises."""
    offsets = [0] * q.n
    entries = []
    for m in parts:
        if m.quiver != q:
            raise QuiverMismatch("direct sum over different quivers")
        if m.field != field:
            raise FieldMismatch("direct sum over different fields")
        for a, (s, t) in enumerate(q.arrows):
            off_s, off_t = offsets[s - 1], offsets[t - 1]
            entries += [(a, off_s + i, off_t + j, x) for j, row in enumerate(m.maps[a]) for i, x in enumerate(row) if x]
        offsets = [o + d for o, d in zip(offsets, m.dims)]
    return entry_representation(q, field, offsets, entries)


# --- Hom / Ext ---


def _hom_system(m: Representation, n: Representation) -> tuple[list[dict[int, int]], int, list[tuple[int, int, int]]]:
    """Linear system for intertwiners f: M -> N (f_t M(a) = N(a) f_s), over their field.

    Unknowns are the entries of the vertexwise maps f_v (shape n.dims[v] x m.dims[v]),
    laid out vertex by vertex, row-major. Returns (rows, #unknowns, layout) where
    layout[v] = (offset, rows_v, cols_v). Each row is sparse, a {unknown: coefficient}
    dict holding its nonzero coefficients only (at most dims[t] + dims[s] of them),
    in the row format of `linalg`. Over F_p the rows hold unreduced ints, which
    `linalg` reduces on entry.
    """
    if m.quiver != n.quiver:
        raise QuiverMismatch("Hom over different quivers")
    if m.field != n.field:
        raise FieldMismatch("Hom over different fields")
    q = m.quiver
    layout = []
    off = 0
    for v in range(q.n):
        r, c = n.dims[v], m.dims[v]
        layout.append((off, r, c))
        off += r * c
    nun = off
    rows: list[dict[int, int]] = []
    for a, (s, t) in enumerate(q.arrows):
        ma = m.maps[a]  # m.dims[t-1] x m.dims[s-1]
        na = n.maps[a]  # n.dims[t-1] x n.dims[s-1]
        off_s, rs, cs = layout[s - 1]
        off_t, rt, ct = layout[t - 1]
        # equation block: f_t · ma - na · f_s = 0, shape n.dims[t-1] x m.dims[s-1].
        # s != t (acyclic), so the f_t and f_s unknowns of a row are distinct and no
        # entry is written twice: a row left empty has no coefficient and is dropped.
        for r in range(n.dims[t - 1]):
            for c in range(m.dims[s - 1]):
                row = {}
                for k in range(ct):  # ct == m.dims[t-1]
                    coeff = ma[k][c]
                    if coeff != 0:
                        row[off_t + r * ct + k] = coeff
                for k in range(rs):  # rs == n.dims[s-1]
                    coeff = na[r][k]
                    if coeff != 0:
                        row[off_s + k * cs + c] = -coeff
                if row:
                    rows.append(row)
    return rows, nun, layout


def hom_basis(m: Representation, n: Representation) -> list[tuple[MatrixT, ...]]:
    """Basis of Hom(M, N) as tuples of vertexwise matrices."""
    rows, nun, layout = _hom_system(m, n)
    kernel = linalg.nullspace(rows, m.field, ncols=nun)
    out = []
    for vec in kernel:
        comps = []
        for v in range(m.quiver.n):
            off, r, c = layout[v]
            comps.append(tuple(tuple(vec[off + i * c:off + (i + 1) * c]) for i in range(r)))
        out.append(tuple(comps))
    return out


def hom_dim(m: Representation, n: Representation) -> int:
    rows, nun, _ = _hom_system(m, n)
    return nun - linalg.rank(rows, m.field)


def ext_dim(m: Representation, n: Representation) -> int:
    """dim Ext^1 = dim Hom - <dim M, dim N> (hereditary)."""
    h = hom_dim(m, n)
    val = h - euler_form(m.quiver, m.dims, n.dims)
    if val < 0:
        raise NegativeExt(f"hom={h} below Euler form value (internal inconsistency)")
    return val


def first_ext_pair(parts: Sequence[Representation]) -> tuple[Representation, Representation] | None:
    """The first ordered pair (X, Y) of distinct summands with Ext(X, Y) != 0, if any.

    The parts are bricks: `_certify_pattern` tests that first. Two bricks X, Y on
    one dimension vector d with <d, d> = 1 are rigid (ext = 1 - <d, d> = 0), so
    both are the exceptional module of d and Ext(X, Y) = ext(X, X) = 0: such pairs
    are skipped without computing.
    For the same reason a rigid brick of index E^t·d = e_i is P_i, and Ext(P_i, -) = 0:
    it is skipped as X.
    """
    for i, x in enumerate(parts):
        rigid = euler_form(x.quiver, x.dims, x.dims) == 1
        if rigid and sorted(et_map(x.quiver, x.dims)) == [0] * (len(x.dims) - 1) + [1]:
            continue
        for j, y in enumerate(parts):
            if i != j and not (rigid and y.dims == x.dims) and ext_dim(x, y) != 0:
                return x, y
    return None


# --- Krull-Schmidt via the fitting lemma ---


def _subrep_on_bases(m: Representation, bases: list[list[list]]) -> Representation:
    """The subrepresentation spanned by the given column bases (assumed arrow-stable)."""
    field = m.field
    dims = [len(b[0]) if b else 0 for b in bases]
    entries = []
    for a, (s, t) in enumerate(m.quiver.arrows):
        if dims[s - 1] and dims[t - 1]:  # an arrow out of or into 0 has no entry
            image = linalg.mat_mul(list(map(list, m.maps[a])), bases[s - 1], field)
            x = linalg.solve_columns(bases[t - 1], image, field)
            if x is None:
                raise DecompositionUncertified("subspace not arrow-stable (internal)")
            entries += [(a, i, j, v) for j, row in enumerate(x) for i, v in enumerate(row) if v]
    return entry_representation(m.quiver, field, dims, entries)


def _fitting_split(m: Representation, phi: Sequence[MatrixT]) -> tuple[Representation, Representation] | None:
    """Split M = ker(phi^N) ⊕ im(phi^N) when both sides are nonzero.

    Ranks of powers never increase, so an invertible phi (full rank at every
    vertex) or phi = 0 returns None on its first ranks, with no squaring.
    """
    field = m.field
    q = m.quiver
    powers = [list(map(list, phi[v])) for v in range(q.n)]
    total = m.total_dim

    def total_rank(mats):
        return sum(linalg.rank(mats[v], field) for v in range(q.n))

    prev = total_rank(powers)
    if prev in (0, total):
        return None
    # square until the rank stabilizes; at most log2(total)+1 steps
    for _ in range(max(1, total.bit_length() + 1)):
        squared = [linalg.mat_mul(powers[v], powers[v], field) for v in range(q.n)]
        r = total_rank(squared)
        if r == prev:
            break
        powers = squared
        prev = r
    psi = powers
    if prev == 0:  # phi is nilpotent; its rank started below total and cannot rise
        return None
    ker_bases, im_bases = [], []
    for v, d in enumerate(m.dims):
        red = linalg.rref(psi[v], field)
        kb = linalg.rref_kernel(red, d, field)
        ker_bases.append([[vec[i] for vec in kb] for i in range(d)])
        im_bases.append([[row[j] for j in red] for row in psi[v]])
    ker = _subrep_on_bases(m, ker_bases)
    im = _subrep_on_bases(m, im_bases)
    return ker, im


def _thin_components(m: Representation) -> list[Representation]:
    """Thin case: connected components of the active-arrow support graph are indecomposable."""
    q = m.quiver
    field = m.field
    parent = list(range(q.n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    active = []
    for a, (s, t) in enumerate(q.arrows):
        if m.dims[s - 1] == 1 and m.dims[t - 1] == 1 and linalg.to_field(m.maps[a][0][0], field) != 0:
            active.append(a)
            parent[find(s)] = find(t)
    roots = [find(v) if d else 0 for v, d in enumerate(m.dims, 1)]  # 0 off the support
    out = []
    for root in dict.fromkeys(r for r in roots if r):
        entries = [(a, 0, 0, m.maps[a][0][0]) for a in active if roots[q.arrows[a][0] - 1] == root]
        out.append(_known_end(entry_representation(q, field, [int(r == root) for r in roots], entries), 1))
    return out


def _known_end(m: Representation, end_dim: int) -> Representation:
    """m, with dim End m = end_dim recorded (the caller has just determined it)."""
    m.__dict__["end_dim"] = end_dim
    return m


def _split_simples(m: Representation) -> tuple[Representation, list[Representation]]:
    """M = N ⊕ (⊕_v S_v^c_v), where N has no simple direct summand.

    At vertex v let I_v be the sum of the images of the arrows into v and K_v the
    common kernel of the arrows out of v. S_v is a direct summand of M exactly
    c_v = dim K_v - dim(K_v ∩ I_v) times. Where K_v != 0, one elimination of the
    columns [in-arrow maps | basis of K_v | unit vectors] picks, left to right, a
    basis of I_v, vectors C_v of K_v independent of I_v (c_v of them) and unit
    vectors completing both to all of M_v; N_v is spanned by the first and the
    last. Every arrow lands in some I_w ⊆ N_w, so N is a subrepresentation, and
    each line of C_v ⊆ K_v is a copy of S_v; together they span M.
    """
    q, field = m.quiver, m.field
    bases, simples = [], []
    for v, d in enumerate(m.dims, start=1):
        outs = [row for a, (s, _) in enumerate(q.arrows) if s == v for row in m.maps[a]]
        kernel = linalg.nullspace(outs, field, ncols=d)
        if not kernel:
            bases.append([[int(i == j) for j in range(d)] for i in range(d)])
            continue
        ins = [a for a, (_, t) in enumerate(q.arrows) if t == v]
        cols = [row for a in ins for row in zip(*m.maps[a])] + kernel
        cols += [[int(i == j) for i in range(d)] for j in range(d)]
        pivots = linalg.rref([list(r) for r in zip(*cols)], field)
        n_in = len(cols) - len(kernel) - d
        keep = [c for c in pivots if not n_in <= c < n_in + len(kernel)]
        bases.append([[cols[c][i] for c in keep] for i in range(d)])
        simples += [_known_end(simple_representation(q, v, field), 1)] * (len(pivots) - len(keep))
    if not simples:
        return m, []
    return _subrep_on_bases(m, bases), simples


def _sqrt_mod(r: int, p: int) -> int | None:
    """A square root of r modulo the odd prime p, or None when r is not a square.

    Euler's criterion decides, and Tonelli-Shanks finds the root with the least
    non-residue z >= 2, so no random number is drawn. With p - 1 = q·2^s, q odd,
    each step keeps x² = r·t and lowers the order of t, a power of 2, until t = 1.
    """
    r %= p
    if r == 0:
        return 0
    if pow(r, (p - 1) // 2, p) != 1:
        return None
    s = ((p - 1) & (1 - p)).bit_length() - 1
    q = (p - 1) >> s
    z = next(z for z in itertools.count(2) if pow(z, (p - 1) // 2, p) == p - 1)
    m, c, t, x = s, pow(z, q, p), pow(r, q, p), pow(r, (q + 1) // 2, p)
    while t != 1:
        i = next(i for i in range(1, m) if pow(t, 1 << i, p) == 1)
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, x = i, b * b % p, t * b * b % p, x * b % p
    return x


def _quadratic_split(m: Representation, endos) -> tuple[Representation, Representation] | None:
    """Fitting split of M when End(M) has the basis endos of length 2, else None.

    For a basis element phi not in k·id, End(M) = k[phi], and one elimination of
    the columns (id | phi | phi²) gives phi² = a·phi + b·id. A root c of
    x² - a·x - b in k (over Q, a² + 4b is a square; over F_p with p odd,
    (a + sqrt(a² + 4b)) / 2 with the root of `_sqrt_mod`; over F_2, 0 or 1)
    makes phi - c·id a zero divisor, which splits M unless c is a double root: then
    it is nilpotent and End(M) is local. Without a root End(M) is a field. In both
    cases M is indecomposable and the answer is None.
    """
    field, p = m.field, m.field.p
    ident = [int(i == j) for d in m.dims for i in range(d) for j in range(d)]
    for phi in endos:
        mats = [list(map(list, mat)) for mat in phi]
        square = [linalg.mat_mul(mat, mat, field) for mat in mats]
        flat = ([x for mat in ms for row in mat for x in row] for ms in (mats, square))
        red = linalg.rref([list(r) for r in zip(ident, *flat)], field)
        if 1 in red:  # the id column is pivot 0, so phi is not a multiple of id
            break
    b, a = red[0].get(2, 0), red[1].get(2, 0)
    if p is None:
        disc = Fraction(a * a + 4 * b)
        num, den = isqrt(max(disc.numerator, 0)), isqrt(disc.denominator)
        if (num * num, den * den) != (disc.numerator, disc.denominator):
            return None
        c = (a + Fraction(num, den)) / 2
    elif p == 2:
        c = next((c for c in range(2) if (c * c - a * c - b) % 2 == 0), None)
        if c is None:
            return None
    else:
        root = _sqrt_mod(a * a + 4 * b, p)
        if root is None:
            return None
        c = (a + root) * ((p + 1) // 2) % p  # (p + 1) / 2 is the inverse of 2
    shifted = [[[x - c if i == j else x for j, x in enumerate(row)] for i, row in enumerate(mat)] for mat in mats]
    return _fitting_split(m, shifted)


def _fitting_summands(m: Representation) -> list[Representation]:
    """Summands of M by Fitting splits: with the first End(M) basis element that
    splits, else, when dim End(M) = 2, with `_quadratic_split`. No random number
    is drawn. A summand no step splits is returned with its End dimension."""
    if all(d <= 1 for d in m.dims):
        return _thin_components(m)  # none for M = 0
    endos = hom_basis(m, m)
    if len(endos) == 1:
        return [_known_end(m, 1)]
    for phi in endos:
        split = _fitting_split(m, phi)
        if split is not None:
            break
    else:
        split = _quadratic_split(m, endos) if len(endos) == 2 else None
    if split is None:  # End local or a field when dim End = 2; beyond that, as far as the basis sees
        return [_known_end(m, len(endos))]
    return _fitting_summands(split[0]) + _fitting_summands(split[1])


def decompose(m: Representation) -> list[Representation]:
    """Summands of M in one pass: simple summands split off linearly, the rest by Fitting splits.

    S_v is a direct summand of M exactly dim K_v - dim(K_v ∩ I_v) times, where K_v
    is the common kernel of the arrows out of v and I_v the sum of the images of
    the arrows into v; those copies come last, after the summands of the rest N,
    which is a subrepresentation because its basis at v contains I_v
    (`_split_simples`). N, and by Krull-Schmidt each Fitting piece of it, has no
    simple summand; it is split by Fitting with the End basis elements of each
    piece and, for dim End = 2, the quadratic step (`_fitting_summands`). No random
    number is drawn, so the summands are a function of M. A summand that is a
    brick (thin components are; otherwise dim End = 1) is indecomposable, and so is
    one with dim End = 2 that no step splits. A summand that is not a brick is
    returned unsplit; `_refine_blocks` splits its block, or `_certify_pattern`
    refuses it.
    """
    n, simples = (m, []) if all(d <= 1 for d in m.dims) else _split_simples(m)
    return _fitting_summands(n) + simples


# --- certified generic representations ---


def split_non_brick(parts_per_block: Sequence[Sequence[Representation]]) -> tuple | None:
    """(k, X, dims) for the first summand X that is not a brick: X is in block k.

    With m = dim End X, X is geometrically m conjugate summands of dimension
    dim X / m, so dims, which replaces block k, lists the other summands of block k
    and then m copies of dim X / m. None when all are bricks, or when m does not
    divide dim X: then `_certify_pattern` refuses X.
    """
    for k, parts in enumerate(parts_per_block):
        for x in parts:
            m = x.end_dim
            if m == 1:
                continue
            if any(v % m for v in x.dims):
                return None
            sub = tuple(v // m for v in x.dims)
            return k, x, [p.dims for p in parts if p is not x] + [sub] * m
    return None


def _certify_pattern(q: Quiver, gamma: tuple, parts: list[Representation], shifted: tuple) -> None:
    """Brick parts and a shifted part exhibit the generic cone of gamma: bricks,
    disjoint supports, no Ext between parts, and the indices add up to gamma. Each
    failure raises GenericityUncertified naming it. `decompose` records `end_dim` on
    every summand it returns, so the brick test computes no Hom."""
    for x in parts:
        if x.end_dim != 1:
            raise GenericityUncertified(f"non-brick summand {x.dims} with End dim {x.end_dim}")
    supp_shift = {i for i, s in enumerate(shifted) if s}
    for x in parts:
        if supp_shift & {i for i, d in enumerate(x.dims) if d}:
            raise GenericityUncertified(f"summand {x.dims} meets the shifted support {shifted}")
    pair = first_ext_pair(parts)
    if pair is not None:
        raise GenericityUncertified(f"Ext({pair[0].dims},{pair[1].dims}) nonzero on the sample")
    total = [sum(x.dims[k] for x in parts) for k in range(q.n)]
    recon = tuple(a - b for a, b in zip(et_map(q, total), shifted))
    if recon != gamma:
        raise GenericityUncertified(f"index reconstruction {recon} != {gamma}")


REFINE_ROUND_LIMIT = 24


class BlockPlan:
    """What one value's certified samples leave for its later ones (`_refine_blocks`).

    `blocks` are the blocks of the round that certified last. `rigid` is the first
    certified round whose parts are all rigid: its shape (`_round_shape`), parts and
    shifted part. A caller keeps one plan per value and never shares it between
    values; a fresh plan acts as no plan.
    """

    def __init__(self, blocks: Sequence[tuple[int, ...]] = ()):
        self.blocks: list[tuple[int, ...]] = list(blocks)
        self.rigid: tuple | None = None


def _round_shape(drawn: list) -> list:
    """(module dims, shifted part) of each block of a round; the block is their
    index E^t·dims - shifted, so it adds nothing to compare."""
    return [(mod.dims, sh) for mod, sh in drawn]


def _rigid_copy(q: Quiver, rigid: tuple | None, drawn: list) -> bool:
    """Whether the round has the shape of the certified all-rigid round `rigid` and
    every module it drew is rigid. One Hom rank per nonzero module: ext(M, M) =
    dim End M - <d, d> on a hereditary algebra."""
    if rigid is None or rigid[0] != _round_shape(drawn):
        return False
    return all(mod.is_zero() or hom_dim(mod, mod) == euler_form(q, mod.dims, mod.dims) for mod, _ in drawn)


def _refine_blocks(q: Quiver, gamma: tuple, sample, rng_seed: int, what: str, *, plan: BlockPlan) -> tuple:
    """(modules, parts, shifted) of the first round whose samples certify gamma.

    Blocks are indices, starting from `plan.blocks` when it holds blocks and from
    [gamma] otherwise. Round r calls sample(block, mix_seed(rng_seed, r), k) ->
    (module, shifted) for each block k, and decomposes each module. A non-brick X
    with m = dim End X dividing dim X replaces its block by the block's other
    summands, m copies of dim X / m and the negated shifted part. Otherwise the
    round must pass `_certify_pattern`, or the next round resamples the same
    blocks; after REFINE_ROUND_LIMIT rounds, GenericityUncertified gives `what`
    and the last reason.

    `plan`, kept by the caller for one value, takes the blocks of the round that
    certifies. They are a hint, not evidence: every round must pass
    `_certify_pattern`, which proves the generic cone of gamma whichever blocks
    were drawn (semicontinuity). The plan also keeps the value's first certified
    round whose parts are all rigid (<d, d> = 1). Its block modules are rigid:
    ext between its parts is 0, since each is an exceptional brick and the
    certificate found no Ext between any two. A later round on the same blocks
    still draws its own modules. If each has the certified dims and shifted part
    and dim End M = <dim M, dim M>, it is rigid too. A rigid module has an open
    orbit in the irreducible rep(d) (Voigt; Kac), so two rigid modules of one
    dimension vector are isomorphic (over Q too, by Noether-Deuring). The round
    is then the certified cone up to isomorphism and takes its parts, with no
    decomposition. Any other round decomposes the modules it drew and is
    certified as above.
    """
    blocks: list[tuple[int, ...]] = list(plan.blocks) or [gamma]
    last = "unsampled"
    for round_no in range(REFINE_ROUND_LIMIT):
        seed0 = mix_seed(rng_seed, round_no)
        drawn = [sample(b, seed0, k) for k, b in enumerate(blocks)]
        if _rigid_copy(q, plan.rigid, drawn):
            _, parts, shifted = plan.rigid
            return [mod for mod, _ in drawn], parts, shifted
        parts_per_block = [decompose(mod) for mod, _ in drawn]
        split = split_non_brick(parts_per_block)
        if split is not None:
            k, x, dims = split
            blocks = blocks[:k] + blocks[k + 1 :] + [et_map(q, d) for d in dims]
            if any(drawn[k][1]):
                blocks.append(tuple(-s for s in drawn[k][1]))
            last = f"split non-brick summand {x.dims}"
            continue
        parts = [x for pk in parts_per_block for x in pk]
        shifted = tuple(sum(sh[i] for _, sh in drawn) for i in range(q.n))
        try:
            _certify_pattern(q, gamma, parts, shifted)
        except GenericityUncertified as exc:
            last = str(exc)
            continue
        plan.blocks = blocks
        if plan.rigid is None and all(euler_form(q, x.dims, x.dims) == 1 for x in parts):
            plan.rigid = (_round_shape(drawn), parts, shifted)
        return [mod for mod, _ in drawn], parts, shifted
    raise GenericityUncertified(f"{what} ({last})")


def generic_representation(
    q: Quiver,
    d: Sequence[int],
    rng_seed: int = 0,
    bound: int = 10,
    *,
    plan: BlockPlan | None = None,
) -> tuple[Representation, list[Representation]]:
    """A certified generic representative of dimension d plus its indecomposable parts.

    Samples uniformly and checks the Kac certificate on the sample: every summand a
    brick (End = k) and all pairwise Ext^1 zero. Vanishing on a point is generic
    vanishing (semicontinuity), so a passing sample exhibits the generic
    decomposition. Sampling runs through `_refine_blocks`, as for a cone of index
    E^t·d with no shifted part: a summand X with dim End = m >= 2 is
    geometrically m conjugate summands of dimension (dim X)/m, so its block is
    split and resampled; this is what makes e.g. twice an isotropic Schur root
    land on a split rational sample. The representative is the direct sum of
    the block samples. `plan` is the caller's block plan for d, as in
    `_refine_blocks`, and a fresh one when the caller passes none.
    """
    d = vertex_vector(q, d, "dimension vector")
    if any(x < 0 for x in d):
        raise SubdimensionOutOfRange("dimension vector must be nonnegative")
    zero = (0,) * q.n

    def sample(block: tuple[int, ...], seed0: int, k: int) -> tuple[Representation, tuple[int, ...]]:
        x = random_representation(q, et_map(q, block, inverse=True), QQ, rng_seed=mix_seed(seed0, k), bound=bound)
        return x, zero

    what = f"could not certify a generic representative of {d}"
    plan = BlockPlan() if plan is None else plan
    samples, parts, _ = _refine_blocks(q, et_map(q, d), sample, mix_seed(rng_seed, 0), what, plan=plan)
    return direct_sum_all(samples, q, QQ), parts


# --- subspace enumeration over prime fields ---


@lru_cache(maxsize=4096)
def gaussian_binomial(n: int, k: int, q: int) -> int:
    if k < 0 or k > n:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


@lru_cache(maxsize=4096)
def _subspaces(p: int, d: int, e: int) -> tuple:
    """All e-dim subspaces U of F_p^d as (rows, ann): rows span U in RREF, ann cuts it out.

    ann holds one sparse functional per non-pivot column j, as (index, coefficient)
    pairs: y[j] - sum_r rows[r][j] * y[pivot_r]. A vector lies in U iff every
    functional vanishes on it.
    """
    from itertools import combinations, product

    out = []
    for pivots in combinations(range(d), e):
        free_positions = []
        for r in range(e):
            for c in range(pivots[r] + 1, d):
                if c not in pivots:
                    free_positions.append((r, c))
        for values in product(range(p), repeat=len(free_positions)):
            rows = [[0] * d for _ in range(e)]
            for r in range(e):
                rows[r][pivots[r]] = 1
            for (r, c), val in zip(free_positions, values):
                rows[r][c] = val
            ann = tuple(
                ((j, 1),) + tuple((pivots[r], p - rows[r][j]) for r in range(e) if rows[r][j])
                for j in range(d)
                if j not in pivots
            )
            out.append((tuple(tuple(r) for r in rows), ann))
    return tuple(out)


@lru_cache(maxsize=4096)
def _closed_vertices(weights: tuple[tuple[int, int], ...], edges: frozenset) -> frozenset:
    """The independent set of the graph `edges` whose complement has the smallest
    product of weights (v, g_v); on a tie, the smaller set, so a vertex of weight 1
    is never chosen."""
    best_key, best = None, frozenset()
    for mask in range(1 << len(weights)):
        closed = frozenset(v for i, (v, _) in enumerate(weights) if mask >> i & 1)
        if any(s in closed and t in closed for s, t in edges):
            continue
        cost = prod(g for v, g in weights if v not in closed)
        if best_key is None or (cost, len(closed)) < best_key:
            best_key, best = (cost, len(closed)), closed
    return best


def count_subreps(m: Representation, e: Sequence[int], cap: int = 5_000_000) -> int:
    """Number of subrepresentations of M with dimension vector e.

    An arrow is active when its map is nonzero mod p, e is positive at its source
    and below dim M at its target. A vertex touched by no active arrow contributes
    its subspace count, the Gaussian binomial [d_v, e_v]_p, as a factor. Among the
    touched vertices an independent set I of the active-arrow graph is closed: its
    complement, a vertex cover, is enumerated in echelon form, and a vertex v in I
    then has exactly [dim K - dim W, e_v - dim W]_p admissible subspaces U_v (0
    unless W lies in K), where W is the sum of the images of the chosen subspaces
    at its active in-neighbours and K the common preimage of the chosen subspaces
    at its active out-neighbours. I is chosen to minimise the product of [d_v, e_v]_p
    over the cover, closing fewer vertices on a tie. `cap` bounds that product, the
    number of subspace tuples the enumeration may visit; CapExceeded above it.
    """
    field = m.field
    if field.p is None:
        raise FieldMismatch("count_subreps needs a prime field")
    p = field.p
    e = vertex_vector(m.quiver, e, "e")
    if any(x < 0 or x > d for x, d in zip(e, m.dims)):
        raise SubdimensionOutOfRange(f"need 0 <= {e} <= {m.dims}")
    q = m.quiver
    dims = m.dims
    # an arrow constrains only if something maps somewhere it could escape
    active = [
        a
        for a, (s, t) in enumerate(q.arrows)
        if e[s - 1] > 0 and e[t - 1] < dims[t - 1] and any(x % p for row in m.maps[a] for x in row)
    ]
    touched = {v for a in active for v in q.arrows[a]}
    factor = prod(gaussian_binomial(dims[v - 1], e[v - 1], p) for v in range(1, q.n + 1) if v not in touched)
    if not active:
        return factor
    weights = tuple((v, gaussian_binomial(dims[v - 1], e[v - 1], p)) for v in sorted(touched))
    closed = _closed_vertices(weights, frozenset(q.arrows[a] for a in active))
    cost = prod(g for v, g in weights if v not in closed)
    if cost > cap:
        raise CapExceeded(f"enumeration cost {cost} exceeds cap {cap}")
    order = [v for v in q.topological_order() if v in touched and v not in closed]
    pos = {v: k for k, v in enumerate(order)}
    maps = {a: [[x % p for x in row] for row in m.maps[a]] for a in active}
    # What the choice at each level of the walk checks and fixes: the arrows from
    # earlier levels whose images must land in it, the arrows whose images and
    # the arrows (from closed vertices) whose pullbacks it determines, and the
    # closed vertices whose last neighbour it is.
    checks: list[list[int]] = [[] for _ in order]
    image_arrows: list[list[int]] = [[] for _ in order]
    pull_arrows: list[list[int]] = [[] for _ in order]
    finished: list[list[int]] = [[] for _ in order]
    ins: dict[int, list[int]] = {v: [] for v in closed}
    outs: dict[int, list[int]] = {v: [] for v in closed}
    for a in active:
        s, t = q.arrows[a]
        if s in closed:
            outs[s].append(a)
            pull_arrows[pos[t]].append(a)
        else:
            image_arrows[pos[s]].append(a)
            if t in closed:
                ins[t].append(a)
            else:
                checks[pos[t]].append(a)
    for v in closed:
        finished[max([pos[q.arrows[a][0]] for a in ins[v]] + [pos[q.arrows[a][1]] for a in outs[v]])].append(v)
    cands = [_subspaces(p, dims[v - 1], e[v - 1]) for v in order]
    images: dict[int, list[list[int]]] = {}  # a -> vectors spanning M(a)(U_s), none zero
    pullbacks: dict[int, list[list[int]]] = {}  # a -> functionals cutting out M(a)^-1(U_t)

    def closed_count(v: int) -> int:
        w = [y for a in ins[v] for y in images[a]]
        f = [x for a in outs[v] for x in pullbacks[a]]
        if any(sum(i * j for i, j in zip(x, y)) % p for x in f for y in w):
            return 0  # W is not inside K
        dim_w = linalg.rank(w, field)
        return gaussian_binomial(dims[v - 1] - linalg.rank(f, field) - dim_w, e[v - 1] - dim_w, p)

    def walk(k: int) -> int:
        if k == len(order):
            return 1
        total = 0
        for rows, ann in cands[k]:
            if any(sum(c * y[i] for i, c in fn) % p for a in checks[k] for y in images[a] for fn in ann):
                continue
            for a in image_arrows[k]:
                imgs = ([sum(x * y for x, y in zip(row, u)) % p for row in maps[a]] for u in rows)
                images[a] = [y for y in imgs if any(y)]
            for a in pull_arrows[k]:
                mat = maps[a]
                fns = ([sum(c * mat[i][col] for i, c in fn) % p for col in range(len(mat[0]))] for fn in ann)
                pullbacks[a] = [x for x in fns if any(x)]
            weight = 1
            for v in finished[k]:
                weight *= closed_count(v)
                if not weight:
                    break
            if weight:
                total += weight * walk(k + 1)
        return total

    return factor * walk(0)


# --- Euler characteristics via counting + interpolation ---


@dataclass(frozen=True)
class GrassmannianCount:
    e: tuple[int, ...]
    counts: dict[int, int]
    euler: int


def _primes():
    return filter(linalg.is_prime, itertools.count(2))


def _newton(points: list[tuple[int, int]]) -> list[int] | None:
    """Newton coefficients over Z of the polynomial through `points`, or None.

    At integer nodes every divided difference of an integer polynomial is an
    integer, and integer Newton coefficients give an integer polynomial, so None
    (a division that is not exact) means exactly that the polynomial is not integral.
    """
    xs = [x for x, _ in points]
    coeffs = [y for _, y in points]
    for k in range(1, len(xs)):
        for i in range(len(xs) - 1, k - 1, -1):
            num, den = coeffs[i] - coeffs[i - 1], xs[i] - xs[i - k]
            if num % den:
                return None
            coeffs[i] = num // den
    return coeffs


def _newton_eval(xs: list[int], coeffs: list[int], x: int) -> int:
    acc = 0
    for xk, c in zip(reversed(xs), reversed(coeffs)):
        acc = acc * (x - xk) + c
    return acc


class ReductionPool:
    """The good primes of a rational module M with M reduced mod each, grown on demand.

    A prime is good when it divides no denominator of M and dim End does not jump
    there (End is upper-semicontinuous, so a jump is exactly a degenerate reduction
    with possibly different counts). `cc_module` builds one pool per module, at the
    first subdimension vector e it must count, and shares it across the rest.
    """

    def __init__(self, m: Representation):
        self.m = m
        self._gen = _primes()
        self._reduced: list[tuple[int, Representation]] = []

    def at(self, k: int) -> tuple[int, Representation]:
        """The k-th good prime p and M over F_p."""
        m = self.m
        while len(self._reduced) <= k:
            p = next(self._gen)
            try:
                mp = make_representation(m.quiver, GF(p), m.dims, m.maps)
            except ZeroDivisionError:  # p divides a denominator of M
                continue
            if hom_dim(mp, mp) == m.end_dim:
                self._reduced.append((p, mp))
        return self._reduced[k]


def grassmannian_euler(
    m: Representation,
    e: Sequence[int],
    cap: int = 5_000_000,
    pool: ReductionPool | None = None,
) -> GrassmannianCount:
    """chi(Gr_e(M)) for a rational M: count points mod primes, interpolate, verify.

    The count is fitted by an integer polynomial of degree <= D on D+1 consecutive
    good primes of `pool` (built here when not given) and verified on the next two;
    the window slides, at most 24 times, past primes of bad reduction. D is the
    dimension bound min(sum e_v(d_v - e_v), <e, d-e> + ext(M,M)), with ext(M,M) =
    dim End M - <d,d>: the tangent space of Gr_e(M) at U is Hom(U, M/U), of
    dimension <e, d-e> + ext(U, M/U), and ext(U, M/U) <= ext(M,M) because
    Ext^1(M,M) -> Ext^1(U, M/U) is onto over a hereditary algebra. Good primes
    have the same End dimension, so the bound holds for every reduction too.
    When <e, d-e> + ext(M,M) < 0, Gr_e(M) is empty and its euler is 0 with no
    counts.
    """
    if m.field.p is not None:
        raise FieldMismatch("grassmannian_euler expects a rational representation")
    e = vertex_vector(m.quiver, e, "e")
    if any(x < 0 or x > d for x, d in zip(e, m.dims)):
        raise SubdimensionOutOfRange(f"need 0 <= {e} <= {m.dims}")
    if pool is None:
        pool = ReductionPool(m)
    rest = tuple(di - ei for ei, di in zip(e, m.dims))
    bound = euler_form(m.quiver, e, rest) + m.end_dim - euler_form(m.quiver, m.dims, m.dims)
    if bound < 0:
        return GrassmannianCount(e=e, counts={}, euler=0)
    deg = min(sum(ei * ri for ei, ri in zip(e, rest)), bound)
    counts: dict[int, int] = {}

    def count_at(k: int) -> tuple[int, int]:
        p, mp = pool.at(k)
        if p not in counts:
            counts[p] = count_subreps(mp, e, cap=cap)
        return p, counts[p]

    need = deg + 1
    for offset in range(25):
        pts = [count_at(offset + i) for i in range(need)]
        coeffs = _newton(pts)
        if coeffs is None:
            continue
        xs = [p for p, _ in pts]
        # two verification primes always; one more when the window slid, since
        # sliding is only justified by bad reduction at small primes
        extras = 2 if offset == 0 else 3
        checks = (count_at(offset + need + extra) for extra in range(extras))
        if all(_newton_eval(xs, coeffs, p) == count for p, count in checks):
            return GrassmannianCount(e=e, counts=dict(counts), euler=_newton_eval(xs, coeffs, 1))
    raise NotPolynomialCount(
        f"no degree-{deg} integer polynomial matches the counts for e={e} (dims {m.dims})"
    )
