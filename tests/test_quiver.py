from itertools import combinations, permutations, product
from math import prod
from pathlib import Path

import pytest

from clusterchar import (
    antisym_form_simple,
    euler_form,
    euler_matrix,
    injective_representation,
    positive_roots,
    projective_representation,
    quiver_from_dict,
    quiver_from_text,
    validate_quiver,
)
from clusterchar.errors import (
    BadVertexIndex,
    CycleFound,
    DimensionMismatch,
    LoopFound,
    NotDynkin,
    TwoCycleFound,
)
from clusterchar.quiver import et_map, is_dynkin

QUIVERS = Path(__file__).resolve().parent.parent / "quivers"


def test_validate_a2():
    q = validate_quiver(2, [(1, 2)])
    assert q.n == 2 and q.arrows == ((1, 2),)


def test_validate_loop():
    with pytest.raises(LoopFound):
        validate_quiver(1, [(1, 1)])


def test_validate_three_cycle():
    with pytest.raises(CycleFound):
        validate_quiver(3, [(1, 2), (2, 3), (3, 1)])


def test_validate_two_cycle():
    with pytest.raises(TwoCycleFound):
        validate_quiver(2, [(1, 2), (2, 1)])


def test_validate_bad_index():
    with pytest.raises(BadVertexIndex):
        validate_quiver(2, [(1, 3)])


def test_euler_matrix_a2(a2):
    ed = euler_matrix(a2)
    assert ed.E == ((1, -1), (0, 1))
    assert ed.C == ((-1, -1), (1, 0))


def test_euler_matrix_no_arrows():
    q = validate_quiver(3, [])
    assert euler_matrix(q).E == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_euler_matrix_a3(a3):
    assert euler_matrix(a3).E == ((1, -1, 0), (0, 1, -1), (0, 0, 1))


def test_euler_matrix_inverse_exact():
    """On every shipped quiver, the affine Ã2, the 3-Kronecker and a chain of double
    arrows: E·E^{-1} = I, E^{-1}[i][j] is the number of paths i -> j, E^{-t} is its
    transpose and C = -E^t·E^{-1}."""
    quivers = [quiver_from_text(p.read_text()) for p in sorted(QUIVERS.glob("*.quiver"))]
    quivers += [validate_quiver(3, [(1, 2), (2, 3), (1, 3)]), validate_quiver(2, [(1, 2)] * 3),
                validate_quiver(3, [(1, 2), (1, 2), (2, 3), (2, 3)])]
    assert len(quivers) == 7
    for q in quivers:
        ed = euler_matrix(q)
        n = q.n
        prod = [
            [sum(ed.E[i][k] * ed.Einv[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        assert prod == [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        assert ed.Einv == tuple(tuple(len(q.paths(i + 1, j + 1)) for j in range(n)) for i in range(n))
        assert ed.Etinv == tuple(zip(*ed.Einv))
        assert ed.C == tuple(tuple(-sum(ed.E[k][i] * ed.Einv[k][j] for k in range(n)) for j in range(n))
                             for i in range(n))


def test_et_map_is_the_euler_matrix_transpose_product(a2, a3, kronecker):
    d4 = validate_quiver(4, [(1, 2), (3, 2), (4, 2)])
    kronecker3 = validate_quiver(2, [(1, 2), (1, 2), (1, 2)])
    for q in (a2, a3, kronecker, d4, kronecker3):
        e = euler_matrix(q).E
        for v in product(range(-2, 3), repeat=q.n):
            want = tuple(sum(e[j][i] * v[j] for j in range(q.n)) for i in range(q.n))
            assert et_map(q, v) == want
            assert et_map(q, want, inverse=True) == v


def test_euler_form_values(a2, kronecker):
    assert euler_form(a2, (1, 0), (1, 1)) == 0
    assert euler_form(a2, (5, 7), (0, 0)) == 0
    assert euler_form(kronecker, (1, 1), (1, 1)) == 0


def test_euler_form_length_check(a2):
    with pytest.raises(DimensionMismatch):
        euler_form(a2, (1,), (1, 0))


def test_antisym_form(a2):
    assert antisym_form_simple(a2, 1, (1, 0)) == 0
    assert antisym_form_simple(a2, 2, (1, 0)) == 1
    assert antisym_form_simple(a2, 1, (0, 1)) == -1


def test_positive_roots_small(a1, a2, a3):
    assert positive_roots(a1) == ((1,),)
    assert positive_roots(a2) == ((0, 1), (1, 0), (1, 1))
    roots3 = positive_roots(a3)
    assert len(roots3) == 6
    assert (1, 1, 1) in roots3 and (1, 1, 0) in roots3 and (0, 1, 1) in roots3


def test_positive_roots_rejects_kronecker(kronecker):
    with pytest.raises(NotDynkin):
        positive_roots(kronecker)


def test_roots_have_self_pairing_one(a2, a3):
    for q in (a2, a3):
        for beta in positive_roots(q):
            assert euler_form(q, beta, beta) == 1


def test_coxeter_sends_projective_index_to_injective(a2, a3):
    # C acts in index coordinates: C·ind(P_i) = -ind(I_i).
    for q in (a2, a3):
        ed = euler_matrix(q)
        n = q.n
        for i in range(1, n + 1):
            dp = projective_representation(q, i).dims
            di = injective_representation(q, i).dims
            ind_p = tuple(sum(ed.E[j][k] * dp[j] for j in range(n)) for k in range(n))
            ind_i = tuple(sum(ed.E[j][k] * di[j] for j in range(n)) for k in range(n))
            c_ind_p = tuple(sum(ed.C[k][j] * ind_p[j] for j in range(n)) for k in range(n))
            assert c_ind_p == tuple(-x for x in ind_i)


def test_text_and_dict_round_trip(a3):
    assert quiver_from_text(a3.to_text()) == a3
    assert quiver_from_dict(a3.to_dict()) == a3


def test_paths_a3(a3):
    assert a3.paths(1, 3) == [(0, 1)]
    assert a3.paths(1, 1) == [()]
    assert a3.paths(3, 1) == []


_SIGNED_PERMUTATIONS = {
    k: [(perm, (-1) ** sum(perm[i] > perm[j] for i, j in combinations(range(k), 2))) for perm in permutations(range(k))]
    for k in range(1, 5)
}


def _leading_minors_positive(q) -> bool:
    """Sylvester's criterion by definition: every leading principal minor of the
    symmetrized Euler form, each by the Leibniz formula, is positive."""
    s = [[2 * (i == j) for j in range(q.n)] for i in range(q.n)]
    for a, b in q.arrows:
        s[a - 1][b - 1] -= 1
        s[b - 1][a - 1] -= 1
    return all(
        sum(sign * prod(s[i][perm[i]] for i in range(k)) for perm, sign in _SIGNED_PERMUTATIONS[k]) > 0
        for k in range(1, q.n + 1)
    )


def _small_quivers():
    """Every acyclic quiver on at most 4 vertices with at most 2 arrows between any pair."""
    for n in range(1, 5):
        pairs = list(combinations(range(1, n + 1), 2))
        for counts in product(range(-2, 3), repeat=len(pairs)):
            arrows = [(i, j) if c > 0 else (j, i) for (i, j), c in zip(pairs, counts) for _ in range(abs(c))]
            try:
                yield validate_quiver(n, arrows)
            except CycleFound:
                continue


def test_is_dynkin_matches_the_leading_minors():
    quivers = list(_small_quivers())
    quivers += [quiver_from_text(f.read_text()) for f in sorted(QUIVERS.glob("*.quiver"))]
    verdicts = [is_dynkin(q) for q in quivers]
    assert verdicts == [_leading_minors_positive(q) for q in quivers]
    assert len(quivers) > 5000 and 0 < sum(verdicts) < len(quivers)
