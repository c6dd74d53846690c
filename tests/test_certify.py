"""The certification engine and the block-refinement loop, driven by stub draw functions."""

import pytest

from clusterchar import QQ, direct_sum, simple_representation, validate_quiver
from clusterchar.errors import CapExceeded, GenericityUncertified, NotPolynomialCount
from clusterchar.quiver import et_map
from clusterchar.replab import REFINE_ROUND_LIMIT, BlockPlan, _refine_blocks, make_representation
from clusterchar.seeds import certify, mix_seed


def _draw(table):
    """A draw that replays table[attempt][s], raising it when it is an exception."""
    calls = []

    def draw(attempt, s):
        calls.append((attempt, s))
        value = table[attempt][s]
        if isinstance(value, Exception):
            raise value
        return value

    return draw, calls


def test_first_agreeing_attempt_wins():
    draw, calls = _draw([[3] * 5, [4] * 5])
    assert certify(draw, 8, "x") == 3
    assert calls == [(0, s) for s in range(5)]


def test_disagreement_costs_one_attempt():
    draw, calls = _draw([[1, 1, 2, 1, 1], [5] * 5])
    assert certify(draw, 8, "x") == 5
    assert len(calls) == 10


def test_key_decides_agreement_and_first_sample_is_returned():
    draw, _ = _draw([[("a", 1), ("a", 2), ("a", 3), ("a", 4), ("a", 5)]])
    assert certify(draw, 1, "x", key=lambda v: v[0]) == ("a", 1)


def test_uncertified_samples_are_retried_and_other_exceptions_propagate():
    for reason in (NotPolynomialCount("p"), GenericityUncertified("g")):
        draw, calls = _draw([[1, reason], [2] * 5])
        assert certify(draw, 8, "x") == 2
        assert calls[:3] == [(0, 0), (0, 1), (1, 0)]
    draw, _ = _draw([[1, CapExceeded("cap")], [2] * 5])
    with pytest.raises(CapExceeded):
        certify(draw, 8, "x")


def test_exhausted_retries_name_the_last_reason():
    draw, calls = _draw([[1, 2, 1, 1, 1], [NotPolynomialCount("no poly")]])
    with pytest.raises(GenericityUncertified) as info:
        certify(draw, 2, "X((1, 0))")
    assert str(info.value) == "X((1, 0)) failed to certify after 2 rounds (NotPolynomialCount: no poly)"
    assert len(calls) == 6
    with pytest.raises(GenericityUncertified, match="after 1 rounds .sample disagreement across seeds"):
        certify(_draw([[1, 2, 1, 1, 1]])[0], 1, "x")


# --- the block-refinement loop, driven by stub samplers ---

SEED = 41
# the Kronecker quiver plus an isolated vertex 3, where a cone may be shifted
KRON3 = validate_quiver(3, [(1, 2), (1, 2)])
A2 = validate_quiver(2, [(1, 2)])


def _regular(a, b):
    """The brick of dimension (1, 1, 0) at the point [a : b] of P^1: no Hom or Ext between two points."""
    return make_representation(KRON3, QQ, (1, 1, 0), [[[a]], [[b]]])


R1, R2 = _regular(1, 0), _regular(0, 1)
S1, S2 = simple_representation(A2, 1), simple_representation(A2, 2)


def _sampler(monkeypatch, table):
    """A sampler that replays table[round][k] = (module, parts, shifted) as (module,
    shifted) and records its calls. `replab.decompose` gives a module the parts it
    was drawn with, or decomposes it when they are None."""
    from clusterchar import replab

    rounds = {mix_seed(SEED, r): r for r in range(len(table))}
    calls, parts_of = [], {}
    decompose = replab.decompose

    def sample(block, seed0, k):
        calls.append((rounds[seed0], block, k))
        module, parts, shifted = table[rounds[seed0]][k]
        parts_of[id(module)] = parts
        return module, shifted

    def injected(m):
        parts = parts_of.get(id(m))
        return decompose(m) if parts is None else parts

    monkeypatch.setattr(replab, "decompose", injected)
    return sample, calls


def test_non_brick_dividing_its_dimension_refines_its_block(monkeypatch):
    x = direct_sum(R1, R2)  # End = Q x Q: m = 2 divides (2, 2, 0)
    gamma = et_map(KRON3, (2, 2, 0))
    half = et_map(KRON3, (1, 1, 0))
    zero = (0, 0, 0)
    sample, calls = _sampler(monkeypatch, [[(x, [x], zero)], [(R1, [R1], zero), (R2, [R2], zero)]])
    modules, parts, shifted = _refine_blocks(KRON3, gamma, sample, SEED, "x", plan=BlockPlan())
    assert calls == [(0, gamma, 0), (1, half, 0), (1, half, 1)]
    assert modules == [R1, R2] and parts == [R1, R2] and shifted == zero


def test_non_brick_not_dividing_its_dimension_resamples_the_same_blocks(monkeypatch):
    bundle = direct_sum(S1, S2)  # End = Q x Q: m = 2 does not divide (1, 1)
    brick = make_representation(A2, QQ, (1, 1), [[[1]]])
    gamma = et_map(A2, (1, 1))
    sample, calls = _sampler(monkeypatch, [[(bundle, [bundle], (0, 0))], [(brick, [brick], (0, 0))]])
    modules, parts, _ = _refine_blocks(A2, gamma, sample, SEED, "x", plan=BlockPlan())
    assert calls == [(0, gamma, 0), (1, gamma, 0)]
    assert modules == [brick] and parts == [brick]
    sample, _ = _sampler(monkeypatch, [[(bundle, [bundle], (0, 0))]] * REFINE_ROUND_LIMIT)
    with pytest.raises(GenericityUncertified, match=r"^x \(non-brick summand \(1, 1\) with End dim 2\)$"):
        _refine_blocks(A2, gamma, sample, SEED, "x", plan=BlockPlan())


def test_a_cones_shifted_part_returns_as_a_negative_block(monkeypatch):
    x = direct_sum(R1, R2)
    shift = (0, 0, 1)
    gamma = tuple(a - b for a, b in zip(et_map(KRON3, (2, 2, 0)), shift))
    half = et_map(KRON3, (1, 1, 0))
    zero = (0, 0, 0)
    sample, calls = _sampler(monkeypatch, [
        [(x, [x], shift)],
        [(R1, [R1], zero), (R2, [R2], zero), (None, [], shift)],
    ])
    _, parts, shifted = _refine_blocks(KRON3, gamma, sample, SEED, "x", plan=BlockPlan())
    assert calls == [(0, gamma, 0), (1, half, 0), (1, half, 1), (1, (0, 0, -1), 2)]
    assert parts == [R1, R2] and shifted == shift


def test_last_round_names_the_last_reason(monkeypatch):
    bundle = direct_sum(S1, S2)
    gamma = et_map(A2, (1, 1))
    # round 0: a non-brick that cannot split; every later round: bricks with Ext(S1, S2) != 0
    later = [[(bundle, [S1, S2], (0, 0))]] * (REFINE_ROUND_LIMIT - 1)
    sample, calls = _sampler(monkeypatch, [[(bundle, [bundle], (0, 0))]] + later)
    with pytest.raises(GenericityUncertified) as info:
        _refine_blocks(A2, gamma, sample, SEED, "no pattern", plan=BlockPlan())
    assert str(info.value) == "no pattern (Ext((1, 0),(0, 1)) nonzero on the sample)"
    assert len(calls) == REFINE_ROUND_LIMIT == 24


# --- a value's block plan ---

HALF = et_map(KRON3, (1, 1, 0))
ZERO = (0, 0, 0)
R3 = _regular(1, 1)


def test_a_stored_plan_is_sampled_from_round_0(monkeypatch):
    gamma = et_map(KRON3, (2, 2, 0))
    plan = BlockPlan([HALF, HALF])
    sample, calls = _sampler(monkeypatch, [[(R1, [R1], ZERO), (R2, [R2], ZERO)]])
    modules, parts, shifted = _refine_blocks(KRON3, gamma, sample, SEED, "x", plan=plan)
    assert calls == [(0, HALF, 0), (0, HALF, 1)]
    assert modules == [R1, R2] and parts == [R1, R2] and shifted == ZERO
    assert plan.blocks == [HALF, HALF]


def test_a_run_that_never_certifies_leaves_the_plan_unchanged(monkeypatch):
    # round 0 splits (2, 2, 0); every later round draws one point twice, with Ext(R1, R1) != 0
    gamma = et_map(KRON3, (2, 2, 0))
    later = [[(R1, [R1], ZERO)] * 2] * (REFINE_ROUND_LIMIT - 1)
    sample, calls = _sampler(monkeypatch, [[(direct_sum(R1, R2), [direct_sum(R1, R2)], ZERO)]] + later)
    for start in ([], [gamma]):
        plan = BlockPlan(list(start))
        with pytest.raises(GenericityUncertified, match=r"Ext\(\(1, 1, 0\),\(1, 1, 0\)\)"):
            _refine_blocks(KRON3, gamma, sample, SEED, "x", plan=plan)
        assert plan.blocks == start
    assert calls[:3] == [(0, gamma, 0), (1, HALF, 0), (1, HALF, 1)]


def test_a_planned_block_that_shows_a_non_brick_keeps_refining(monkeypatch):
    gamma = et_map(KRON3, (3, 3, 0))
    double = et_map(KRON3, (2, 2, 0))
    plan = BlockPlan([HALF, double])
    x = direct_sum(R2, R3)
    sample, calls = _sampler(monkeypatch, [
        [(R1, [R1], ZERO), (x, [x], ZERO)],
        [(R1, [R1], ZERO), (R2, [R2], ZERO), (R3, [R3], ZERO)],
    ])
    _, parts, _ = _refine_blocks(KRON3, gamma, sample, SEED, "x", plan=plan)
    assert calls == [(0, HALF, 0), (0, double, 1), (1, HALF, 0), (1, HALF, 1), (1, HALF, 2)]
    assert parts == [R1, R2, R3]
    assert plan.blocks == [HALF, HALF, HALF]


def test_the_plan_after_success_is_the_certified_blocks_with_the_negated_shift(monkeypatch):
    x = direct_sum(R1, R2)
    shift = (0, 0, 1)
    gamma = tuple(a - b for a, b in zip(et_map(KRON3, (2, 2, 0)), shift))
    sample, _ = _sampler(monkeypatch, [[(x, [x], shift)], [(R1, [R1], ZERO), (R2, [R2], ZERO), (None, [], shift)]])
    plan = BlockPlan()
    _refine_blocks(KRON3, gamma, sample, SEED, "x", plan=plan)
    assert plan.blocks == [HALF, HALF, (0, 0, -1)]
    # the next sample of the value starts from it and certifies in round 0
    sample, calls = _sampler(monkeypatch, [[(R1, [R1], ZERO), (R2, [R2], ZERO), (None, [], shift)]])
    _, parts, shifted = _refine_blocks(KRON3, gamma, sample, SEED, "x", plan=plan)
    assert calls == [(0, HALF, 0), (0, HALF, 1), (0, (0, 0, -1), 2)]
    assert parts == [R1, R2] and shifted == shift


# --- a value's first all-rigid round: later rounds take its parts when their modules are rigid ---

BRICK = make_representation(A2, QQ, (1, 1), [[[1]]])  # rigid: dim End = 1 = <(1, 1), (1, 1)>
BUNDLE = direct_sum(S1, S2)  # the same dims, not rigid: dim End = 2, Ext(S1, S2) != 0


def _counting_decompose(monkeypatch):
    """The modules `_refine_blocks` decomposes, in order."""
    from clusterchar import replab

    real, seen = replab.decompose, []

    def counting(m):
        seen.append(m)
        return real(m)

    monkeypatch.setattr(replab, "decompose", counting)
    return seen


def test_a_rigid_round_with_the_certified_dims_takes_the_certified_parts(monkeypatch):
    gamma = et_map(A2, (1, 1))
    decomposed = _counting_decompose(monkeypatch)
    plan = BlockPlan()
    sample, _ = _sampler(monkeypatch, [[(BRICK, None, (0, 0))]])
    _, first, _ = _refine_blocks(A2, gamma, sample, SEED, "x", plan=plan)
    assert decomposed == [BRICK] and plan.rigid is not None
    other = make_representation(A2, QQ, (1, 1), [[[-7]]])  # another point of the open orbit
    sample, calls = _sampler(monkeypatch, [[(other, None, (0, 0))]])
    modules, parts, shifted = _refine_blocks(A2, gamma, sample, SEED, "x", plan=plan)
    assert calls == [(0, gamma, 0)] and decomposed == [BRICK]
    assert modules == [other] and parts is first and shifted == (0, 0)


def test_a_non_rigid_round_with_the_certified_dims_is_decomposed_and_certified_as_before(monkeypatch):
    gamma = et_map(A2, (1, 1))
    decomposed = _counting_decompose(monkeypatch)
    plan = BlockPlan()
    _refine_blocks(A2, gamma, _sampler(monkeypatch, [[(BRICK, None, (0, 0))]])[0], SEED, "x", plan=plan)
    # round 0 draws S1 ⊕ S2: its dims and shifted part are the certified ones, but it
    # is decomposed and refused (Ext(S1, S2) != 0); round 1 draws a brick again
    sample, calls = _sampler(monkeypatch, [[(BUNDLE, None, (0, 0))], [(BRICK, None, (0, 0))]])
    modules, parts, _ = _refine_blocks(A2, gamma, sample, SEED, "x", plan=plan)
    assert decomposed == [BRICK, BUNDLE] and len(calls) == 2
    assert modules == [BRICK] and [p.dims for p in parts] == [(1, 1)]
    sample, _ = _sampler(monkeypatch, [[(BUNDLE, None, (0, 0))]] * REFINE_ROUND_LIMIT)
    with pytest.raises(GenericityUncertified, match=r"Ext\(\(1, 0\),\(0, 1\)\)"):
        _refine_blocks(A2, gamma, sample, SEED, "x", plan=plan)


def test_a_certified_round_with_a_part_that_is_not_rigid_is_not_kept(monkeypatch):
    # the Kronecker brick (1, 1, 0) has <d, d> = 0: it is certified, never kept
    gamma = et_map(KRON3, (1, 1, 0))
    plan = BlockPlan()
    _refine_blocks(KRON3, gamma, _sampler(monkeypatch, [[(R1, None, ZERO)]])[0], SEED, "x", plan=plan)
    assert plan.blocks == [gamma] and plan.rigid is None
