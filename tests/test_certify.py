"""The certification engine, driven by stub draw functions."""

import pytest

from clusterchar.errors import CapExceeded, GenericityUncertified, NotPolynomialCount
from clusterchar.seeds import Reject, certify


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
    assert certify(draw, 8, (), "x") == 3
    assert calls == [(0, s) for s in range(5)]


def test_disagreement_costs_one_attempt():
    draw, calls = _draw([[1, 1, 2, 1, 1], [5] * 5])
    assert certify(draw, 8, (), "x") == 5
    assert len(calls) == 10


def test_key_decides_agreement_and_first_sample_is_returned():
    draw, _ = _draw([[("a", 1), ("a", 2), ("a", 3), ("a", 4), ("a", 5)]])
    assert certify(draw, 1, (), "x", key=lambda v: v[0]) == ("a", 1)


def test_retry_on_is_retried_and_other_exceptions_propagate():
    draw, calls = _draw([[1, NotPolynomialCount("p")], [2] * 5])
    assert certify(draw, 8, (NotPolynomialCount,), "x") == 2
    assert calls[:3] == [(0, 0), (0, 1), (1, 0)]
    draw, _ = _draw([[1, CapExceeded("cap")], [2] * 5])
    with pytest.raises(CapExceeded):
        certify(draw, 8, (NotPolynomialCount,), "x")


def test_accept_can_reject_a_sample_set():
    draw, _ = _draw([[1] * 5, [2] * 5])

    def accept(v):
        if v == 1:
            raise Reject("odd")
        return v * 10

    assert certify(draw, 8, (), "x", accept=accept) == 20
    with pytest.raises(GenericityUncertified, match=r"\(odd\)"):
        certify(_draw([[1] * 5])[0], 1, (), "x", accept=accept)


def test_accept_exceptions_other_than_reject_propagate():
    def accept(v):
        raise NotPolynomialCount("late")

    with pytest.raises(NotPolynomialCount):
        certify(_draw([[1] * 5])[0], 8, (NotPolynomialCount,), "x", accept=accept)


def test_exhausted_retries_name_the_last_reason():
    draw, calls = _draw([[1, 2, 1, 1, 1], [NotPolynomialCount("no poly")]])
    with pytest.raises(GenericityUncertified) as info:
        certify(draw, 2, (NotPolynomialCount,), "X((1, 0))")
    assert str(info.value) == "X((1, 0)) failed to certify after 2 rounds (NotPolynomialCount: no poly)"
    assert len(calls) == 6
    with pytest.raises(GenericityUncertified, match="after 1 rounds .sample disagreement across seeds"):
        certify(_draw([[1, 2, 1, 1, 1]])[0], 1, (), "x")
