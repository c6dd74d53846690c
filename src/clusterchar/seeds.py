"""Deterministic integer seed derivation (no reliance on salted hashes), and the
certification engine every certified computation runs through."""

from __future__ import annotations

from typing import Callable

from .errors import GenericityUncertified, NotPolynomialCount

_MULT = 6364136223846793005
_INC = 1442695040888963407
_MASK = (1 << 63) - 1


def mix_seed(seed: int, *tags: int) -> int:
    """Fold integer tags into a seed; deterministic across runs and platforms."""
    acc = seed & _MASK
    for t in tags:
        acc = (acc * _MULT + (t & _MASK) * _INC + 1) & _MASK
    return acc


def certify(
    draw: Callable[[int, int], object],
    retries: int,
    what: str,
    key: Callable[[object], object] | None = None,
):
    """The first sample of the first attempt whose five samples agree.

    `draw(attempt, s)` gives sample s; a sample that does not certify or a count that
    is not polynomial (GenericityUncertified, NotPolynomialCount) ends the attempt.
    Samples agree when their `key` (default: the sample) is equal. Whether a sample
    is generic is decided by `replab._certify_pattern`, never here. Other exceptions
    propagate; after `retries` attempts GenericityUncertified names the last reason.
    """
    last = "no attempt"
    for attempt in range(retries):
        try:
            samples = [draw(attempt, s) for s in range(5)]
        except (GenericityUncertified, NotPolynomialCount) as exc:
            last = f"{type(exc).__name__}: {exc}"
            continue
        keys = samples if key is None else [key(x) for x in samples]
        if all(k == keys[0] for k in keys[1:]):
            return samples[0]
        last = "sample disagreement across seeds"
    raise GenericityUncertified(f"{what} failed to certify after {retries} rounds ({last})")
