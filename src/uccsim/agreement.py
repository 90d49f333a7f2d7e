"""Agreement distillation audits: Hamming balls, covering codes and entropy accounting.

Bob-only functions on a size-|Y| domain are stored as |Y|-bit integers.
A strategy maps each function to a representative; if every representative
stays within normalized distance delta2, the output of a uniform input
provably keeps min-entropy (1 - h(delta2))|Y|, and the audit checks that
by exact enumeration.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from .distributions import _check_bit_count, binary_entropy, popcount_table

AUDIT_MAX_BITS = 20


def hamming_ball_size(size_y: int, radius: int) -> int:
    """Exact number of size_y-bit strings within the given Hamming radius."""
    if radius < 0 or radius > size_y:
        raise ValueError("radius must lie in 0..size_y")
    return sum(math.comb(size_y, i) for i in range(radius + 1))


def identity_strategy(f: int) -> int:
    return f


def constant_strategy(value: int):
    def strategy(_f: int) -> int:
        return value
    return strategy


class NearestCodewordStrategy:
    """Map each function to the nearest codeword; ties go to list order."""

    def __init__(self, codewords, size_y: int):
        if not codewords:
            raise ValueError("code must be nonempty")
        self.codewords = [int(c) for c in codewords]
        self.size_y = size_y

    def __call__(self, f: int) -> int:
        return min(self.codewords, key=lambda c: (f ^ c).bit_count())


def greedy_covering_code(size_y: int, radius: int) -> list[int]:
    """Greedy set cover of {0,1}^size_y by Hamming balls; 2^size_y is at most MAX_SIDE.

    Each step takes the first word whose ball holds the most uncovered words.
    """
    _check_bit_count(size_y)
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    words = np.arange(1 << size_y)
    ball = np.flatnonzero(popcount_table(size_y) <= radius)
    uncovered = np.ones(len(words), dtype=bool)
    code: list[int] = []
    while uncovered.any():
        gain = np.zeros(len(words), dtype=np.int64)
        for offset in ball:
            gain += uncovered[words ^ offset]
        best = int(np.argmax(gain))
        code.append(best)
        uncovered[best ^ ball] = False
    return code


def agreement_entropy_audit(strategy, size_y: int, delta2: float) -> float:
    """Exact min-entropy of strategy(f) for uniform f, with the distance check.

    Raises if any input lands farther than delta2 from its representative;
    otherwise asserts the entropy floor (1 - h(delta2)) * size_y and returns
    the exact min-entropy in bits.
    """
    if size_y > AUDIT_MAX_BITS:
        raise ValueError(f"exact audit capped at {AUDIT_MAX_BITS} bits")
    if not 0.0 <= delta2 <= 0.5:
        raise ValueError("delta2 must lie in [0, 1/2]")
    counts: Counter[int] = Counter()
    budget = delta2 * size_y + 1e-9
    for f in range(1 << size_y):
        q = strategy(f)
        if (f ^ q).bit_count() > budget:
            raise ValueError(f"strategy output too far from input f={f}")
        counts[q] += 1
    h_inf = size_y - math.log2(max(counts.values()))
    floor = (1.0 - binary_entropy(delta2)) * size_y
    if h_inf < floor - 1e-9:
        raise AssertionError(f"min-entropy {h_inf} below floor {floor}")
    return h_inf


def chernoff_bound(n: int, mean: float, kind: str, param: float) -> float:
    """Tail bounds for sums of independent identical 0/1 variables.

    kind "lower"/"upper" take a relative deviation delta in [0, 1] and bound
    the lower/upper tail by exp(-delta^2 mean / 2) and exp(-delta^2 mean / 3);
    kind "additive" takes an absolute deviation a and returns exp(-2 a^2 / n).
    """
    if n < 1 or mean < 0:
        raise ValueError("need n >= 1 and mean >= 0")
    if kind in ("lower", "upper"):
        if not 0.0 <= param <= 1.0:
            raise ValueError("relative deviation must lie in [0, 1]")
        return math.exp(-param * param * mean / (2.0 if kind == "lower" else 3.0))
    if kind == "additive":
        if param < 0.0:
            raise ValueError("absolute deviation must be nonnegative")
        return math.exp(-2.0 * param * param / n)
    raise ValueError(f"unknown bound kind {kind!r}")
