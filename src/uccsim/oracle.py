"""Brute-force exact one-way communication cost for tiny instances.

Ground truth for everything else: enumerate all set partitions of Alice's
domain, give each part the mass-weighted majority decider, and take the
cheapest partition meeting the error budget.  Feasible because message
names are immaterial, so partitions stand in for all assignments.
"""

from __future__ import annotations

import numpy as np

from .core import BoolFunction, OneWayProtocol, distance
from .distributions import JointDistribution

MAX_X = 8
MAX_Y = 16


def _set_partitions(count: int):
    """Yield partitions of range(count) as block-index vectors (restricted growth)."""
    labels = [0] * count
    while True:
        yield labels.copy()
        # advance the restricted growth string
        i = count - 1
        while i > 0:
            if labels[i] <= max(labels[:i]):
                labels[i] += 1
                for j in range(i + 1, count):
                    labels[j] = 0
                break
            labels[i] = 0
            i -= 1
        else:
            return


def _check_size(f: BoolFunction, mu: JointDistribution) -> None:
    if f.size_x > MAX_X or f.size_y > MAX_Y:
        raise ValueError(f"oracle domain capped at {MAX_X} x {MAX_Y}")
    if (mu.size_x, mu.size_y) != (f.size_x, f.size_y):
        raise ValueError("distribution rectangle does not match the function")


def _partition_error(weight1: np.ndarray, weight_all: np.ndarray, labels: list[int]) -> float:
    """Best achievable error for one partition: per part and column take the minority mass."""
    err = 0.0
    parts = max(labels) + 1
    for part in range(parts):
        rows = [x for x, lab in enumerate(labels) if lab == part]
        ones = weight1[rows].sum(axis=0)
        total = weight_all[rows].sum(axis=0)
        err += np.minimum(ones, total - ones).sum()
    return float(err)


def best_protocol(f: BoolFunction, mu: JointDistribution, eps: float) -> OneWayProtocol:
    """A cost-minimal one-way protocol with error at most eps.

    One pruned search: partitions with no fewer parts than the best found so
    far are skipped, so the result is the first partition, in enumeration
    order, with the fewest parts.  Each part decides by mass-weighted majority.
    """
    _check_size(f, mu)
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    weight_all = np.stack([mu.row_masses(x) for x in range(f.size_x)])
    weight1 = np.stack([mu.row_masses(x) * f.row(x) for x in range(f.size_x)])
    best, best_parts = None, f.size_x + 1
    for labels in _set_partitions(f.size_x):
        parts = max(labels) + 1
        if parts >= best_parts:
            continue
        if _partition_error(weight1, weight_all, labels) <= eps + 1e-12:
            best, best_parts = labels, parts
            if parts == 1:
                break
    if best is None:
        raise ValueError("no protocol meets the error budget")
    deciders = np.zeros((best_parts, f.size_y), dtype=np.uint8)
    for part in range(best_parts):
        rows = [x for x, lab in enumerate(best) if lab == part]
        ones = weight1[rows].sum(axis=0)
        total = weight_all[rows].sum(axis=0)
        deciders[part] = (ones * 2 > total).astype(np.uint8)
    return OneWayProtocol(np.array(best), deciders)


def exact_one_way_cc(f: BoolFunction, mu: JointDistribution, eps: float) -> int:
    """Minimum ceil(log2(parts)) of a one-way protocol with error at most eps."""
    return best_protocol(f, mu, eps).cost_bits()


def certify_family_membership(f: BoolFunction, g: BoolFunction, mu: JointDistribution,
                              k: int, eps: float, delta: float) -> bool:
    """True iff both functions cost at most k bits at error eps and are delta-close."""
    if distance(f, g, mu) > delta + 1e-12:
        return False
    return exact_one_way_cc(f, mu, eps) <= k and exact_one_way_cc(g, mu, eps) <= k
