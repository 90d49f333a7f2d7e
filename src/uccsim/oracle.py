"""Brute-force exact one-way communication cost for tiny instances.

Ground truth for everything else: enumerate all set partitions of Alice's
domain, give each part the mass-weighted majority decider, and take the
cheapest partition meeting the error budget.  Feasible because message
names are immaterial, so partitions stand in for all assignments.  A part's
error and decider depend only on its set of rows, so both come from one
table of per-column sums over all 2^|X| row sets.
"""

from __future__ import annotations

import numpy as np

from .core import BoolFunction, OneWayProtocol
from .distributions import JointDistribution

MAX_X = 8
MAX_Y = 16


def _set_partitions(count: int) -> np.ndarray:
    """Every partition of range(count) as a row of block labels.

    Rows are the restricted growth strings in lexicographic order: each
    label is at most one more than the largest label before it.
    """
    labels = np.zeros((1, count), dtype=np.uint8)
    for i in range(1, count):
        choices = labels[:, :i].max(axis=1).astype(np.intp) + 2
        starts = np.cumsum(choices) - choices
        labels = np.repeat(labels, choices, axis=0)
        labels[:, i] = np.arange(len(labels)) - np.repeat(starts, choices)
    return labels


def check_size(size_x: int, size_y: int) -> None:
    """ValueError unless a size_x x size_y domain is within the oracle's cap."""
    if size_x > MAX_X or size_y > MAX_Y:
        raise ValueError(f"oracle domain capped at {MAX_X} x {MAX_Y}")


def best_protocol(f: BoolFunction, mu: JointDistribution, eps: float) -> OneWayProtocol:
    """A cost-minimal one-way protocol with error at most eps.

    The result is the first partition, in enumeration order, with the fewest
    parts among those meeting eps.  Each part decides by mass-weighted
    majority; a partition errs by its parts' minority masses.
    """
    check_size(f.size_x, f.size_y)
    if (mu.size_x, mu.size_y) != (f.size_x, f.size_y):
        raise ValueError("distribution rectangle does not match the function")
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    weight_all = mu.to_table()
    weight1 = weight_all * f.to_table()
    # ones[s] and total[s]: column sums over row set s, its rows added in index order
    ones = np.zeros((1 << f.size_x, f.size_y))
    total = np.zeros_like(ones)
    for x in range(f.size_x):
        ones[1 << x: 2 << x] = ones[: 1 << x] + weight1[x]
        total[1 << x: 2 << x] = total[: 1 << x] + weight_all[x]
    set_error = np.minimum(ones, total - ones).sum(axis=1)
    labels = _set_partitions(f.size_x)
    shifts = np.arange(f.size_x, dtype=np.uint8)
    # row set of each part of each partition; absent parts get the empty set
    masks = np.stack([((labels == part) << shifts).sum(axis=1, dtype=np.uint8)
                      for part in range(f.size_x)], axis=1)
    error = np.zeros(len(labels))
    for part_sets in masks.T:
        error += set_error[part_sets]
    feasible = np.flatnonzero(error <= eps + 1e-12)
    if feasible.size == 0:
        raise ValueError("no protocol meets the error budget")
    parts = labels.max(axis=1) + 1
    best = feasible[np.argmin(parts[feasible])]
    part_sets = masks[best, :parts[best]]
    deciders = (ones[part_sets] * 2 > total[part_sets]).astype(np.uint8)
    return OneWayProtocol(labels[best], deciders)


def exact_one_way_cc(f: BoolFunction, mu: JointDistribution, eps: float) -> int:
    """Minimum ceil(log2(parts)) of a one-way protocol with error at most eps."""
    return best_protocol(f, mu, eps).cost_bits()
