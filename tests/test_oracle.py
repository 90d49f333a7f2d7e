"""Tests for the brute-force one-way communication oracle."""

import numpy as np
import pytest

from uccsim.core import BitString, TableFunction, protocol_error
from uccsim.distributions import NoisyHypercube, TableJoint
from uccsim.oracle import _set_partitions, best_protocol, exact_one_way_cc
from uccsim.parity import ParityFunction
from uccsim.uncertain import generate_instance


def uniform_joint(size_x, size_y):
    return TableJoint(np.full((size_x, size_y), 1.0 / (size_x * size_y)))


def reference_partitions(count):
    """Restricted growth strings, advanced one position at a time."""
    labels = [0] * count
    while True:
        yield labels.copy()
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


def reference_partition_error(weight1, weight_all, labels):
    err = 0.0
    for part in range(max(labels) + 1):
        rows = [x for x, lab in enumerate(labels) if lab == part]
        ones = weight1[rows].sum(axis=0)
        total = weight_all[rows].sum(axis=0)
        err += np.minimum(ones, total - ones).sum()
    return float(err)


def reference_best_protocol(f, mu, eps):
    """Pruned per-partition search: skip partitions with no fewer parts than the best."""
    ys = np.arange(f.size_y)
    weight_all = np.stack([mu.mass_array(x, ys) for x in range(f.size_x)])
    weight1 = np.stack([mu.mass_array(x, ys) * f.rows([x])[0] for x in range(f.size_x)])
    best, best_parts = None, f.size_x + 1
    for labels in reference_partitions(f.size_x):
        parts = max(labels) + 1
        if parts >= best_parts:
            continue
        if reference_partition_error(weight1, weight_all, labels) <= eps + 1e-12:
            best, best_parts = labels, parts
            if parts == 1:
                break
    if best is None:
        return None
    deciders = np.zeros((best_parts, f.size_y), dtype=np.uint8)
    for part in range(best_parts):
        rows = [x for x, lab in enumerate(best) if lab == part]
        ones = weight1[rows].sum(axis=0)
        total = weight_all[rows].sum(axis=0)
        deciders[part] = (ones * 2 > total).astype(np.uint8)
    return np.array(best), deciders


def assert_matches_reference(f, mu, eps):
    expect = reference_best_protocol(f, mu, eps)
    if expect is None:
        with pytest.raises(ValueError, match="no protocol"):
            best_protocol(f, mu, eps)
        return
    got = best_protocol(f, mu, eps)
    assert np.array_equal(got.assignment, expect[0])
    assert np.array_equal(got.deciders, expect[1])


def test_set_partitions_in_generator_order():
    bell = [1, 1, 2, 5, 15, 52, 203, 877, 4140]
    for count in range(1, 9):
        labels = _set_partitions(count)
        assert labels.shape == (bell[count], count)
        assert labels.tolist() == list(reference_partitions(count))


def test_best_protocol_matches_reference_search():
    """Same assignment and deciders as the per-partition search on 1200 seeded cases.

    Masses are uniform reals, small integers (tied masses and zero cells) or
    small integers with whole zero-mass columns; every 20th case has the
    full 8 rows, the rest 1 to 7.
    """
    rng = np.random.default_rng(105)
    for case in range(1200):
        size_x = 8 if case % 20 == 0 else int(rng.integers(1, 8))
        size_y = int(rng.integers(1, 17))
        kind = case % 3
        if kind == 0:
            weights = rng.random((size_x, size_y))
        elif kind == 1:
            weights = rng.integers(0, 3, size=(size_x, size_y)).astype(float)
        else:
            weights = rng.integers(1, 4, size=(size_x, size_y)).astype(float)
            weights[:, rng.random(size_y) < 0.3] = 0.0
        weights[0, 0] += weights.sum() == 0
        mu = TableJoint(weights / weights.sum())
        f = TableFunction(rng.integers(0, 2, size=(size_x, size_y)))
        eps = 0.0 if case % 4 == 0 else float(rng.uniform(0.0, 0.5))
        assert_matches_reference(f, mu, eps)


def test_best_protocol_matches_reference_on_parities():
    for n in (1, 2, 3):
        for p in (0.1, 0.25):
            mu = NoisyHypercube(n, p)
            for mask in range(1 << n):
                for eps in (0.0, 0.2):
                    assert_matches_reference(ParityFunction(BitString(mask, n), n), mu, eps)


def test_constant_function_needs_no_bits():
    mu = uniform_joint(8, 8)
    assert exact_one_way_cc(TableFunction.constant(8, 8, 1), mu, 0.0) == 0
    assert exact_one_way_cc(TableFunction.constant(8, 8, 0), mu, 0.0) == 0


def test_parity_needs_exactly_one_bit():
    for n in (1, 2, 3):
        for p in (0.1, 0.25):
            mu = NoisyHypercube(n, p)
            for mask in range(1 << n):
                f = ParityFunction(BitString(mask, n), n)
                expect = 0 if mask == 0 else 1
                assert exact_one_way_cc(f, mu, 0.0) == expect


def test_equality_needs_two_bits():
    table = np.eye(4, dtype=np.uint8)
    mu = uniform_joint(4, 4)
    assert exact_one_way_cc(TableFunction(table), mu, 0.0) == 2


def test_large_error_budget_allows_silence():
    table = np.eye(4, dtype=np.uint8)
    mu = uniform_joint(4, 4)
    assert exact_one_way_cc(TableFunction(table), mu, 0.25) == 0


def test_cost_monotone_in_eps():
    rng = np.random.default_rng(101)
    mu = uniform_joint(8, 8)
    for _ in range(5):
        f = TableFunction(rng.integers(0, 2, size=(8, 8)))
        costs = [exact_one_way_cc(f, mu, eps) for eps in (0.0, 0.05, 0.1, 0.3, 0.5)]
        assert all(a >= b for a, b in zip(costs, costs[1:]))


def test_best_protocol_attains_oracle_cost():
    rng = np.random.default_rng(102)
    mu = TableJoint((lambda t: t / t.sum())(rng.random((8, 8))))
    for eps in (0.0, 0.1):
        f = TableFunction(rng.integers(0, 2, size=(8, 8)))
        protocol = best_protocol(f, mu, eps)
        assert protocol.cost_bits() == exact_one_way_cc(f, mu, eps)
        assert protocol_error(protocol, f, mu) <= eps + 1e-12


def test_majority_deciders_are_locally_optimal():
    rng = np.random.default_rng(103)
    mu = TableJoint((lambda t: t / t.sum())(rng.random((8, 8)) + 0.05))
    f = TableFunction(rng.integers(0, 2, size=(8, 8)))
    protocol = best_protocol(f, mu, 0.2)
    base = protocol_error(protocol, f, mu)
    from uccsim.core import OneWayProtocol
    for i in range(protocol.message_count):
        for y in range(protocol.size_y):
            flipped = protocol.deciders.copy()
            flipped[i, y] ^= 1
            worse = OneWayProtocol(protocol.assignment, flipped)
            assert protocol_error(worse, f, mu) >= base - 1e-12


def test_generated_instance_respects_budget():
    rng = np.random.default_rng(104)
    for k in (0, 1, 2):
        inst = generate_instance(3, k, 0.0, 0.05, rng)
        assert exact_one_way_cc(inst.g, inst.mu, inst.eps) <= k


def test_domain_size_guard():
    mu = uniform_joint(16, 16)
    f = TableFunction.constant(16, 16, 0)
    with pytest.raises(ValueError):
        exact_one_way_cc(f, mu, 0.0)
