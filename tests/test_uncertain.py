"""Tests for the uncertain-context protocol, instance generation, and trials."""

import itertools
import math
import os
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from uccsim.core import distance, protocol_error
from uccsim.distributions import NoisyHypercube, ProductJoint, TableJoint, derive_rng
from uccsim.sampling import SharedRandomness, one_way_correlated_sample, truncation_limit
from uccsim import uncertain
from uccsim.uncertain import (
    choose_sample_count,
    decider_errors,
    estimate_uncertain_error,
    generate_instance,
    run_trials,
    run_uncertain_protocol,
    wilson_half_width,
)


def satisfies_budget(k, theta, m):
    return (2.0 ** k) * math.exp(-theta * theta * m / 75.0) <= 2.0 * theta / 5.0


def test_choose_sample_count_frozen_values():
    assert choose_sample_count(0, 0.5) == 483
    assert choose_sample_count(4, 0.2) == 9935


def test_choose_sample_count_is_smallest():
    for k, theta in ((0, 0.5), (4, 0.2), (2, 0.3), (6, 0.15)):
        m = choose_sample_count(k, theta)
        assert satisfies_budget(k, theta, m)
        assert not satisfies_budget(k, theta, m - 1)


def test_choose_sample_count_monotone_in_k():
    for k in range(5):
        assert choose_sample_count(k + 1, 0.3) > choose_sample_count(k, 0.3)


def test_choose_sample_count_validation():
    with pytest.raises(ValueError):
        choose_sample_count(2, 0.0)
    with pytest.raises(ValueError):
        choose_sample_count(2, 1.0)
    with pytest.raises(ValueError):
        choose_sample_count(-1, 0.3)


def test_generate_instance_zero_delta_keeps_f_equal_g():
    rng = np.random.default_rng(121)
    inst = generate_instance(4, 2, 0.0, 0.0, rng)
    assert np.array_equal(inst.f.to_table(), inst.g.to_table())
    assert distance(inst.f, inst.g, inst.mu) == 0.0


def test_generate_instance_zero_budget_gives_bob_only_g():
    rng = np.random.default_rng(122)
    inst = generate_instance(4, 0, 0.0, 0.05, rng)
    assert inst.protocol.message_count == 1
    g_table = inst.g.to_table()
    assert (g_table == g_table[0]).all()


def test_generate_instance_distance_lands_in_window():
    rng = np.random.default_rng(123)
    inst = generate_instance(8, 3, 0.0, 0.1, rng)
    d = distance(inst.f, inst.g, inst.mu)
    assert 0.09 <= d <= 0.1


def test_generate_instance_invariants():
    rng = np.random.default_rng(124)
    for mu in (None, NoisyHypercube(5, 0.1)):
        inst = generate_instance(5, 2, 0.1, 0.05, rng, mu=mu)
        assert inst.protocol.message_count <= 4
        assert distance(inst.f, inst.g, inst.mu) <= 0.05 + 1e-12
        err = protocol_error(inst.protocol, inst.g, inst.mu)
        assert 0.0 < err <= 0.1 + 1e-12


def test_generate_instance_rejects_bad_budgets():
    rng = np.random.default_rng(125)
    with pytest.raises(ValueError):
        generate_instance(4, 2, 0.0, 1.0, rng)
    with pytest.raises(ValueError):
        generate_instance(4, 2, 1.0, 0.1, rng)


def reference_corruption(table, mu, eps):
    """The eps-corruption as a plain loop: flip the lightest points while they fit."""
    table = table.copy()
    size = table.shape[1]
    masses = np.concatenate([mu.row_masses(x) for x in range(size)])
    flat = table.reshape(-1)
    spent = 0.0
    for point in np.argsort(masses, kind="stable"):
        if spent + masses[point] > eps + 1e-12:
            break
        flat[point] ^= 1
        spent += masses[point]
    return table


def test_eps_corruption_matches_reference_loop():
    for n, mu in ((5, None), (6, NoisyHypercube(6, 0.1)), (6, NoisyHypercube(6, 0.3))):
        for eps in (0.01, 0.05, 0.2, 0.5):
            for seed in range(3):
                inst = generate_instance(n, 2, eps, 0.05, np.random.default_rng(seed), mu=mu)
                clean = inst.protocol.deciders[inst.protocol.assignment]
                assert np.array_equal(inst.g.to_table(),
                                      reference_corruption(clean, inst.mu, eps))


def flip_set_law(masses, delta):
    """Exact law of the points flipped along a uniformly random order, stopping at overflow."""
    law = Counter()
    orders = list(itertools.permutations(range(len(masses))))
    for order in orders:
        spent, chosen = 0.0, []
        for point in order:
            if spent + masses[point] > delta + 1e-12:
                break
            chosen.append(point)
            spent += masses[point]
        law[frozenset(chosen)] += 1 / len(orders)
    return law


def test_flip_set_has_the_law_of_a_random_order_prefix():
    masses = [0.1, 0.2, 0.3, 0.4]
    delta = 0.35
    mu = TableJoint(np.reshape(masses, (2, 2)))
    law = flip_set_law(masses, delta)
    runs = 3000
    seen = Counter()
    for seed in range(runs):
        inst = generate_instance(1, 0, 0.0, delta, np.random.default_rng(seed), mu=mu)
        flipped = inst.f.to_table() != inst.g.to_table()
        seen[frozenset(np.flatnonzero(flipped).tolist())] += 1
    assert set(seen) <= set(law)
    for points, p in law.items():
        sigma = math.sqrt(runs * p * (1.0 - p))
        assert abs(seen[points] - runs * p) <= 4.0 * sigma, (sorted(points), seen[points], p)


def test_generate_instance_memory_below_old_permutation():
    n = 12
    tracemalloc.start()
    try:
        generate_instance(n, 2, 0.0, 0.05, np.random.default_rng(135))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (4 ** n) * 8


def test_generate_instance_rejects_oversized_domain():
    rng = np.random.default_rng(136)
    with pytest.raises(ValueError):
        generate_instance(15, 1, 0.0, 0.05, rng)
    with pytest.raises(ValueError):
        generate_instance(4, 30, 0.0, 0.05, rng)


def test_run_single_decider_uses_it():
    rng = np.random.default_rng(126)
    inst = generate_instance(4, 0, 0.0, 0.0, rng)
    for seed in range(20):
        x, y = inst.mu.sample(derive_rng(seed, 0))
        result = run_uncertain_protocol(inst, x, y, 0.4, SharedRandomness((20, seed)))
        assert result.chosen == 0
        assert result.errors.shape == (1,)
        assert result.output == inst.protocol.evaluate(x, y)


def test_decider_errors_equal_per_sample_gather():
    rng = np.random.default_rng(129)
    size_y = 64
    for k in range(7):
        deciders = rng.integers(0, 2, size=(1 << k, size_y), dtype=np.uint8)
        for m in (1, 2, 37, 9935):
            bob = rng.integers(0, size_y, size=m)
            alice_bits = rng.integers(0, 2, size=m, dtype=np.uint8)
            reference = (deciders[:, bob] != alice_bits[None, :]).mean(axis=1)
            got = decider_errors(deciders, bob, alice_bits)
            assert got.dtype == reference.dtype
            assert np.array_equal(got, reference)
            # Bob's list differs from the points Alice revealed f on
            alice = rng.integers(0, size_y, size=m)
            f_row = rng.integers(0, 2, size=size_y, dtype=np.uint8)
            reference = (deciders[:, bob] != f_row[alice][None, :]).mean(axis=1)
            assert np.array_equal(decider_errors(deciders, bob, f_row[alice]), reference)


def test_run_exact_instance_scores_true_decider_zero():
    rng = np.random.default_rng(127)
    inst = generate_instance(4, 2, 0.0, 0.0, rng)
    for seed in range(20):
        x, y = inst.mu.sample(derive_rng(seed, 1))
        result = run_uncertain_protocol(inst, x, y, 0.4, SharedRandomness((21, seed)))
        if result.sampling_ok:
            assert result.errors[inst.protocol.message(x)] == 0.0
        if result.chosen == inst.protocol.message(x):
            assert result.output == inst.g(x, y)


def test_run_communication_accounting_exact():
    rng = np.random.default_rng(128)
    inst = generate_instance(4, 2, 0.0, 0.05, rng)
    theta = 0.4
    m = choose_sample_count(2, theta)
    sample_eps = (theta / 10.0) ** 2
    for seed in range(5):
        x, y = inst.mu.sample(derive_rng(seed, 2))
        result = run_uncertain_protocol(inst, x, y, theta, SharedRandomness((22, seed)))
        _, _, stats = one_way_correlated_sample(inst.mu, x, m, sample_eps,
                                                SharedRandomness((22, seed)))
        assert result.bits == stats.bits_alice + m
        assert result.sampling_ok == stats.success


def test_error_concentration_and_triangle_audit():
    # The chosen decider's empirical score concentrates on its exact
    # conditional disagreement, which the two budget terms bound pointwise.
    rng = np.random.default_rng(129)
    theta = 0.3
    inst = generate_instance(5, 2, 0.05, 0.05, rng)
    f_table = inst.f.to_table()
    g_table = inst.g.to_table()
    deciders = inst.protocol.deciders
    within = runs = 0
    for seed in range(200):
        x, y = inst.mu.sample(derive_rng(seed, 3))
        cond = inst.mu.conditional_y_given_x(x).probs
        pi_x = inst.protocol.message(x)
        gamma = float(cond[f_table[x] != deciders[pi_x]].sum())
        delta_x = float(cond[f_table[x] != g_table[x]].sum())
        eps_x = float(cond[g_table[x] != deciders[pi_x]].sum())
        assert gamma <= delta_x + eps_x + 1e-12
        result = run_uncertain_protocol(inst, x, y, theta, SharedRandomness((23, seed)))
        if result.sampling_ok:
            runs += 1
            within += abs(result.errors[pi_x] - gamma) <= theta / 5.0
    assert runs > 150
    assert within / runs >= 1.0 - 2.0 * theta / 5.0


def test_estimated_error_within_theorem_bound():
    rng = np.random.default_rng(130)
    theta = 0.3
    inst = generate_instance(6, 2, 0.0, 0.05, rng)
    estimate = estimate_uncertain_error(inst, theta, 2000, master_seed=31)
    bound = 0.0 + 2 * 0.05 + theta
    assert estimate.error_rate <= bound + estimate.half_width
    assert estimate.trials == 2000


def test_exact_context_error_stays_below_slack():
    rng = np.random.default_rng(131)
    theta = 0.3
    inst = generate_instance(5, 2, 0.0, 0.0, rng)
    estimate = estimate_uncertain_error(inst, theta, 1000, master_seed=32)
    assert estimate.error_rate <= theta + estimate.half_width


def test_product_mu_mean_bits_bound():
    rng = np.random.default_rng(132)
    theta = 0.4
    k = 1
    inst = generate_instance(4, k, 0.0, 0.05, rng,
                             mu=ProductJoint.uniform_bits(4))
    m = choose_sample_count(k, theta)
    limit = truncation_limit(inst.mu, m, (theta / 10.0) ** 2)
    estimate = estimate_uncertain_error(inst, theta, 200, master_seed=33)
    assert estimate.mean_bits <= m + limit


def test_estimate_requires_trials():
    rng = np.random.default_rng(133)
    inst = generate_instance(4, 1, 0.0, 0.0, rng)
    with pytest.raises(ValueError):
        estimate_uncertain_error(inst, 0.3, 0, master_seed=1)


def test_run_trials_parallel_matches_serial():
    rng = np.random.default_rng(134)
    inst = generate_instance(4, 1, 0.0, 0.05, rng)
    serial = run_trials(inst, 0.4, 40, master_seed=41, jobs=1)
    parallel = run_trials(inst, 0.4, 40, master_seed=41, jobs=4)
    assert serial == parallel
    assert [r.trial for r in serial] == list(range(40))


class SerialPool:
    """Stand-in for ProcessPoolExecutor: records max_workers and maps in-process."""

    started = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_run_trials_starts_no_more_workers_than_trials_or_cores(monkeypatch):
    rng = np.random.default_rng(135)
    inst = generate_instance(4, 1, 0.0, 0.05, rng)
    serial = run_trials(inst, 0.4, 3, master_seed=42, jobs=1)
    monkeypatch.setattr(uncertain, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(SerialPool, "started", [])
    for cores, expect in ((64, 3), (2, 2)):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        assert run_trials(inst, 0.4, 3, master_seed=42, jobs=10 ** 6) == serial
        assert SerialPool.started[-1] == expect
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert run_trials(inst, 0.4, 3, master_seed=42, jobs=10 ** 6) == serial
    assert SerialPool.started == [3, 2]


def test_wilson_half_width_values():
    w = wilson_half_width(0.5, 10_000)
    assert w == pytest.approx(1.96 * 0.005, rel=0.01)
    assert 0.0 < wilson_half_width(0.0, 100) < 0.05
    with pytest.raises(ValueError):
        wilson_half_width(0.5, 0)
