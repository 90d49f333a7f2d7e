"""Tests for perturbed-pair sampling, ball counting, and entropy audits."""

import math

import numpy as np
import pytest

from uccsim.agreement import (
    NearestCodewordStrategy,
    agreement_entropy_audit,
    chernoff_bound,
    constant_strategy,
    greedy_covering_code,
    hamming_ball_size,
    identity_strategy,
    min_entropy,
    normalized_distance,
    sample_perturbed_pair,
)
from uccsim.distributions import Distribution, binary_entropy, popcount_table


def test_sample_perturbed_pair_zero_rho():
    rng = np.random.default_rng(91)
    for _ in range(20):
        f, g = sample_perturbed_pair(30, 0.0, rng)
        assert f == g


def test_sample_perturbed_pair_flip_rate():
    rng = np.random.default_rng(92)
    size = 10_000
    f, g = sample_perturbed_pair(size, 0.25, rng)
    assert abs(normalized_distance(f, g, size) - 0.25) <= 0.02


def test_sample_perturbed_pair_closeness_tail():
    # Doubling the expected distance is a relative deviation of 1, bounded
    # by exp(-rho * size / 3).
    rng = np.random.default_rng(93)
    size, rho, samples = 120, 0.1, 10_000
    bound = math.exp(-rho * size / 3)
    exceed = sum(
        normalized_distance(*sample_perturbed_pair(size, rho, rng), size) > 2 * rho
        for _ in range(samples))
    assert exceed / samples <= bound


def test_hamming_ball_size_values():
    assert hamming_ball_size(12, 0) == 1
    assert hamming_ball_size(12, 3) == 1 + 12 + 66 + 220
    assert hamming_ball_size(12, 12) == 1 << 12
    assert hamming_ball_size(12, 3) <= 2 ** (binary_entropy(0.25) * 12)


def test_hamming_ball_entropy_bound_grid():
    for size in range(1, 25):
        for delta2 in np.arange(0.05, 0.46, 0.05):
            count = hamming_ball_size(size, math.floor(delta2 * size))
            assert count <= 2 ** (binary_entropy(delta2) * size) + 1e-9


def test_min_entropy_values():
    assert min_entropy(Distribution.uniform(16)) == pytest.approx(4.0, abs=1e-12)
    assert min_entropy(Distribution.point_mass(8, 2)) == 0.0
    assert min_entropy([0.5, 0.25, 0.25]) == pytest.approx(1.0, abs=1e-12)


def test_audit_identity_strategy():
    size = 10
    assert agreement_entropy_audit(identity_strategy, size, 0.0) == pytest.approx(
        float(size), abs=1e-12)


def test_audit_constant_strategy_rejected():
    with pytest.raises(ValueError, match="too far"):
        agreement_entropy_audit(constant_strategy(0), 10, 0.2)


def test_audit_nearest_codeword_strategy():
    size, delta2 = 10, 0.2
    code = greedy_covering_code(size, 2)
    strategy = NearestCodewordStrategy(code, size)
    h_inf = agreement_entropy_audit(strategy, size, delta2)
    assert h_inf >= (1 - binary_entropy(delta2)) * size - 1e-9
    assert h_inf >= 2.78


def test_sixteen_word_code_cannot_cover_radius_two():
    # 16 balls of radius 2 cover at most 16 * 56 = 896 of the 1024 functions,
    # so every 16-word strategy must be rejected at delta2 = 0.2.
    size = 10
    assert 16 * hamming_ball_size(size, 2) < 1 << size
    code = greedy_covering_code(size, 2)[:16]
    with pytest.raises(ValueError, match="too far"):
        agreement_entropy_audit(NearestCodewordStrategy(code, size), size, 0.2)


def test_greedy_code_covers_at_radius():
    size, radius = 8, 2
    code = greedy_covering_code(size, radius)
    for f in range(1 << size):
        assert min((f ^ c).bit_count() for c in code) <= radius


def reference_covering_code(size_y, radius):
    """Greedy cover that scans every word for the largest gain, first one wins."""
    size = 1 << size_y
    pc = popcount_table(size_y)
    uncovered = np.ones(size, dtype=bool)
    words = np.arange(size)
    code = []
    while uncovered.any():
        best_word, best_gain = -1, -1
        for w in words:
            gain = int(np.count_nonzero(uncovered & (pc[words ^ w] <= radius)))
            if gain > best_gain:
                best_word, best_gain = int(w), gain
        code.append(best_word)
        uncovered &= pc[words ^ best_word] > radius
    return code


def test_greedy_code_matches_per_word_scan():
    points = [(size, radius) for size in range(1, 9) for radius in range(size + 1)]
    for size, radius in points + [(9, 3), (10, 2)]:
        assert greedy_covering_code(size, radius) == reference_covering_code(size, radius)


def test_greedy_code_rejects_negative_radius():
    with pytest.raises(ValueError):
        greedy_covering_code(6, -1)


def test_nearest_codeword_tie_break_deterministic():
    code = [0b0000, 0b1111]
    strategy = NearestCodewordStrategy(code, 4)
    # 0b0011 is at distance 2 from both words; the earlier word wins.
    assert strategy(0b0011) == 0b0000
    assert strategy(0b0111) == 0b1111


def test_chernoff_bound_values():
    assert chernoff_bound(100, 50, "lower", 0.0) == 1.0
    assert chernoff_bound(100, 50, "upper", 0.0) == 1.0
    assert chernoff_bound(100, 50, "additive", 20.0) == pytest.approx(
        math.exp(-8.0), rel=1e-12)
    assert chernoff_bound(60, 6, "upper", 1.0) == pytest.approx(
        math.exp(-2.0), rel=1e-12)


def test_chernoff_bound_validation():
    with pytest.raises(ValueError):
        chernoff_bound(100, 50, "upper", 1.5)
    with pytest.raises(ValueError):
        chernoff_bound(100, 50, "lower", -0.1)
    with pytest.raises(ValueError):
        chernoff_bound(100, 50, "middle", 0.5)
    with pytest.raises(ValueError):
        chernoff_bound(0, 50, "upper", 0.5)


def test_chernoff_empirical_dominance_small():
    rng = np.random.default_rng(94)
    n, p, samples = 200, 0.3, 20_000
    mean = n * p
    draws = rng.binomial(n, p, size=samples)
    for delta in (0.2, 0.5):
        lower = np.mean(draws < (1 - delta) * mean)
        upper = np.mean(draws > (1 + delta) * mean)
        assert lower <= chernoff_bound(n, mean, "lower", delta)
        assert upper <= chernoff_bound(n, mean, "upper", delta)
    for a in (10.0, 25.0):
        two_sided = np.mean(np.abs(draws - mean) > a)
        assert two_sided <= 2 * chernoff_bound(n, mean, "additive", a)
