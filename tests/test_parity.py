"""Tests for parity functions, their protocols, and the close-pair samplers."""

import math

import numpy as np
import pytest

from uccsim.core import BitString, distance, protocol_error
from uccsim.distributions import NoisyHypercube, ProductJoint, TableJoint
from uccsim.parity import (
    ParityFunction,
    parity_distance,
    parity_eval,
    parity_protocol,
    sample_close_masks,
    sample_game_instance,
)


def test_parity_eval_empty_mask():
    rng = np.random.default_rng(61)
    empty = BitString(0, 5)
    for _ in range(20):
        x = BitString(int(rng.integers(32)), 5)
        y = BitString(int(rng.integers(32)), 5)
        assert parity_eval(empty, x, y) == 0


def test_parity_eval_equal_inputs():
    full = BitString(0b11111, 5)
    for v in range(32):
        x = BitString(v, 5)
        assert parity_eval(full, x, x) == 0


def test_parity_eval_hand_example():
    # Masks {1,3} on x=101, y=011: x xor y = 110, whose bits 1 and 3 are 0 and 1.
    s = BitString(0b101, 3)
    x = BitString(0b101, 3)
    y = BitString(0b011, 3)
    assert parity_eval(s, x, y) == 1


def test_parity_eval_symmetry():
    rng = np.random.default_rng(62)
    for _ in range(50):
        s = BitString(int(rng.integers(16)), 4)
        x = BitString(int(rng.integers(16)), 4)
        y = BitString(int(rng.integers(16)), 4)
        assert parity_eval(s, x, y) == parity_eval(s, y, x)


def test_parity_eval_length_mismatch():
    with pytest.raises(ValueError):
        parity_eval(BitString(0, 2), BitString(0, 2), BitString(0, 3))


def test_parity_function_matches_eval():
    for n in (1, 2, 3):
        for mask in range(1 << n):
            f = ParityFunction(BitString(mask, n), n)
            table = f.to_table()
            for x in range(1 << n):
                for y in range(1 << n):
                    expect = parity_eval(BitString(mask, n), BitString(x, n), BitString(y, n))
                    assert f(x, y) == table[x, y] == expect


def test_parity_protocol_zero_error_any_distribution():
    n = 3
    mus = (ProductJoint.uniform_bits(n), NoisyHypercube(n, 0.2), NoisyHypercube(n, 0.45))
    for mask in range(1 << n):
        protocol = parity_protocol(mask, n)
        f = ParityFunction(BitString(mask, n), n)
        assert protocol.cost_bits() == 1
        assert protocol.message_count == 2
        for mu in mus:
            assert protocol_error(protocol, f, mu) == 0.0


def test_parity_protocol_empty_mask_canonical_form():
    protocol = parity_protocol(0, 2)
    assert protocol.message_count == 2
    assert all(protocol.message(x) == 0 for x in range(4))
    assert all(protocol.evaluate(x, y) == 0 for x in range(4) for y in range(4))


def test_parity_distance_same_mask():
    assert parity_distance(BitString(0b101, 3), BitString(0b101, 3), 0.3) == 0.0


def test_parity_distance_single_bit_gap():
    p = 0.25
    got = parity_distance(BitString(0b01, 2), BitString(0b11, 2), p)
    assert got == pytest.approx(p, abs=1e-15)
    mu = TableJoint(NoisyHypercube(2, p).to_table())
    f = ParityFunction(BitString(0b01, 2), 2)
    g = ParityFunction(BitString(0b11, 2), 2)
    assert got == pytest.approx(distance(f, g, mu), abs=1e-12)


def test_parity_distance_two_bit_gap_example():
    # Gap 2 at p=0.25 gives (1 - 0.5^2)/2 = 0.375, below p*q*n = 0.5 at q=1/2.
    p, n = 0.25, 4
    s = BitString(0b0011, n)
    t = BitString(0b0000, n)
    got = parity_distance(s, t, p)
    assert got == pytest.approx(0.375, abs=1e-15)
    assert got <= p * 0.5 * n
    mu = TableJoint(NoisyHypercube(n, p).to_table())
    exhaustive = distance(ParityFunction(s, n), ParityFunction(t, n), mu)
    assert got == pytest.approx(exhaustive, abs=1e-12)


def test_parity_distance_matches_table_distance_exhaustively():
    for n in (1, 2, 3):
        for p in (0.1, 0.25):
            mu = TableJoint(NoisyHypercube(n, p).to_table())
            for a in range(1 << n):
                for b in range(1 << n):
                    closed = parity_distance(a, b, p, n=n)
                    table = distance(ParityFunction(BitString(a, n), n),
                                     ParityFunction(BitString(b, n), n), mu)
                    assert closed == pytest.approx(table, abs=1e-12)


def test_sample_close_masks_zero_gap():
    rng = np.random.default_rng(71)
    for _ in range(20):
        s, t = sample_close_masks(16, 0.0, rng)
        assert s.value == t.value


def test_sample_close_masks_gap_rate():
    rng = np.random.default_rng(72)
    n = 10_000
    s, t = sample_close_masks(n, 0.2, rng)
    rate = (s.value ^ t.value).bit_count() / n
    assert abs(rate - 0.1) <= 0.01


def test_sample_close_masks_membership_tail():
    # The gap exceeds q*n only when a Binomial(n, q/2) doubles its mean;
    # the multiplicative upper-tail bound at that point is exp(-(q/2)n/3).
    rng = np.random.default_rng(73)
    n, q, samples = 60, 0.2, 4000
    bound = math.exp(-(q / 2) * n / 3)
    exceed = 0
    for _ in range(samples):
        s, t = sample_close_masks(n, q, rng)
        if (s.value ^ t.value).bit_count() > q * n:
            exceed += 1
    assert exceed / samples <= bound


def test_sample_game_instance_shapes_and_rates():
    rng = np.random.default_rng(74)
    n, p, q = 64, 0.2, 0.3
    mask_flips = input_flips = 0
    samples = 400
    for _ in range(samples):
        (s, x), (t, y) = sample_game_instance(n, p, q, rng)
        assert s.n == x.n == t.n == y.n == n
        mask_flips += (s.value ^ t.value).bit_count()
        input_flips += (x.value ^ y.value).bit_count()
    assert abs(mask_flips / (samples * n) - q / 2) <= 0.01
    assert abs(input_flips / (samples * n) - p) <= 0.01
