"""Tests for bitstrings, boolean functions, protocols, and distance measures."""

import math

import numpy as np
import pytest

from uccsim.core import (
    DISTANCE_BLOCK,
    BitString,
    BoolFunction,
    OneWayProtocol,
    TableFunction,
    distance,
    protocol_error,
)
from uccsim.distributions import NoisyHypercube, ProductJoint, TableJoint
from uccsim.parity import ParityFunction, parity_protocol


def noisy_pair_table(n, p):
    """Reference joint table: x uniform over n bits, y a p-noisy copy of x."""
    size = 1 << n
    table = np.empty((size, size))
    for x in range(size):
        for y in range(size):
            d = bin(x ^ y).count("1")
            table[x, y] = (0.5 ** n) * (p ** d) * ((1 - p) ** (n - d))
    return table


def brute_distance(f, g, table):
    """Reference disagreement mass computed with plain loops."""
    total = 0.0
    for x in range(table.shape[0]):
        for y in range(table.shape[1]):
            if f(x, y) != g(x, y):
                total += table[x, y]
    return total


def test_bitstring_indexing_is_one_based_little_endian():
    # bit 1 is the least significant, printed rightmost
    assert str(BitString(0b0001, 4)) == "0001"
    assert str(BitString(0b1000, 4)) == "1000"


def test_bitstring_string_round_trip():
    for text in ("0110", "1", "0000", "10110"):
        b = BitString(int(text, 2), len(text))
        assert str(b) == text
    assert str(BitString(0, 0)) == ""


def test_bitstring_validation():
    with pytest.raises(ValueError):
        BitString(4, 2)
    with pytest.raises(ValueError):
        BitString(-1, 2)
    with pytest.raises(ValueError):
        BitString(0, -1)


def test_call_domain_mismatch():
    f = TableFunction.constant(4, 4, 0)
    with pytest.raises(IndexError):
        f(4, 0)
    with pytest.raises(ValueError):
        f(BitString(0, 3), 0)


def test_call_rejects_non_integer_indices():
    f = TableFunction(np.eye(4, dtype=np.uint8))
    for x in (2.7, 2.0, "3", None, np.float64(2.0)):
        with pytest.raises(TypeError):
            f(x, 2)
        with pytest.raises(TypeError):
            f(2, x)
    with pytest.raises(TypeError):
        OneWayProtocol([0, 1, 0, 1], np.eye(2, 4, dtype=np.uint8)).message(1.5)
    with pytest.raises(TypeError):
        NoisyHypercube(2, 0.1).row_masses(1.0)
    # numpy integers and bitstrings of the domain's length still index
    assert f(np.int64(2), np.uint8(2)) == 1
    assert f(np.array(3), 3) == 1
    assert f(BitString(0b10, 2), BitString(0b10, 2)) == 1


def test_table_function_validation():
    with pytest.raises(ValueError):
        TableFunction([[0, 2], [1, 0]])
    with pytest.raises(ValueError):
        TableFunction([0, 1])
    with pytest.raises(ValueError):
        TableFunction([[-1, 0]])
    with pytest.raises(ValueError):
        TableFunction([[2.0, 0]])


def test_distance_identical_is_zero():
    rng = np.random.default_rng(7)
    f = TableFunction(rng.integers(0, 2, size=(8, 8)))
    mu = TableJoint(noisy_pair_table(3, 0.2))
    assert distance(f, f, mu) == 0.0


def test_distance_complement_is_one():
    rng = np.random.default_rng(8)
    table = rng.integers(0, 2, size=(8, 8))
    f = TableFunction(table)
    g = TableFunction(1 - table)
    mu = TableJoint(noisy_pair_table(3, 0.1))
    assert distance(f, g, mu) == pytest.approx(1.0, abs=1e-12)
    parity = ParityFunction(BitString(0b01, 2), 2)
    flipped = TableFunction(1 - parity.to_table())
    assert distance(parity, flipped, ProductJoint.uniform_bits(2)) == pytest.approx(1.0, abs=1e-12)


def test_distance_adjacent_parities_equals_flip_rate():
    # Masks differing in one bit disagree exactly when that coordinate flips.
    p = 0.25
    mu = TableJoint(noisy_pair_table(2, p))
    f = ParityFunction(BitString(0b01, 2), 2)
    g = ParityFunction(BitString(0b11, 2), 2)
    assert distance(f, g, mu) == pytest.approx(p, abs=1e-15)


def test_distance_matches_brute_force():
    rng = np.random.default_rng(11)
    mu_table = rng.random((8, 8))
    mu_table /= mu_table.sum()
    mu = TableJoint(mu_table)
    for _ in range(20):
        f = TableFunction(rng.integers(0, 2, size=(8, 8)))
        g = TableFunction(rng.integers(0, 2, size=(8, 8)))
        assert distance(f, g, mu) == pytest.approx(
            brute_distance(f, g, mu_table), abs=1e-12)


def test_distance_matches_brute_force_across_row_blocks():
    n = 11
    size = 1 << n
    assert size * size > 2 * DISTANCE_BLOCK
    mu = NoisyHypercube(n, 0.2)
    rng = np.random.default_rng(13)
    f = TableFunction(rng.integers(0, 2, size=(size, size)))
    g_table = f.to_table().copy()
    g_table[rng.random((size, size)) < 0.01] ^= 1
    g = TableFunction(g_table)
    expected = math.fsum(float(mass) for x in range(size)
                         for mass in mu.row_masses(x)[f.row(x) != g.row(x)])
    assert distance(f, g, mu) == pytest.approx(expected, abs=1e-12)
    assert distance(f, f, mu) == 0.0


class RowReads(BoolFunction):
    """Only row(x): rows() falls back to stacking single rows."""

    def __init__(self, inner):
        self.inner = inner
        self.size_x, self.size_y = inner.size_x, inner.size_y

    def row(self, x):
        return self.inner.row(x)


def test_block_reads_match_row_reads():
    n = 11
    size = 1 << n
    mu = NoisyHypercube(n, 0.1)
    rng = np.random.default_rng(14)
    protocol = OneWayProtocol(rng.integers(0, 4, size=size),
                              rng.integers(0, 2, size=(4, size)))
    p = protocol.as_function()
    g_table = p.rows(0, size).copy()
    g_table[rng.random((size, size)) < 0.01] ^= 1
    g = TableFunction(g_table)
    parity = ParityFunction(BitString(5, 3), 3)
    for fn in (p, g, parity):
        for lo, hi in ((0, 1), (1, 5), (0, fn.size_x)):
            assert np.array_equal(fn.rows(lo, hi), RowReads(fn).rows(lo, hi))
    # same blocks, same order of additions: bit for bit
    assert distance(p, g, mu) == distance(RowReads(p), RowReads(g), mu)
    assert protocol_error(protocol, g, mu) == distance(RowReads(p), RowReads(g), mu)


def test_distance_symmetry_and_triangle():
    rng = np.random.default_rng(12)
    mu_table = rng.random((8, 8))
    mu_table /= mu_table.sum()
    mu = TableJoint(mu_table)
    for _ in range(20):
        f, g, h = (TableFunction(rng.integers(0, 2, size=(8, 8))) for _ in range(3))
        dfg = distance(f, g, mu)
        assert dfg == pytest.approx(distance(g, f, mu), abs=1e-15)
        assert dfg <= distance(f, h, mu) + distance(h, g, mu) + 1e-12


def test_distance_domain_mismatch():
    mu = TableJoint(noisy_pair_table(2, 0.1))
    f = TableFunction.constant(4, 4, 0)
    g = TableFunction.constant(4, 8, 0)
    with pytest.raises(ValueError):
        distance(f, g, mu)
    with pytest.raises(ValueError):
        distance(g, g, mu)


def test_structured_function_matches_its_table():
    for n in (1, 2, 3):
        for mask in range(1 << n):
            f = ParityFunction(BitString(mask, n), n)
            t = TableFunction(f.to_table())
            for x in range(1 << n):
                for y in range(1 << n):
                    assert f(x, y) == t(x, y)


def test_protocol_evaluate_and_cost():
    protocol = OneWayProtocol([0, 1, 2, 0], np.eye(3, 4, dtype=np.uint8))
    assert protocol.message_count == 3
    assert protocol.cost_bits() == 2
    assert protocol.evaluate(1, 1) == 1
    assert protocol.evaluate(3, 0) == 1
    assert protocol.evaluate(3, 2) == 0
    single = OneWayProtocol([0, 0], [[1, 0]])
    assert single.cost_bits() == 0


def test_protocol_validation():
    with pytest.raises(ValueError):
        OneWayProtocol([0, 2], [[0, 1]])
    with pytest.raises(ValueError):
        OneWayProtocol([0, 0], [[0, 3]])
    with pytest.raises(ValueError):
        OneWayProtocol([[0]], [[0, 1]])
    for assignment, deciders in (([0, 0], [[0, 2]]), ([0, 0], [[-1, 0]]),
                                 ([0, 1], np.array([[1, 0], [0, -1]]))):
        with pytest.raises(ValueError):
            OneWayProtocol(assignment, deciders)


def test_protocol_error_parity_protocol_is_exact():
    mu = TableJoint(noisy_pair_table(2, 0.3))
    mask = BitString(0b10, 2)
    protocol = parity_protocol(mask, 2)
    assert protocol_error(protocol, ParityFunction(mask, 2), mu) == 0.0


def test_protocol_error_constant_mismatch():
    mu = TableJoint(noisy_pair_table(2, 0.3))
    protocol = OneWayProtocol([0] * 4, [[0, 0, 0, 0]])
    g = TableFunction.constant(4, 4, 1)
    assert protocol_error(protocol, g, mu) == pytest.approx(1.0, abs=1e-12)


def test_protocol_error_against_shifted_parity():
    p = 0.25
    mu = TableJoint(noisy_pair_table(2, p))
    protocol = parity_protocol(BitString(0b01, 2), 2)
    g = ParityFunction(BitString(0b11, 2), 2)
    assert protocol_error(protocol, g, mu) == pytest.approx(p, abs=1e-15)


def test_protocol_evaluate_reproducible():
    rng = np.random.default_rng(21)
    protocol = OneWayProtocol(rng.integers(0, 4, size=16),
                              rng.integers(0, 2, size=(4, 16)))
    first = [[protocol.evaluate(x, y) for y in range(16)] for x in range(16)]
    second = [[protocol.evaluate(x, y) for y in range(16)] for x in range(16)]
    assert first == second
