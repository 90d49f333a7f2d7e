"""Tests for bitstrings, boolean functions, protocols, and distance measures."""

import math

import numpy as np
import pytest

from uccsim.core import (
    DISTANCE_BLOCK,
    DISTANCE_ROW_CELLS,
    BitString,
    BoolFunction,
    FlippedFunction,
    OneWayProtocol,
    TableFunction,
    distance,
    protocol_error,
)
from uccsim.distributions import NoisyHypercube, ProductJoint, TableJoint
from uccsim.parity import ParityFunction, parity_protocol
from uccsim.uncertain import generate_instance


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
        NoisyHypercube(2, 0.1).conditional_y_given_x(1.0)
    # numpy integers and bitstrings of the domain's length still index
    assert f(np.int64(2), np.uint8(2)) == 1
    assert f(np.array(3), 3) == 1
    assert f(BitString(0b10, 2), BitString(0b10, 2)) == 1


def test_values_match_a_dense_reference():
    # every subclass's point read against a table built entry by entry, at broadcast,
    # repeated-and-unsorted and 0-d indices, with its rows and f(x, y) on top
    rng = np.random.default_rng(31)
    n = 6
    size = 1 << n
    table = rng.integers(0, 2, size=(size, size), dtype=np.uint8)
    assignment = rng.integers(0, 4, size=size)
    deciders = rng.integers(0, 2, size=(4, size), dtype=np.uint8)
    grid = [(x, y) for x in range(size) for y in range(size)]

    def dense(value):
        return np.array([value(x, y) for x, y in grid], dtype=np.uint8).reshape(size, size)

    def masked_parity(mask):
        return dense(lambda x, y: bin(mask & (x ^ y)).count("1") & 1)

    protocol = OneWayProtocol(assignment, deciders)
    protocol_table = dense(lambda x, y: deciders[assignment[x]][y])
    total = size * size
    # flips in the first and last rows, at both ends of the flat range
    edges = np.array([0, 1, size - 1, 3 * size + 5, total - size, total - 1])
    eps_set = np.sort(rng.choice(total, size=200, replace=False))
    # the delta set flips some of the eps points back
    delta_set = np.union1d(eps_set[::3], np.sort(rng.choice(total, size=150, replace=False)))
    nested = FlippedFunction(FlippedFunction(protocol, eps_set), delta_set)
    cases = [
        (TableFunction(table), table),
        (protocol, protocol_table),
        (ParityFunction(0b101101, n), masked_parity(0b101101)),
        (parity_protocol(0b011, n), masked_parity(0b011)),
        (FlippedFunction(protocol, []), protocol_table),
        (FlippedFunction(ParityFunction(0b11, n), edges),
         flipped_reference(masked_parity(0b11), edges)),
        (nested, flipped_reference(flipped_reference(protocol_table, eps_set), delta_set)),
    ]
    for fn, expect in cases:
        assert np.array_equal(fn.values(np.arange(size)[:, None], np.arange(size)), expect)
        xs = np.array([size - 1, 0, 7, 7, 3, 0, size - 1])
        ys = rng.integers(0, size, size=len(xs))
        assert fn.values(xs, ys).dtype == np.uint8
        assert np.array_equal(fn.values(xs, ys), expect[xs, ys])
        assert np.array_equal(fn.values(xs[:, None], ys), expect[xs[:, None], ys])
        for x, y in rng.integers(0, size, size=(50, 2)).tolist():
            assert fn.values(np.int64(x), np.int64(y)) == expect[x, y]
            assert np.shape(fn.values(np.array(x), np.array(y))) == ()
            value = fn(x, y)
            assert type(value) is int and value == expect[x, y]
        assert fn(BitString(5, n), np.int64(9)) == expect[5, 9]
        # the default row read through values, against any cheaper override
        for rows in ([], [0], xs, np.arange(size)):
            rows = np.array(rows, dtype=np.int64)
            assert np.array_equal(fn.rows(rows), expect[rows])
            assert np.array_equal(BoolFunction.rows(fn, rows), fn.rows(rows))
        assert np.array_equal(fn.to_table(), expect)
        with pytest.raises(IndexError):
            fn(size, 0)
        with pytest.raises(IndexError):
            fn(0, -1)
        with pytest.raises(TypeError):
            fn(1.0, 0)


def test_reads_reject_off_range_indices():
    # values and rows of every subclass raise IndexError for -1 or size on
    # either side, at scalar and array indices; before, a negative index
    # wrapped silently or reached np.repeat with a negative count
    n = 3
    size = 1 << n
    protocol = OneWayProtocol(np.arange(size) % 2, np.eye(2, size, dtype=np.uint8))
    functions = (TableFunction(np.zeros((size, size), np.uint8)), protocol,
                 ParityFunction(0b101, n), FlippedFunction(protocol, [0, 12, size * size - 1]),
                 FlippedFunction(ParityFunction(0b11, n), []))
    for fn in functions:
        for bad in (-1, size):
            for xs, ys in ((bad, 0), (0, bad), ([0, bad], [1, 2]), ([1, 2], [bad, 0]),
                           (np.array([[bad]]), np.arange(size))):
                with pytest.raises(IndexError):
                    fn.values(xs, ys)
            for xs in ([bad], [0, bad], np.array([bad, 1])):
                with pytest.raises(IndexError):
                    fn.rows(np.asarray(xs))
                with pytest.raises(IndexError):
                    BoolFunction.rows(fn, np.asarray(xs))
    # the case that read a wrong value: the base's -1 wraps to row 3, whose (3, 0) is 1
    flipped = FlippedFunction(TableFunction(np.zeros((4, 4), np.uint8)), [12])
    with pytest.raises(IndexError):
        flipped.values(-1, 0)
    with pytest.raises(IndexError):
        flipped.rows(np.array([-1]))


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
    assert size * size > 2 * DISTANCE_ROW_CELLS
    mu = NoisyHypercube(n, 0.2)
    rng = np.random.default_rng(13)
    f = TableFunction(rng.integers(0, 2, size=(size, size)))
    g_table = f.to_table().copy()
    g_table[rng.random((size, size)) < 0.01] ^= 1
    g = TableFunction(g_table)
    ys = np.arange(size)
    expected = math.fsum(float(mass) for x in range(size)
                         for mass in mu.mass_array(x, ys)[f.table[x] != g.table[x]])
    assert distance(f, g, mu) == pytest.approx(expected, abs=1e-12)
    assert distance(f, f, mu) == 0.0


def point_reads(fn, lo, hi, ys):
    """fn's rows lo..hi-1 at columns ys, one fn(x, y) call per entry."""
    return np.array([[fn(x, y) for y in ys] for x in range(lo, hi)], dtype=np.uint8)


def test_block_reads_match_row_reads():
    n = 11
    size = 1 << n
    mu = NoisyHypercube(n, 0.1)
    rng = np.random.default_rng(14)
    protocol = OneWayProtocol(rng.integers(0, 4, size=size),
                              rng.integers(0, 2, size=(4, size)))
    g_table = protocol.rows(np.arange(size))
    g_table[rng.random((size, size)) < 0.01] ^= 1
    g = TableFunction(g_table)
    parity = ParityFunction(BitString(5, 3), 3)
    for fn in (protocol, g, parity):
        for lo, hi in ((0, 1), (1, 5), (0, fn.size_x)):
            # every column of short blocks; every 127th where a block spans all 2^11 rows
            ys = np.arange(0, fn.size_y, 1 if (hi - lo) * fn.size_y <= 1 << 14 else 127)
            block = fn.rows(np.arange(lo, hi))
            assert block.shape == (hi - lo, fn.size_y)
            assert np.array_equal(block[:, ys], point_reads(fn, lo, hi, ys))
    # same blocks, same order of additions: bit for bit
    tables = TableFunction(protocol.to_table()), TableFunction(g.to_table())
    assert distance(protocol, g, mu) == distance(*tables, mu)
    assert protocol_error(protocol, g, mu) == distance(*tables, mu)


def flipped_reference(table, points):
    """table with its entries at flat indices points flipped, built entry by entry."""
    table = np.array(table, dtype=np.uint8)
    for point in points:
        x, y = divmod(int(point), table.shape[1])
        table[x, y] ^= 1
    return table


def test_flipped_function_reads_match_a_dense_reference():
    rng = np.random.default_rng(15)
    size_x, size_y = 8, 16
    base = TableFunction(rng.integers(0, 2, size=(size_x, size_y), dtype=np.uint8))
    total = size_x * size_y
    # flips in the first and last rows, at both ends of the flat range
    edges = np.array([0, 1, size_y - 1, 3 * size_y + 5, total - size_y, total - 1])
    inner = np.sort(rng.choice(total, size=40, replace=False))
    # the nested set flips some of the inner points back
    outer = np.union1d(inner[::3], [2, total - 2])
    cases = [
        (FlippedFunction(base, []), base.table),
        (FlippedFunction(base, edges), flipped_reference(base.table, edges)),
        (FlippedFunction(FlippedFunction(base, inner), outer),
         flipped_reference(flipped_reference(base.table, inner), outer)),
    ]
    for fn, dense in cases:
        for xs in ([7, 0, 7, 3, 0, 0], [size_x - 1], np.arange(size_x), [], [5, 2, 6, 1, 4]):
            block = fn.rows(np.array(xs, dtype=np.int64))
            assert block.shape == (len(xs), size_y)
            assert np.array_equal(block, dense[np.array(xs, dtype=np.int64)])
        assert np.array_equal(fn.to_table(), dense)
        for x in range(size_x):
            for y in range(size_y):
                value = fn(x, y)
                assert type(value) is int and value == dense[x, y]
    for bad in ([3, 3], [4, 2], [-1], [total], [[1, 2]]):
        with pytest.raises(ValueError):
            FlippedFunction(base, bad)


def test_distance_of_a_flip_set_matches_the_block_scan(monkeypatch):
    # f = g + its delta-set and g = protocol + its eps-set: one sum of masses
    # each, equal to the dense block scan of the same pairs
    for n in (1, 3, 6):
        size = 1 << n
        weights = np.random.default_rng((16, n)).random((size, size))
        for index, mu in enumerate((ProductJoint.uniform_bits(n), NoisyHypercube(n, 0.1),
                                    TableJoint(weights / weights.sum()))):
            inst = generate_instance(n, 2, 0.1, 0.05, np.random.default_rng((17, n, index)),
                                     mu=mu)
            f, g = TableFunction(inst.f.to_table()), TableFunction(inst.g.to_table())
            protocol = TableFunction(inst.protocol.to_table())
            scans = distance(f, g, mu), distance(protocol, g, mu)
            with monkeypatch.context() as patch:
                # the structural case reads no row
                patch.setattr(FlippedFunction, "rows", None)
                sums = (distance(inst.f, inst.g, mu), distance(inst.g, inst.f, mu),
                        protocol_error(inst.protocol, inst.g, mu))
            assert sums[0] == sums[1]
            assert abs(sums[0] - scans[0]) <= 1e-12
            assert abs(sums[2] - scans[1]) <= 1e-12
            if n == 6:
                assert sums[0] > 0.0 and sums[2] > 0.0


def test_distance_of_a_flip_set_matches_fsum_across_blocks():
    # the flip-set path reads masses DISTANCE_BLOCK points at a time
    n = 10
    mu = NoisyHypercube(n, 0.1)
    for index, delta in enumerate((0.05, 0.3)):
        inst = generate_instance(n, 2, 0.0, delta, np.random.default_rng((18, index)), mu=mu)
        points = inst.f.points
        assert len(points) > 2 * DISTANCE_BLOCK
        xs, ys = divmod(points, mu.size_y)
        expected = math.fsum(mu.mass_array(xs, ys).tolist())
        assert abs(distance(inst.f, inst.g, mu) - expected) <= 1e-12
        assert abs(distance(inst.g, inst.f, mu) - expected) <= 1e-12


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
