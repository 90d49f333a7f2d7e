"""Tests for distributions, the noisy pair model, and information measures."""

import math
import tracemalloc

import numpy as np
import pytest

from uccsim.core import BitString
from uccsim.distributions import (
    Distribution,
    NoisyHypercube,
    ProductJoint,
    TableJoint,
    binary_entropy,
    derive_rng,
    flip_mask,
    kl_divergence,
    sample_noisy_copy,
    uniform_bits,
)
from uccsim.sampling import SharedRandomness, one_way_correlated_sample


def reference_noisy_table(n, p):
    size = 1 << n
    table = np.empty((size, size))
    for x in range(size):
        for y in range(size):
            d = bin(x ^ y).count("1")
            table[x, y] = (0.5 ** n) * (p ** d) * ((1 - p) ** (n - d))
    return table


def test_distribution_validation():
    with pytest.raises(ValueError):
        Distribution([0.5, -0.1, 0.6])
    with pytest.raises(ValueError):
        Distribution([0.5, 0.4])
    Distribution([0.5, 0.5])


def test_distribution_uniform_and_point_mass():
    u = Distribution.uniform(8)
    assert np.allclose(u.probs, 1 / 8)
    pm = Distribution.point_mass(8, 3)
    assert pm.probs[3] == 1.0 and pm.probs.sum() == 1.0
    for bad in (-1, 8):
        with pytest.raises(IndexError):
            Distribution.point_mass(8, bad)


def test_kl_basic_values():
    u = Distribution.uniform(2)
    assert kl_divergence(u, u) == 0.0
    p = Distribution([1.0, 0.0])
    assert kl_divergence(p, u) == pytest.approx(1.0, abs=1e-12)
    q = Distribution([0.75, 0.25])
    assert kl_divergence(q, u) == pytest.approx(0.18872, abs=1e-5)


def test_kl_support_violation():
    p = Distribution([0.5, 0.5])
    q = Distribution([1.0, 0.0])
    with pytest.raises(ValueError):
        kl_divergence(p, q)


def test_kl_nonnegative_zero_iff_equal():
    rng = np.random.default_rng(31)
    for _ in range(50):
        a = rng.random(6) + 1e-3
        b = rng.random(6) + 1e-3
        p = Distribution(a / a.sum())
        q = Distribution(b / b.sum())
        d = kl_divergence(p, q)
        assert d >= 0.0
        if d < 1e-12:
            assert np.allclose(p.probs, q.probs, atol=1e-6)
        assert kl_divergence(p, p) == 0.0


def test_noisy_hypercube_masses():
    mu = NoisyHypercube(3, 0.2)
    ref = reference_noisy_table(3, 0.2)
    for x in range(8):
        for y in range(8):
            assert mu.mass_array(x, y) == pytest.approx(ref[x, y], rel=1e-14)
    assert np.allclose(mu.to_table(), ref)
    assert mu.to_table().sum() == pytest.approx(1.0, abs=1e-12)


def test_noisy_hypercube_marginal_uniform():
    mu = NoisyHypercube(2, 0.1)
    assert np.allclose(mu.marginal_x().probs, 0.25)
    assert np.allclose(mu.marginal_y().probs, 0.25)


def test_noisy_hypercube_conditional_is_per_bit_product():
    mu = NoisyHypercube(3, 0.3)
    for x in (0, 5, 7):
        cond = mu.conditional_y_given_x(x).probs
        for y in range(8):
            expect = 1.0
            for i in range(3):
                same = ((x >> i) & 1) == ((y >> i) & 1)
                expect *= (1 - 0.3) if same else 0.3
            assert cond[y] == pytest.approx(expect, rel=1e-12)


def test_table_joint_marginals_and_conditional():
    mu = TableJoint([[0.5, 0.0], [0.25, 0.25]])
    assert np.allclose(mu.marginal_x().probs, [0.5, 0.5])
    cond = TableJoint([[0.2, 0.6], [0.1, 0.1]]).conditional_y_given_x(0)
    assert np.allclose(cond.probs, [0.25, 0.75])


def test_conditional_zero_mass_error():
    mu = TableJoint([[0.0, 0.0], [0.5, 0.5]])
    with pytest.raises(ValueError):
        mu.conditional_y_given_x(0)
    with pytest.raises(ValueError):
        mu.conditional_rows([1, 0])


def test_conditional_rows_match_conditionals():
    rng = np.random.default_rng(44)
    table = rng.random((8, 8)) * (rng.random((8, 8)) < 0.6)
    table[:, 0] += 0.1
    for mu in (NoisyHypercube(3, 0.2), TableJoint(table / table.sum()),
               ProductJoint(Distribution.uniform(8), Distribution(np.arange(8) / 28.0))):
        xs = np.array([0, 5, 7, 5, 2])
        rows = mu.conditional_rows(xs)
        assert rows.shape == (5, 8)
        for x, row in zip(xs, rows):
            assert np.allclose(row, mu.conditional_y_given_x(int(x)).probs, rtol=1e-12, atol=0)
        with pytest.raises(IndexError):
            mu.conditional_rows([0, 8])


def test_product_joint_conditional_equals_marginal():
    mu = ProductJoint(Distribution([0.3, 0.7]), Distribution([0.1, 0.2, 0.7]))
    for x in range(2):
        assert np.allclose(mu.conditional_y_given_x(x).probs, mu.marginal_y().probs)
    assert mu.mutual_information() == 0.0


def test_mutual_information_values():
    # A perfectly correlated uniform bit pair carries one bit.
    mu = TableJoint([[0.5, 0.0], [0.0, 0.5]])
    assert mu.mutual_information() == pytest.approx(1.0, abs=1e-12)
    for n in (1, 2, 3):
        for p in (0.1, 0.25, 0.4):
            mu = NoisyHypercube(n, p)
            closed = n * (1 - binary_entropy(p))
            assert mu.mutual_information() == pytest.approx(closed, abs=1e-10)
            dense = TableJoint(mu.to_table()).mutual_information()
            assert dense == pytest.approx(closed, abs=1e-10)


def test_mutual_information_zero_iff_product():
    rng = np.random.default_rng(41)
    for _ in range(20):
        px = rng.random(4) + 1e-3
        py = rng.random(4) + 1e-3
        table = np.outer(px / px.sum(), py / py.sum())
        assert TableJoint(table).mutual_information() == pytest.approx(0.0, abs=1e-10)
    for _ in range(20):
        table = rng.random((4, 4)) + 1e-3
        table /= table.sum()
        mi = TableJoint(table).mutual_information()
        assert mi >= 0.0
        if mi < 1e-12:
            back = np.outer(table.sum(axis=1), table.sum(axis=0))
            assert np.allclose(table, back, atol=1e-8)


def reference_mutual_information(mu):
    """I(X;Y) as a loop over rows: sum of p log2(p / (px py)) over positive cells."""
    mx = mu.marginal_x().probs
    my = mu.marginal_y().probs
    total = 0.0
    for x in range(mu.size_x):
        row = mu.mass_array(x, np.arange(mu.size_y))
        pos = row > 0
        if pos.any():
            total += float(np.sum(row[pos] * np.log2(row[pos] / (mx[x] * my[pos]))))
    return max(total, 0.0)


def test_mutual_information_matches_row_loop():
    rng = np.random.default_rng(43)
    for shape in ((1, 1), (2, 3), (5, 5), (16, 4), (64, 64)):
        for zeros in (0.0, 0.3, 0.8):
            table = rng.random(shape) * (rng.random(shape) >= zeros)
            table.flat[rng.integers(table.size)] += 0.5
            mu = TableJoint(table / table.sum())
            assert mu.mutual_information() == pytest.approx(reference_mutual_information(mu),
                                                            rel=1e-12, abs=1e-14)


def test_binary_entropy_endpoints():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)


def test_sample_noisy_copy_extremes():
    rng = np.random.default_rng(51)
    x = BitString(0b1010110, 7)
    assert sample_noisy_copy(x, 0.0, rng).value == x.value
    assert sample_noisy_copy(x, 1.0, rng).value == x.value ^ 0b1111111


def test_sample_noisy_copy_flip_rate():
    rng = np.random.default_rng(52)
    n = 100_000
    x = BitString(0, n)
    y = sample_noisy_copy(x, 0.3, rng)
    rate = y.value.bit_count() / n
    assert abs(rate - 0.3) <= 0.01


def test_uniform_bits_single_draw_up_to_62_bits():
    # The seeded CLI outputs depend on this stream staying one integers() call.
    for n in (1, 24, 62):
        assert uniform_bits(n, np.random.default_rng(55)) == \
            int(np.random.default_rng(55).integers(1 << n))


def test_uniform_bits_wide_range():
    rng = np.random.default_rng(56)
    for n in (63, 64, 130):
        draws = [uniform_bits(n, rng) for _ in range(200)]
        assert all(0 <= v < (1 << n) for v in draws)
        assert any(v >> (n - 1) for v in draws)


def test_sample_matches_distribution_tv():
    # one pair per call, and a block of pairs with numpy's size convention
    rng = np.random.default_rng(53)
    draws = 100_000
    for mu in (NoisyHypercube(3, 0.2),
               TableJoint((lambda t: t / t.sum())(np.random.default_rng(54).random((4, 4)))),
               ProductJoint(Distribution([0.2, 0.8]), Distribution([0.5, 0.25, 0.25]))):
        counts = np.zeros((mu.size_x, mu.size_y))
        for _ in range(draws):
            x, y = mu.sample(rng)
            counts[x, y] += 1
        assert type(x) is int and type(y) is int
        tv = 0.5 * np.abs(counts / draws - mu.to_table()).sum()
        assert tv <= 0.02
        xs, ys = mu.sample(rng, size=draws)
        assert xs.shape == ys.shape == (draws,)
        counts = np.zeros((mu.size_x, mu.size_y))
        np.add.at(counts, (xs, ys), 1)
        tv = 0.5 * np.abs(counts / draws - mu.to_table()).sum()
        assert tv <= 0.02
        xs, ys = mu.sample(rng, size=(2, 3))
        assert xs.shape == ys.shape == (2, 3)


def test_noisy_hypercube_flip_patterns_follow_their_law():
    # x ^ y is the flip pattern z, with w(z) = p^|z| (1-p)^(n-|z|) whatever x is
    n, p, draws = 4, 0.3, 200_000
    mu = NoisyHypercube(n, p)
    xs, ys = mu.sample(np.random.default_rng(58), size=draws)
    weight = np.array([bin(z).count("1") for z in range(1 << n)])
    law = p ** weight * (1 - p) ** (n - weight)
    for x in (0, 5):
        counts = np.bincount(xs[xs == x] ^ ys[xs == x], minlength=1 << n)
        assert 0.5 * np.abs(counts / counts.sum() - law).sum() <= 0.02
    assert 0.5 * np.abs(np.bincount(xs ^ ys, minlength=1 << n) / draws - law).sum() <= 0.01


def test_noisy_hypercube_sample_is_x_then_a_flip_pattern_draw():
    # a pair is x = rng.integers, then z from the flip-pattern law on the same stream
    mu = NoisyHypercube(5, 0.3)
    for size in (None, 7, (2, 3)):
        for seed in range(10):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            x = ref.integers(32, size=size)
            z = mu._flips.sample(ref, size)
            got_x, got_y = mu.sample(rng, size)
            assert np.array_equal(got_x, x) and np.array_equal(got_y, x ^ z)
            if size is None:
                assert type(got_x) is int and type(got_y) is int
            assert rng.random() == ref.random()


def test_flip_mask_bit_order_and_stream_position():
    for n in (0, 1, 8, 62, 63, 64, 130):
        rng, ref = np.random.default_rng(57), np.random.default_rng(57)
        flips = ref.random(n) < 0.3
        expect = sum(1 << i for i in np.flatnonzero(flips).tolist())
        assert flip_mask(n, 0.3, rng) == expect
        assert rng.random() == ref.random()


def test_table_joint_sample_lists_follow_each_conditional():
    # unsorted, repeated x's; zero-mass cells, the last cell among them
    table = np.array([[0.1, 0.0, 0.3, 0.2, 0.0],
                      [0.0, 0.0, 0.0, 0.0, 0.4],
                      [0.5, 0.1, 0.0, 0.2, 0.1],
                      [0.2, 0.2, 0.2, 0.2, 0.2]])
    mu = TableJoint(table / table.sum())
    xs = np.array([3, 0, 2, 3, 1, 0, 3, 2])
    lists = mu.sample_lists(xs, 20_000, np.random.default_rng(59))
    assert lists.shape == (len(xs), 20_000)
    for x in range(mu.size_x):
        values = lists[xs == x]
        law = mu.conditional_y_given_x(x).probs
        assert not np.isin(values, np.flatnonzero(law == 0)).any()
        counts = np.bincount(values.ravel(), minlength=mu.size_y)
        assert 0.5 * np.abs(counts / values.size - law).sum() <= 0.01
        # repeated x's get their own draws
        assert len({row.tobytes() for row in values}) == len(values)
    for bad in (-1, mu.size_x):
        with pytest.raises(IndexError):
            mu.sample_lists([0, bad], 3, np.random.default_rng(60))


def test_table_joint_sample_lists_memory_is_the_lists():
    # 512 rows x 136 draws from a 256 x 256 table of heterogeneous rows: the
    # int64 lists take 0.55 MiB, and a rows x m x |Y| broadcast would take 17
    rng = np.random.default_rng(61)
    mu = TableJoint((lambda t: t / t.sum())(rng.random((256, 256)) ** 8))
    xs = rng.integers(256, size=512)
    # the first call's one-time imports take about 1 MiB; trace a later call
    mu.sample_lists(xs[:2], 1, rng)
    tracemalloc.start()
    try:
        lists = mu.sample_lists(xs, 136, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lists.shape == (512, 136)
    assert peak < 2 << 20


def test_joints_reject_out_of_range_x():
    joints = (TableJoint(np.full((4, 2), 1 / 8)),
              ProductJoint(Distribution.uniform(4), Distribution.uniform(2)),
              NoisyHypercube(2, 0.1))
    for mu in joints:
        for bad in (-1, mu.size_x):
            with pytest.raises(IndexError):
                mu.conditional_y_given_x(bad)
            with pytest.raises(IndexError):
                mu.conditional_rows([0, bad])
            with pytest.raises(IndexError):
                mu.mass_array(bad, 0)
            with pytest.raises(IndexError):
                mu.mass_array([0, bad], [0, 0])
        for bad in (-1, mu.size_y):
            with pytest.raises(IndexError):
                mu.mass_array(0, bad)
            with pytest.raises(IndexError):
                mu.mass_array([0, 0], [0, bad])
    # out of range on both sides, though the XOR of the two lies in range
    with pytest.raises(IndexError):
        NoisyHypercube(3, 0.1).mass_array([8], [8])


def test_flat_masses_match_mass_array_bit_for_bit():
    weights = np.random.default_rng(21).random((3, 5))
    joints = [TableJoint(weights / weights.sum()), ProductJoint.uniform_bits(4)]
    joints += [NoisyHypercube(n, p) for n in (1, 5, 12) for p in (0.0, 0.1, 1.0)]
    for mu in joints:
        total = mu.size_x * mu.size_y
        flat = np.arange(total) if total <= 1 << 12 else np.concatenate(
            (np.arange(1 << 10), np.random.default_rng(22).integers(0, total, 1 << 14),
             np.arange(total - (1 << 10), total)))
        expected = mu.mass_array(*divmod(flat, mu.size_y))
        assert np.array_equal(mu.flat_masses(flat), expected)
        assert np.array_equal(mu.flat_masses(flat.astype(np.uint32)), expected)
        for bad in (-1, total):
            with pytest.raises(IndexError):
                mu.flat_masses([0, bad])


def test_one_way_sample_rejects_out_of_range_x():
    mu = NoisyHypercube(3, 0.1)
    for bad in (-1, mu.size_x):
        for m in (0, 3):
            with pytest.raises(IndexError):
                one_way_correlated_sample(mu, bad, m, 0.1, SharedRandomness(1))


def test_noisy_hypercube_marginals_built_once():
    mu = NoisyHypercube(4, 0.2)
    assert mu.marginal_x() is mu.marginal_x() is mu.marginal_y()
    assert np.array_equal(mu.marginal_x().probs, np.full(16, 1 / 16))


def test_derive_rng_streams():
    a = derive_rng(5, 1).random(4)
    b = derive_rng(5, 1).random(4)
    c = derive_rng(5, 2).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # tag tuples that differ only in trailing zeros are different streams
    first = {derive_rng(5, *tags).random() for tags in ((), (0,), (0, 0), (0, 0, 0))}
    assert len(first) == 4


def test_noisy_hypercube_validation():
    with pytest.raises(ValueError):
        NoisyHypercube(0, 0.1)
    with pytest.raises(ValueError):
        NoisyHypercube(3, -0.1)
    with pytest.raises(ValueError):
        NoisyHypercube(15, 0.1)


def test_mass_array_agrees_with_mass():
    mu = NoisyHypercube(3, 0.25)
    xs = np.array([0, 1, 7, 3])
    ys = np.array([7, 1, 0, 5])
    got = mu.mass_array(xs, ys)
    ref = reference_noisy_table(3, 0.25)
    expect = [ref[x, y] for x, y in zip(xs, ys)]
    assert np.allclose(got, expect, rtol=1e-14)
