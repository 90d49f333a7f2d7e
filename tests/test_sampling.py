"""Tests for the correlated sampling protocols, interactive and one-way."""

import math
import warnings

import numpy as np
import pytest

from uccsim import sampling
from uccsim.distributions import Distribution, NoisyHypercube, ProductJoint, TableJoint
from uccsim.sampling import (
    DEFAULT_MAX_CANDIDATES,
    SharedRandomness,
    _DenseRun,
    correlated_sample,
    hash_bits_per_round,
    one_way_correlated_sample,
    one_way_rows,
    truncation_limit,
)


def test_hash_bits_per_round():
    assert hash_bits_per_round(0.05) == 7
    assert hash_bits_per_round(0.1) == 6
    assert hash_bits_per_round(0.001) == 12
    with pytest.raises(ValueError):
        hash_bits_per_round(0.0)
    with pytest.raises(ValueError):
        hash_bits_per_round(1.0)


def test_shared_randomness_streams_reproduce():
    a = SharedRandomness(7).stream(1).random(5)
    b = SharedRandomness(7).stream(1).random(5)
    c = SharedRandomness(7).stream(2).random(5)
    d = SharedRandomness((7, 0)).stream(1).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_correlated_sample_deterministic():
    p = Distribution([0.7, 0.1, 0.1, 0.1])
    q = Distribution.uniform(4)
    first = correlated_sample(p, q, 0.05, SharedRandomness(11))
    second = correlated_sample(p, q, 0.05, SharedRandomness(11))
    assert first == second


def test_correlated_sample_identical_distributions():
    # With P = Q the parties accept the same candidates, so disagreement can
    # come only from hash collisions and stays within the error budget.
    q = Distribution.uniform(16)
    agree = rounds = 0
    trials = 2000
    for seed in range(trials):
        a, b, stats = correlated_sample(q, q, 0.05, SharedRandomness((1, seed)))
        agree += a == b
        rounds += stats.rounds
    assert agree / trials >= 0.98
    assert rounds / trials <= 2.0


def test_correlated_sample_point_mass():
    p = Distribution.point_mass(16, 5)
    q = Distribution.uniform(16)
    agree = 0
    trials = 10_000
    for seed in range(trials):
        a, b, _ = correlated_sample(p, q, 0.05, SharedRandomness((2, seed)))
        assert a == 5
        agree += b == a
    assert agree / trials >= 0.95


def test_correlated_sample_partial_overlap():
    # P covers 0..7, Q covers 4..11; conditioned on a falling in the shared
    # region, the parties still agree at the contracted rate.
    p = Distribution(np.r_[np.full(8, 1 / 8), np.zeros(8)])
    q = Distribution(np.r_[np.zeros(4), np.full(8, 1 / 8), np.zeros(4)])
    eps = 0.1
    overlap_runs = overlap_agree = 0
    for seed in range(2000):
        a, b, _ = correlated_sample(p, q, eps, SharedRandomness((3, seed)),
                                    max_candidates=100_000)
        if 4 <= a <= 7:
            overlap_runs += 1
            overlap_agree += b == a
    assert overlap_runs > 500
    assert overlap_agree / overlap_runs >= 1 - eps


def test_correlated_sample_disjoint_supports_rejected():
    p = Distribution([0.5, 0.5, 0.0, 0.0])
    q = Distribution([0.0, 0.0, 0.5, 0.5])
    with pytest.raises(ValueError):
        correlated_sample(p, q, 0.1, SharedRandomness(4))
    with pytest.raises(ValueError):
        correlated_sample(p, Distribution.uniform(8), 0.1, SharedRandomness(4))


def test_correlated_sample_budget_blowout_reported():
    # A support element Bob assigns no mass gets Alice stuck; the failure is
    # reported through stats rather than raised or silently repaired.
    p = Distribution([0.999, 0.0005, 0.0005] + [0.0] * 13)
    q = Distribution(np.r_[[0.0], np.full(15, 1 / 15)])
    failures = 0
    for seed in range(50):
        a, b, stats = correlated_sample(p, q, 0.1, SharedRandomness((5, seed)),
                                        max_candidates=2000)
        if not stats.success:
            failures += 1
            assert b != a or stats.rounds > 0
    assert failures > 25


def test_correlated_sample_alice_marginal():
    rng = np.random.default_rng(113)
    weights = rng.random(8) + 0.1
    p = Distribution(weights / weights.sum())
    q = Distribution.uniform(8)
    counts = np.zeros(8)
    trials = 20_000
    for seed in range(trials):
        a, _, _ = correlated_sample(p, q, 0.1, SharedRandomness((6, seed)))
        counts[a] += 1
    tv = 0.5 * np.abs(counts / trials - p.probs).sum()
    assert tv <= 0.03


def test_correlated_sample_stats_accounting():
    p = Distribution([0.7, 0.1, 0.1, 0.1])
    q = Distribution.uniform(4)
    s = hash_bits_per_round(0.05)
    for seed in range(50):
        _, _, stats = correlated_sample(p, q, 0.05, SharedRandomness((7, seed)))
        assert stats.bits_alice == s * stats.rounds
        assert stats.bits_bob == stats.rounds
        assert stats.rounds >= 1


def test_truncation_limit_product_case():
    mu = ProductJoint.uniform_bits(3)
    limit = truncation_limit(mu, 5, 0.2)
    assert limit == math.ceil(4 * math.log2(5.0) / 0.2)
    with pytest.raises(ValueError):
        truncation_limit(mu, 5, 0.0)
    with pytest.raises(ValueError):
        truncation_limit(mu, -1, 0.2)


def test_one_way_zero_samples():
    mu = NoisyHypercube(4, 0.1)
    alice, bob, stats = one_way_correlated_sample(mu, 3, 0, 0.1, SharedRandomness(8))
    assert alice.shape == bob.shape == (16,)
    assert not alice.any() and not bob.any()
    assert stats.bits_alice == 0 and stats.success


def test_one_way_stats_shape():
    mu = NoisyHypercube(3, 0.2)
    limit = truncation_limit(mu, 4, 0.1)
    for seed in range(50):
        alice, bob, stats = one_way_correlated_sample(mu, 5, 4, 0.1,
                                                      SharedRandomness((9, seed)))
        assert stats.rounds == 1
        assert stats.bits_bob == 0
        assert stats.bits_alice <= limit
        assert alice.shape == bob.shape == (8,)
        assert alice.sum() == bob.sum() == 4
        if stats.success:
            assert np.array_equal(alice, bob)


def test_one_way_zero_mass_x_rejected():
    table = np.array([[0.0, 0.0], [0.5, 0.5]])
    mu = TableJoint(table)
    with pytest.raises(ValueError):
        one_way_correlated_sample(mu, 0, 2, 0.1, SharedRandomness(10))


def test_one_way_deterministic():
    mu = NoisyHypercube(8, 0.1)
    first = one_way_correlated_sample(mu, 101, 20, 0.1, SharedRandomness(12))
    second = one_way_correlated_sample(mu, 101, 20, 0.1, SharedRandomness(12))
    assert np.array_equal(first[0], second[0])
    assert np.array_equal(first[1], second[1])
    assert first[2] == second[2]


def test_one_way_product_distribution_agreement():
    mu = ProductJoint.uniform_bits(3)
    agree = 0
    trials = 300
    for seed in range(trials):
        _, _, stats = one_way_correlated_sample(mu, 2, 5, 0.2,
                                                SharedRandomness((13, seed)))
        agree += stats.success
    assert agree / trials >= 0.9


def test_one_way_noisy_pairs_agreement():
    mu = NoisyHypercube(8, 0.1)
    agree = 0
    trials = 200
    rng = np.random.default_rng(114)
    for seed in range(trials):
        x = int(rng.integers(256))
        _, _, stats = one_way_correlated_sample(mu, x, 20, 0.1,
                                                SharedRandomness((14, seed)))
        agree += stats.success
    assert agree / trials >= 0.85


def test_one_way_alice_samples_follow_conditional():
    # Alice's counts must be those of m i.i.d. draws from the conditional row,
    # whatever Bob manages to reconstruct.
    mu = NoisyHypercube(2, 0.2)
    x = 0
    counts = np.zeros(4)
    trials = 10_000
    m = 2
    for seed in range(trials):
        alice, _, _ = one_way_correlated_sample(mu, x, m, 0.2,
                                                SharedRandomness((15, seed)))
        counts += alice
    expect = mu.conditional_y_given_x(x).probs
    tv = 0.5 * np.abs(counts / (trials * m) - expect).sum()
    assert tv <= 0.02


def literal_one_way(p, q, m, eps, limit, seeds):
    """The literal one-way run, seed by seed: Alice's digit counts summed, and agreements.

    An uncapped _DenseRun runs over the explicit product universe, whose
    index has base-d digit j, of weight d^j, for copy j.  A run that
    terminates within limit // s rounds is the capped run; any other run
    fails under the cap.
    """
    d = len(p)
    full_p, full_q = p, q
    for _ in range(m - 1):
        full_p, full_q = np.kron(p, full_p), np.kron(q, full_q)
    budget = limit // hash_bits_per_round(eps / 2.0)
    digits = np.zeros(d)
    agree = 0
    for seed in seeds:
        a, b, _, rounds, ok = _DenseRun(full_p, full_q, eps / 2.0, SharedRandomness(seed),
                                        DEFAULT_MAX_CANDIDATES).run()
        digits += np.bincount(a // d ** np.arange(m) % d, minlength=d)
        agree += ok and rounds <= budget and a == b
    return digits, agree


def assert_lazy_matches_literal(mu, x, m, eps, trials, seed):
    # The lazy run as one block of rows, the literal one seed by seed.  They
    # draw from different streams, so Alice's digit frequencies and the
    # agreement rates must match within 4 sigma.
    p = mu.conditional_y_given_x(x).probs
    q = mu.marginal_y().probs
    limit = truncation_limit(mu, m, eps)
    alice, _, _, ok = one_way_rows(np.tile(p, (trials, 1)), q, m, eps, limit,
                                   np.random.default_rng(seed))
    digits, agree = literal_one_way(p, q, m, eps, limit,
                                    [(seed, x, run) for run in range(trials)])
    draws = trials * m
    sigma = np.sqrt(2.0 * p * (1.0 - p) / draws)
    assert np.all(np.abs(alice.sum(axis=0) - digits) / draws <= 4.0 * sigma)
    rate = {"lazy": ok.mean(), "literal": agree / trials}
    pooled = (rate["lazy"] + rate["literal"]) / 2.0
    assert min(rate.values()) >= 1.0 - eps
    assert abs(rate["lazy"] - rate["literal"]) <= 4.0 * math.sqrt(2.0 * pooled * (1.0 - pooled)
                                                                  / trials), rate


def test_one_way_lazy_and_dense_paths_agree_statistically():
    mu = NoisyHypercube(2, 0.2)
    for x, eps in ((1, 0.2), (1, 0.05), (0, 0.05)):
        assert_lazy_matches_literal(mu, x, 2, eps, 2000, 17)
    # and the lazy run keeps the agreement contract on a universe of 4096^10 points
    mu = NoisyHypercube(12, 0.1)
    agree = 0
    trials = 200
    rng = np.random.default_rng(115)
    for seed in range(trials):
        x = int(rng.integers(1 << 12))
        _, _, stats = one_way_correlated_sample(mu, x, 10, 0.1,
                                                SharedRandomness((17, seed)))
        agree += stats.success
    assert agree / trials >= 0.85


def test_one_way_lazy_matches_literal_when_p_equals_q():
    # With P = Q on 16 points and a two-round cap, about one run in seven
    # fails, mostly because Alice's index lies past the round-2 horizon of 32
    # candidates.  The geometric law of that index, and the levels above P of
    # the candidates before it, decide the rate.
    assert_lazy_matches_literal(ProductJoint.uniform_bits(2), 0, 2, 0.5, 20_000, 39)


def test_lazy_alice_counts_follow_the_multinomial_law():
    # Per cell, the mean and variance of Alice's counts over the rows of one
    # block must match those of bincounted rng.choice draws, within 4 sigma
    # of their difference.  Cells expected to get fewer than 10 draws over
    # all rows are too discrete for that normal bound; they are pooled into
    # one cell, itself a multinomial cell.
    mu = NoisyHypercube(8, 0.1)
    q = mu.marginal_y().probs
    rows = 2000
    for x, m in ((0, 37), (173, 9935)):
        p = mu.conditional_y_given_x(x).probs
        lazy = one_way_rows(np.tile(p, (rows, 1)), q, m, 0.1, truncation_limit(mu, m, 0.1),
                            np.random.default_rng((33, x)))[0]
        reference = np.array([np.bincount(np.random.default_rng((34, x, seed))
                                          .choice(256, size=m, p=p), minlength=256)
                              for seed in range(rows)])
        assert lazy.shape == reference.shape == (rows, 256)
        assert (lazy.sum(axis=1) == m).all()
        common = m * p * rows >= 10

        def pooled(cells):
            return np.column_stack([cells[..., common], cells[..., ~common].sum(axis=-1)])

        lazy, reference, p = pooled(lazy), pooled(reference), pooled(p[None, :])[0]
        var = m * p * (1.0 - p)
        fourth = var * (1.0 + 3.0 * (m - 2) * p * (1.0 - p))
        mean_sigma = np.sqrt(2.0 * var / rows)
        var_sigma = np.sqrt(2.0 * np.maximum(fourth - var ** 2, 0.0) / rows)
        assert np.all(np.abs(lazy.mean(axis=0) - reference.mean(axis=0)) <= 4.0 * mean_sigma)
        assert np.all(np.abs(lazy.var(axis=0) - reference.var(axis=0)) <= 4.0 * var_sigma)
        # and Alice's mean sits on the multinomial's own, m * p
        assert np.all(np.abs(lazy.mean(axis=0) - m * p) <= 4.0 * mean_sigma)


def test_lazy_run_never_draws_a_zero_mass_cell():
    # P and Q have zero-mass cells, the last one included, and the rows of the
    # second table have different supports; neither Alice's counts nor Bob's
    # fallback may land on a zero-mass cell of their row, whether or not the
    # run ends.
    first = np.array([[3.0, 0.0, 1.0, 2.0, 0.0, 1.0, 0.0, 0.0],
                      [1.0, 2.0, 1.0, 1.0, 0.0, 3.0, 0.0, 0.0]])
    second = np.array([[3.0, 0.0, 1.0, 2.0, 0.0, 1.0, 0.0, 0.0],
                       [0.0, 2.0, 0.0, 0.0, 0.0, 0.0, 1.0, 4.0],
                       [0.0, 0.0, 0.0, 5.0, 0.0, 0.0, 0.0, 0.0],
                       [1.0, 1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 0.0]])
    m, eps = 40, 0.1
    s = hash_bits_per_round(eps / 2.0)
    for table in (first, second):
        mu = TableJoint(table / table.sum())
        xs = np.arange(mu.size_x).repeat(300)
        p = mu.conditional_rows(xs)
        q = mu.marginal_y().probs
        assert (p[:, -1] == 0).any() and q[4] == 0
        # a one-round cap makes most runs fall back to Bob's own draw
        for limit, seed in ((truncation_limit(mu, m, eps), 35), (s, 36)):
            alice, bob, _, ok = one_way_rows(p, q, m, eps, limit, np.random.default_rng(seed))
            assert (alice.sum(axis=1) == m).all() and (bob.sum(axis=1) == m).all()
            assert not alice[p == 0].any()
            assert not bob[:, q == 0].any()
            assert np.array_equal(alice[ok], bob[ok])
            if limit == s:
                assert (~ok).sum() > len(xs) // 2


def test_lazy_run_never_enters_on_a_digit_bob_cannot_draw(monkeypatch):
    # Digit 0 has Q-mass 0, so once Alice draws it her candidate never enters
    # Bob's set; digit 3 has no mass on either side and must not turn the
    # log-ratio into nan.
    p = np.array([0.5, 0.5, 0.0, 0.0])
    q = np.array([0.0, 0.5, 0.5, 0.0])
    entries = []
    sweep = sampling._termination_rounds
    monkeypatch.setattr(sampling, "_termination_rounds",
                        lambda entry, *events: entries.append(entry) or sweep(entry, *events))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alice, _, _, ok = one_way_rows(np.tile(p, (50, 1)), q, 20, 0.2, 40 * 6,
                                       np.random.default_rng(31))
    assert (alice[:, 0] > 0).all()
    assert len(entries) == 1 and not entries[0].any()
    assert not ok.any()


def test_termination_sweep_matches_reference_loop():
    rng = np.random.default_rng(38)
    for rows in (1, 2, 7, 40):
        for _ in range(50):
            entry = rng.integers(0, 6, size=rows) * (rng.random(rows) < 0.8)
            counts = rng.poisson(1.5, size=rows)
            ev_row = np.repeat(np.arange(rows), counts)
            ev_entry = rng.integers(1, 6, size=len(ev_row))
            # lengths 0 to 3 give overlapping, nested and adjacent intervals
            ev_last = ev_entry + rng.integers(0, 4, size=len(ev_row))
            got = sampling._termination_rounds(entry, ev_row, ev_entry, ev_last)
            for i in range(rows):
                events = list(zip(ev_entry[ev_row == i].tolist(), ev_last[ev_row == i].tolist()))
                expect = reference_termination_round(int(entry[i]) or None, events)
                assert got[i] == (expect or 0), (entry[i], events, got[i], expect)


def reference_termination_round(entry_round, events):
    """Earliest round with exactly one matching candidate, if any, as a plain loop."""
    boundaries = {1}
    if entry_round is not None:
        boundaries.add(entry_round)
    for start, end in events:
        boundaries.add(start)
        boundaries.add(end + 1)
    for t in sorted(boundaries):
        count = sum(1 for start, end in events if start <= t <= end)
        if entry_round is not None and t >= entry_round:
            count += 1
        if count == 1:
            return t
    return None


def test_truncated_lazy_run_pays_the_cap_and_falls_back(monkeypatch):
    # The real cap never binds at these sizes; cut it to three rounds of hash
    # bits so every run here hits max_rounds.
    mu = NoisyHypercube(8, 0.1)
    m, eps = 20, 0.02
    s = hash_bits_per_round(eps / 2.0)
    p = mu.conditional_rows([101])
    q = mu.marginal_y().probs
    uncapped = {seed: one_way_correlated_sample(mu, 101, m, eps, SharedRandomness((32, seed)))
                for seed in range(10)}
    monkeypatch.setattr(sampling, "truncation_limit", lambda mu, m, eps: 3 * s)
    for seed, (full_alice, _, full_stats) in uncapped.items():
        assert full_stats.bits_alice > 3 * s
        shared = SharedRandomness((32, seed))
        alice, bob, stats = one_way_correlated_sample(mu, 101, m, eps, shared)
        assert stats.bits_alice == 3 * s
        assert not stats.success
        assert np.array_equal(alice, full_alice)
        # Bob's fallback is the next draw of the run's one stream, after
        # Alice's counts, her level and position, and the false matches; on
        # 256^20 points her index over N is her exponential to float precision
        rng = shared.stream(sampling._TAG_OUTPUT)
        sampling._multinomial_rows(m, p, rng)
        rng.random(1)
        position = rng.standard_exponential(1)
        sampling._false_matches(p, q, m, s, position, 3, rng)
        assert np.array_equal(bob, sampling._multinomial_rows(m, q[None, :], rng)[0])


def test_communication_scales_with_divergence():
    # Sharpening P doubles the divergence from uniform; mean hash payload
    # should grow by a factor bounded on both sides.
    size = 64
    q = Distribution.uniform(size)
    means = {}
    for d in (2, 4):
        total = 0
        trials = 500
        for seed in range(trials):
            p = Distribution(np.r_[np.full(size >> d, float(2 ** d) / size),
                                   np.zeros(size - (size >> d))])
            _, _, stats = correlated_sample(p, q, 0.1, SharedRandomness((18, d, seed)))
            total += stats.bits_alice
        means[d] = total / trials
    ratio = means[4] / means[2]
    assert 1.5 <= ratio <= 3.0
