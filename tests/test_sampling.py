"""Tests for the correlated sampling protocols, interactive and one-way."""

import hashlib
import math
import warnings

import numpy as np
import pytest

from uccsim import sampling
from uccsim.distributions import Distribution, NoisyHypercube, ProductJoint, TableJoint
from uccsim.sampling import (
    DEFAULT_MAX_CANDIDATES,
    FRESH_BITS_PER_ROUND,
    SharedRandomness,
    correlated_rows,
    correlated_sample,
    fresh_bits_per_round,
    hash_bits_per_round,
    one_way_block,
    one_way_correlated_sample,
    one_way_rows,
    payload_bits,
    rounds_within,
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


def test_payload_schedule():
    # an (s + c - 3)-bit first block, then c fresh bits a round; rounds_within inverts it
    assert FRESH_BITS_PER_ROUND == 3
    assert [payload_bits(6, t, 3) for t in (1, 2, 3, 10)] == [6, 9, 12, 33]
    assert [rounds_within(6, bits, 3) for bits in (0, 5, 6, 8, 9, 33, 35)] \
        == [0, 0, 1, 1, 2, 10, 10]
    assert [payload_bits(14, t, 26) for t in (1, 2, 3)] == [37, 63, 89]
    assert [rounds_within(14, bits, 26) for bits in (0, 36, 37, 62, 63, 89)] == [0, 0, 1, 1, 2, 3]
    rounds = np.arange(1, 50)
    for c in (3, 4, 26):
        bits = payload_bits(14, rounds, c)
        assert bits[0] == 14 + c - 3 and (np.diff(bits) == c).all()
        assert np.array_equal(rounds_within(14, bits, c), rounds)
        # a bit short of a round's payload buys one round fewer
        assert np.array_equal(rounds_within(14, bits - 1, c), rounds - 1)


def test_fresh_bits_rule():
    # c = max(3, 2 + round(sqrt(m I))): 3 up to m I = 2, 26 at the uncertain-run
    # example (NoisyHypercube(12, 0.1), m = 91, m I = 580), never below 3
    assert [fresh_bits_per_round(m, info) for m, info in
            ((1, 0.0), (91, 0.0), (1, 2.0), (2, 1.0), (40, 0.05))] == [3] * 5
    assert fresh_bits_per_round(1, 2.3) == 4
    assert fresh_bits_per_round(91, NoisyHypercube(12, 0.1).mutual_information()) == 26


def _digest(outputs) -> str:
    return hashlib.sha256(b"".join(np.asarray(out).astype("<i8").tobytes()
                                   for out in outputs)).hexdigest()


def test_zero_information_runs_keep_the_three_bit_schedule():
    # At I(X;Y) = 0 the rule gives c = 3, the interactive run's schedule, and
    # the draws are pinned bit for bit: one_way_block on a product joint, and
    # correlated_rows, whose one-point x side has I = 0.  The sums were taken
    # with numpy 2.4.6 on the 3-bit schedule with an s-bit first block.
    mu = ProductJoint.uniform_bits(8)
    assert fresh_bits_per_round(30, mu.mutual_information()) == 3
    block = one_way_block(mu, np.arange(256).repeat(4), 30, 0.05, np.random.default_rng(60))
    assert _digest(block) == "653a518dfd809556d5593ecb3bf151766d364656d00183cb37627d20a154130c"
    weights = np.arange(1.0, 17.0)
    rows = correlated_rows(Distribution(weights / weights.sum()), Distribution.uniform(16), 0.1,
                           4000, np.random.default_rng(61))
    assert _digest(rows) == "f8536fe20f267e36aaf87d3668b62d531301f13ce06d4cca2a0a09e0ff3efdd4"


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


def interactive_rows(p, q, eps, runs, seed, max_candidates=DEFAULT_MAX_CANDIDATES):
    """correlated_rows on a generator seeded with seed: (a, b, bits_alice, rounds, success).

    Row i is what correlated_sample returns on the block's stream (see
    test_correlated_sample_is_the_one_row_case).
    """
    return correlated_rows(p, q, eps, runs, np.random.default_rng(seed), max_candidates)


def one_point_joint(p):
    """A joint with one x, whose conditional is p: one_way_rows' form of a lone P."""
    return ProductJoint(Distribution([1.0]), p)


def test_correlated_sample_is_the_one_row_case():
    # Every output of a call, for any max_candidates, is row 0 of one_way_rows
    # at m = 1 on the call's output stream, with the round cap that
    # max_candidates allows.
    weights = np.arange(1.0, 17.0)
    pairs = [(Distribution(weights / weights.sum()), Distribution.uniform(16)),
             (Distribution.point_mass(16, 3), Distribution(weights[::-1] / weights.sum())),
             (Distribution(np.r_[np.full(8, 1 / 8), np.zeros(8)]),
              Distribution(np.r_[np.zeros(4), np.full(8, 1 / 8), np.zeros(4)]))]
    eps = 0.1
    s = hash_bits_per_round(eps)
    for max_candidates in (2000, 100_000, DEFAULT_MAX_CANDIDATES):
        limit = payload_bits(s, (max_candidates // 16).bit_length(), FRESH_BITS_PER_ROUND)
        for index, (p, q) in enumerate(pairs):
            for seed in range(200):
                shared = SharedRandomness((40, index, seed))
                a, b, stats = correlated_sample(p, q, eps, shared, max_candidates)
                alice, bob, bits, ok = one_way_rows(one_point_joint(p), np.zeros(1, np.int64),
                                                    q, 1, s, FRESH_BITS_PER_ROUND, limit,
                                                    shared.stream(sampling._TAG_OUTPUT))
                assert (a, b) == (alice[0, 0], bob[0, 0])
                assert payload_bits(s, stats.rounds, FRESH_BITS_PER_ROUND) == bits[0]
                assert stats == sampling.TranscriptStats(
                    bits_alice=bits[0], bits_bob=stats.rounds, rounds=stats.rounds,
                    success=ok[0])


def test_correlated_sample_needs_one_round_of_candidates():
    p, q = Distribution.point_mass(16, 3), Distribution.uniform(16)
    _, _, stats = correlated_sample(p, q, 0.1, SharedRandomness(41), max_candidates=16)
    assert stats.rounds == 1
    with pytest.raises(ValueError):
        correlated_sample(p, q, 0.1, SharedRandomness(41), max_candidates=15)
    with pytest.raises(ValueError):
        correlated_rows(p, q, 0.1, 0, np.random.default_rng(41))


def test_correlated_sample_identical_distributions():
    # With P = Q the parties accept the same candidates, so disagreement can
    # come only from hash collisions and stays within the error budget.
    q = Distribution.uniform(16)
    trials = 2000
    a, b, _, rounds, _ = interactive_rows(q, q, 0.05, trials, 1)
    assert (a == b).mean() >= 0.98
    assert rounds.mean() <= 2.0


def test_correlated_sample_point_mass():
    p = Distribution.point_mass(16, 5)
    q = Distribution.uniform(16)
    a, b, _, _, _ = interactive_rows(p, q, 0.05, 10_000, 2)
    assert (a == 5).all()
    assert (b == a).mean() >= 0.95


def test_correlated_sample_partial_overlap():
    # P covers 0..7, Q covers 4..11; conditioned on a falling in the shared
    # region, the parties still agree at the contracted rate.
    p = Distribution(np.r_[np.full(8, 1 / 8), np.zeros(8)])
    q = Distribution(np.r_[np.zeros(4), np.full(8, 1 / 8), np.zeros(4)])
    eps = 0.1
    a, b, _, _, _ = interactive_rows(p, q, eps, 2000, 3, max_candidates=100_000)
    overlap = (4 <= a) & (a <= 7)
    assert overlap.sum() > 500
    assert (b == a)[overlap].mean() >= 1 - eps


def test_lone_false_match_gives_bob_its_value():
    # A run that terminates on a lone false match hands Bob that candidate, as
    # the literal run does; at m = 1 success is then exactly a == b, and about
    # one run in 1,100 here ends on a false match of Alice's value.
    p = Distribution.point_mass(16, 5)
    q = Distribution.uniform(16)
    a, b, _, rounds, ok = interactive_rows(p, q, 0.1, 20_000, 42)
    ended = rounds < (DEFAULT_MAX_CANDIDATES // 16).bit_length()
    assert ended.mean() > 0.99
    assert np.array_equal(ok[ended], (a == b)[ended])


def test_correlated_sample_disjoint_supports_rejected():
    p = Distribution([0.5, 0.5, 0.0, 0.0])
    q = Distribution([0.0, 0.0, 0.5, 0.5])
    with pytest.raises(ValueError):
        correlated_sample(p, q, 0.1, SharedRandomness(4))
    with pytest.raises(ValueError):
        correlated_sample(p, Distribution.uniform(8), 0.1, SharedRandomness(4))


def test_correlated_sample_budget_blowout_reported():
    # A support element Bob assigns no mass keeps Alice's candidate out of
    # Bob's set; the failure is reported through stats rather than raised or
    # silently repaired.
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
    trials = 20_000
    a, _, _, _, _ = interactive_rows(p, q, 0.1, trials, 6)
    tv = 0.5 * np.abs(np.bincount(a, minlength=8) / trials - p.probs).sum()
    assert tv <= 0.03


def test_correlated_sample_stats_accounting():
    p = Distribution([0.7, 0.1, 0.1, 0.1])
    q = Distribution.uniform(4)
    s = hash_bits_per_round(0.05)
    for seed in range(50):
        _, _, stats = correlated_sample(p, q, 0.05, SharedRandomness((7, seed)))
        assert stats.bits_alice == s + FRESH_BITS_PER_ROUND * (stats.rounds - 1)
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
    # a one-way run draws at least one sample; m = 0 is rejected, not a free agreement
    mu = NoisyHypercube(4, 0.1)
    for m in (0, -1):
        with pytest.raises(ValueError):
            one_way_correlated_sample(mu, 3, m, 0.1, SharedRandomness(8))
        with pytest.raises(ValueError):
            one_way_block(mu, [3, 5], m, 0.1, np.random.default_rng(8))


def test_one_way_block_checks_arguments_before_reading_the_information(monkeypatch):
    # the cap reads I(X;Y), which on a TableJoint builds the whole table; an
    # off-range x and m = 0 are rejected before it
    def no_information(self):
        raise AssertionError("mutual_information read before the argument checks")

    mu = TableJoint(np.full((4, 4), 1.0 / 16))
    monkeypatch.setattr(TableJoint, "mutual_information", no_information)
    with pytest.raises(IndexError):
        one_way_block(mu, [1, 4], 3, 0.1, np.random.default_rng(8))
    with pytest.raises(ValueError):
        one_way_block(mu, [1, 2], 0, 0.1, np.random.default_rng(8))


def test_one_way_stats_shape():
    mu = NoisyHypercube(3, 0.2)
    limit = truncation_limit(mu, 4, 0.1)
    for seed in range(50):
        alice, bob, stats = one_way_correlated_sample(mu, 5, 4, 0.1,
                                                      SharedRandomness((9, seed)))
        assert stats.rounds == 1
        assert stats.bits_bob == 0
        assert stats.bits_alice <= limit
        assert alice.shape == bob.shape == (4,)
        assert ((0 <= alice) & (alice < 8) & (0 <= bob) & (bob < 8)).all()
        if stats.success:
            assert np.array_equal(alice, bob)


def test_one_way_zero_mass_x_rejected():
    # the conditional at an x of zero mass is undefined, whether the joint
    # draws through its conditional rows or, as a product, from its y-marginal
    for mu in (TableJoint(np.array([[0.0, 0.0], [0.5, 0.5]])),
               ProductJoint(Distribution([0.0, 1.0]), Distribution([0.5, 0.5]))):
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
    # Alice's list must be m i.i.d. draws from the conditional row, whatever
    # Bob manages to reconstruct.
    mu = NoisyHypercube(2, 0.2)
    x = 0
    counts = np.zeros(4)
    trials = 10_000
    m = 2
    for seed in range(trials):
        alice, _, _ = one_way_correlated_sample(mu, x, m, 0.2,
                                                SharedRandomness((15, seed)))
        counts += np.bincount(alice, minlength=4)
    expect = mu.conditional_y_given_x(x).probs
    tv = 0.5 * np.abs(counts / (trials * m) - expect).sum()
    assert tv <= 0.02


HASH_PRIME = (1 << 31) - 1
_TAG_CANDIDATES = 1
_TAG_HASH = 2
_TAG_FALLBACK = 4


def _hash_block(mult: int, shift: int, indices: np.ndarray, width: int) -> np.ndarray:
    """Pairwise-independent hash of 1-based indices down to width bits."""
    return ((mult * indices + shift) % HASH_PRIME) & ((1 << width) - 1)


class _DenseRun:
    """Literal protocol run over a materialized candidate stream: the reference for the lazy run.

    Round 1 hashes every candidate to s + c - 3 bits, each later round to c
    fresh bits, each round with its own hash function.  Bob's set at round t
    holds the candidates among the first size 2^(t-1) whose level is below
    min(1, 2^((c-2) t) Q(value)).
    """

    def __init__(self, p: np.ndarray, q: np.ndarray, eps: float, shared: SharedRandomness,
                 max_candidates: int, c: int = FRESH_BITS_PER_ROUND):
        self.p = p
        self.q = q
        self.size = len(p)
        self.s = hash_bits_per_round(eps)
        self.c = c
        self.shared = shared
        self.max_candidates = max_candidates
        self.rng_c = shared.stream(_TAG_CANDIDATES)
        self.rng_h = shared.stream(_TAG_HASH)
        self.values = np.empty(0, dtype=np.int64)
        self.levels = np.empty(0, dtype=np.float64)
        self.match_ok = np.empty(0, dtype=bool)
        self.round_hashes: list[tuple[int, int, int, int]] = []

    def _grow(self, target: int) -> None:
        have = len(self.values)
        if target <= have:
            return
        fresh = target - have
        new_values = self.rng_c.integers(self.size, size=fresh)
        new_levels = self.rng_c.random(fresh)
        new_match = np.ones(fresh, dtype=bool)
        indices = np.arange(have + 1, target + 1, dtype=np.int64)
        for mult, shift, width, bits in self.round_hashes:
            new_match &= _hash_block(mult, shift, indices, width) == bits
        self.values = np.concatenate([self.values, new_values])
        self.levels = np.concatenate([self.levels, new_levels])
        self.match_ok = np.concatenate([self.match_ok, new_match])

    def _alice_pick(self) -> int:
        """1-based index of the first candidate below Alice's acceptance level."""
        start = 0
        target = self.size
        while True:
            self._grow(min(target, self.max_candidates))
            accepted = np.flatnonzero(self.levels[start:] < self.p[self.values[start:]])
            if accepted.size:
                return start + int(accepted[0]) + 1
            start = len(self.values)
            if start >= self.max_candidates:
                raise RuntimeError("no accepted candidate within the candidate budget")
            target *= 2

    def run(self):
        """(a, b, bits_alice, rounds, terminated) of one run."""
        i_star = self._alice_pick()
        a = int(self.values[i_star - 1])
        bits_alice = 0
        rounds = 0
        terminated = False
        b = None
        matches = np.empty(0, dtype=np.int64)
        t = 0
        while True:
            t += 1
            horizon = self.size << (t - 1)
            if horizon > self.max_candidates:
                break
            self._grow(horizon)
            mult = int(self.rng_h.integers(1, HASH_PRIME))
            shift = int(self.rng_h.integers(HASH_PRIME))
            width = self.s + self.c - 3 if t == 1 else self.c
            alice_bits = int(_hash_block(mult, shift, np.array([i_star], dtype=np.int64),
                                         width)[0])
            self.round_hashes.append((mult, shift, width, alice_bits))
            indices = np.arange(1, len(self.values) + 1, dtype=np.int64)
            self.match_ok &= _hash_block(mult, shift, indices, width) == alice_bits
            acceptance = np.ldexp(self.q[self.values[:horizon]], (self.c - 2) * t)
            in_set = self.levels[:horizon] < np.minimum(1.0, acceptance)
            matches = np.flatnonzero(in_set & self.match_ok[:horizon])
            bits_alice += width
            rounds = t
            if matches.size == 1:
                terminated = True
                b = int(self.values[matches[0]])
                break
        if not terminated:
            # deterministic fallback: best current guess, else a fresh Q-draw
            if rounds > 0 and matches.size > 0:
                b = int(self.values[matches[0]])
            else:
                b = int(self.shared.stream(_TAG_FALLBACK).choice(self.size, p=self.q))
        return a, b, bits_alice, rounds, terminated


def criterion_04_pairs():
    """Criterion 04's six (P, Q) pairs on 16 points."""
    weights = np.arange(1.0, 17.0)
    q = Distribution.uniform(16)
    half = Distribution(np.r_[np.full(8, 1 / 8), np.zeros(8)])
    quarter = Distribution(np.r_[np.full(4, 1 / 4), np.zeros(12)])
    linear = Distribution(weights / weights.sum())
    return [(q, q), (Distribution.point_mass(16, 0), q), (half, q), (quarter, q), (linear, q),
            (quarter, linear)]


def test_literal_and_lazy_interactive_runs_agree():
    # Criterion 04's six pairs at c = 3, 4 and 6 fresh bits a round: 2,000
    # literal runs against 100,000 lazy m = 1 rows, with the round cap that
    # DEFAULT_MAX_CANDIDATES allows; at c = 3 the lazy rows are correlated_rows'.
    # They draw from different streams, so the agreement rate (a == b) and
    # the mean payload must match within 4 sigma of their difference.
    size, eps = 16, 0.1
    s = hash_bits_per_round(eps)
    literal_runs, lazy_runs = 2000, 100_000
    for c in (3, 4, 6):
        limit = payload_bits(s, (DEFAULT_MAX_CANDIDATES // size).bit_length(), c)
        for index, (p, qq) in enumerate(criterion_04_pairs()):
            a, b, bits, _ = one_way_rows(one_point_joint(p), np.zeros(lazy_runs, np.int64), qq,
                                         1, s, c, limit, np.random.default_rng((43, c, index)))
            literal = np.array([_DenseRun(p.probs, qq.probs, eps,
                                          SharedRandomness((44, c, index, seed)),
                                          DEFAULT_MAX_CANDIDATES, c).run()[:3]
                                for seed in range(literal_runs)])
            for lazy_sample, literal_sample in ((a[:, 0] == b[:, 0],
                                                 literal[:, 0] == literal[:, 1]),
                                                (bits, literal[:, 2])):
                sigma = math.sqrt(lazy_sample.var() / lazy_runs
                                  + literal_sample.var() / literal_runs)
                gap = abs(lazy_sample.mean() - literal_sample.mean())
                assert gap <= 4.0 * sigma, (c, index, lazy_sample.mean(), literal_sample.mean(),
                                            sigma)


def literal_false_match_counts(p, q, s, c, rounds, runs, rng):
    """Per run and round 1..rounds, the candidates other than Alice's in a literal Bob's set.

    A literal stream over each run's first size 2^(rounds-1) candidates:
    uniform values, uniform levels, Alice's index the first whose level is
    below p, and each candidate matching a round's b bits with probability
    2^-b, independently, as under the fully random hash the lazy model
    assumes.  Returns a runs x rounds count array.
    """
    size = len(p)
    width = size << (rounds - 1)
    values = rng.integers(size, size=(runs, width))
    levels = rng.random((runs, width))
    accepted = levels < p[values]
    alice = np.where(accepted.any(axis=1), accepted.argmax(axis=1), width)
    others = np.arange(width) != alice[:, None]
    matched = np.ones((runs, width), bool)
    counts = np.empty((runs, rounds), np.int64)
    for t in range(1, rounds + 1):
        matched &= rng.random((runs, width)) < 2.0 ** -(s + c - 3 if t == 1 else c)
        in_set = (np.arange(width) < size << (t - 1)) \
            & (levels < np.minimum(1.0, np.ldexp(q[values], (c - 2) * t)))
        counts[:, t - 1] = (in_set & matched & others).sum(axis=1)
    return counts


def test_false_matches_follow_a_literal_count():
    # On criterion 04's six pairs at c = 3, 4 and 6, the mean number of false
    # matches in Bob's set at each of rounds 1 to 3 must match a literal
    # count within 4 sigma, 100,000 runs a side.  s = 0, far below any
    # hash_bits_per_round, makes about 4 proposals a run, so that the counts
    # see the thinning of candidates that entered Bob's set in an earlier
    # round: the proposal's level below 2^-(c-2), for a set whose
    # acceptance grew 2^(c-2)x.
    size, s, rounds, runs = 16, 0, 3, 100_000
    chunk = 25_000
    for c in (3, 4, 6):
        for index, (p, qq) in enumerate(criterion_04_pairs()):
            rng = np.random.default_rng((45, c, index))
            literal = np.concatenate([literal_false_match_counts(p.probs, qq.probs, s, c,
                                                                 rounds, chunk, rng)
                                      for _ in range(runs // chunk)])
            # Alice's index over N, drawn as one_way_rows draws it
            alice_index = rng.standard_exponential(runs) / (-size * math.log1p(-1.0 / size))
            row, entry, last, _ = sampling._false_matches(
                one_point_joint(p), np.zeros(runs, np.int64), qq, 1, s, c, alice_index, rounds,
                rng)
            for t in range(1, rounds + 1):
                lazy = np.bincount(row[(entry <= t) & (t <= last)], minlength=runs)
                sigma = math.sqrt((lazy.var() + literal[:, t - 1].var()) / runs)
                gap = abs(lazy.mean() - literal[:, t - 1].mean())
                assert gap <= 4.0 * sigma, (c, index, t, lazy.mean(), literal[:, t - 1].mean())


def literal_one_way(p, q, m, eps, c, limit, seeds):
    """The literal one-way run at c fresh bits a round, seed by seed: digit counts and agreements.

    An uncapped _DenseRun runs over the explicit product universe, whose
    index has base-d digit j, of weight d^j, for copy j.  A run that
    terminates within the rounds whose payload_bits fit in limit is the
    capped run; any other run fails under the cap.
    """
    d = len(p)
    full_p, full_q = p, q
    for _ in range(m - 1):
        full_p, full_q = np.kron(p, full_p), np.kron(q, full_q)
    budget = rounds_within(hash_bits_per_round(eps / 2.0), limit, c)
    digits = np.zeros(d)
    agree = 0
    for seed in seeds:
        a, b, _, rounds, ok = _DenseRun(full_p, full_q, eps / 2.0, SharedRandomness(seed),
                                        DEFAULT_MAX_CANDIDATES, c).run()
        digits += np.bincount(a // d ** np.arange(m) % d, minlength=d)
        agree += ok and rounds <= budget and a == b
    return digits, agree


def assert_lazy_matches_literal(mu, x, m, eps, trials, seed):
    # The lazy run as one block of rows, the literal one seed by seed.  They
    # draw from different streams, so Alice's digit frequencies and the
    # agreement rates must match within 4 sigma.  Both agree only on the
    # same ordered tuple: the literal run compares product-universe indices,
    # whose digit j is copy j, and the lazy run whole lists.  Both take
    # one_way_block's c fresh bits a round.
    p = mu.conditional_y_given_x(x).probs
    q = mu.marginal_y().probs
    limit = truncation_limit(mu, m, eps)
    c = fresh_bits_per_round(m, mu.mutual_information())
    alice, bob, _, ok = one_way_rows(mu, np.full(trials, x), mu.marginal_y(), m,
                                     hash_bits_per_round(eps / 2.0), c, limit,
                                     np.random.default_rng(seed))
    assert (alice[ok] == bob[ok]).all()
    digits, agree = literal_one_way(p, q, m, eps, c, limit,
                                    [(seed, x, run) for run in range(trials)])
    draws = trials * m
    sigma = np.sqrt(2.0 * p * (1.0 - p) / draws)
    assert np.all(np.abs(np.bincount(alice.ravel(), minlength=len(p)) - digits) / draws
                  <= 4.0 * sigma)
    rate = {"lazy": ok.mean(), "literal": agree / trials}
    pooled = (rate["lazy"] + rate["literal"]) / 2.0
    assert min(rate.values()) >= 1.0 - eps
    assert abs(rate["lazy"] - rate["literal"]) <= 4.0 * math.sqrt(2.0 * pooled * (1.0 - pooled)
                                                                  / trials), rate


def test_one_way_lazy_and_dense_paths_agree_statistically():
    mu = NoisyHypercube(2, 0.2)
    for x, eps in ((1, 0.2), (1, 0.05), (0, 0.05)):
        assert_lazy_matches_literal(mu, x, 2, eps, 2000, 17)
    # m I = 4.3 here, so both runs reveal c = 4 fresh bits a round
    mu = NoisyHypercube(2, 0.05)
    assert fresh_bits_per_round(3, mu.mutual_information()) == 4
    assert_lazy_matches_literal(mu, 1, 3, 0.1, 2000, 18)
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


def test_lazy_alice_lists_are_iid_draws_of_the_conditional():
    # Over the rows of one block, each cell's count must lie within 4 sigma
    # of its binomial mean for: the values over all list positions against
    # p; at each position, the value's distance from x against the law of
    # that distance; and the distances at (position 1, position 2) against
    # the product of that law, which checks their independence.
    # NoisyHypercube's p is uniform on each distance from x, so the distance
    # cells carry its whole shape.  Cells expected to get fewer than 100
    # draws are pooled into one cell: below that, a 4 sigma normal bound
    # understates a cell's upper tail several times over.  At m = 9935 the
    # per-position check runs at the first two and the last position.
    mu = NoisyHypercube(8, 0.1)
    rows = 2000

    def assert_binomial(values, law, draws):
        common = law * draws >= 100
        counts = np.bincount(values, minlength=len(law))
        counts = np.append(counts[common], counts[~common].sum())
        law = np.append(law[common], law[~common].sum())
        assert np.all(np.abs(counts - draws * law) <= 4.0 * np.sqrt(draws * law * (1.0 - law)))

    for x, m in ((0, 37), (173, 9935)):
        p = mu.conditional_y_given_x(x).probs
        lists = one_way_rows(mu, np.full(rows, x), mu.marginal_y(), m, hash_bits_per_round(0.05),
                             fresh_bits_per_round(m, mu.mutual_information()),
                             truncation_limit(mu, m, 0.1), np.random.default_rng((33, x)))[0]
        assert lists.shape == (rows, m) and lists.dtype == np.int64
        assert_binomial(lists.ravel(), p, rows * m)
        distance = mu._pc[np.arange(256) ^ x]
        law = np.bincount(distance, weights=p)
        for j in range(m) if m < 100 else (0, 1, m - 1):
            assert_binomial(distance[lists[:, j]], law, rows)
        pair = distance[lists[:, 0]] * len(law) + distance[lists[:, 1]]
        assert_binomial(pair, np.outer(law, law).ravel(), rows)


def test_lazy_run_never_draws_a_zero_mass_cell():
    # P and Q have zero-mass cells, the last one included, and the rows of the
    # second table have different supports; neither Alice's list nor Bob's
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
        c = fresh_bits_per_round(m, mu.mutual_information())
        assert c > FRESH_BITS_PER_ROUND
        # a one-round cap makes most runs fall back to Bob's own draw
        one_round = payload_bits(s, 1, c)
        for limit, seed in ((truncation_limit(mu, m, eps), 35), (one_round, 36)):
            alice, bob, _, ok = one_way_rows(mu, xs, mu.marginal_y(), m, s, c, limit,
                                             np.random.default_rng(seed))
            assert alice.shape == bob.shape == (len(xs), m)
            assert (p[np.arange(len(xs))[:, None], alice] > 0).all()
            assert (q[bob] > 0).all()
            assert np.array_equal(alice[ok], bob[ok])
            if limit == one_round:
                assert (~ok).sum() > len(xs) // 2


def test_lazy_run_never_enters_on_a_digit_bob_cannot_draw(monkeypatch):
    # Digit 0 has Q-mass 0, so once Alice draws it her candidate never enters
    # Bob's set; digit 3 has no mass on either side and must not turn the
    # log-ratio into nan.
    p = Distribution([0.5, 0.5, 0.0, 0.0])
    q = Distribution([0.0, 0.5, 0.5, 0.0])
    entries = []
    sweep = sampling._termination_rounds
    monkeypatch.setattr(sampling, "_termination_rounds",
                        lambda entry, *events: entries.append(entry) or sweep(entry, *events))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alice, _, _, ok = one_way_rows(one_point_joint(p), np.zeros(50, np.int64), q, 20, 6,
                                       FRESH_BITS_PER_ROUND, 40 * 6, np.random.default_rng(31))
    assert (alice == 0).any(axis=1).all()
    assert len(entries) == 1 and not entries[0].any()
    assert not ok.any()


def test_block_that_all_terminates_draws_no_fallback(monkeypatch):
    # With P = Q every row's candidate enters by its horizon round, and at
    # s = 40 no false match is proposed; Alice's list is then the block's
    # only list draw, since Bob needs no fallback.
    calls = []
    sample = Distribution.sample
    monkeypatch.setattr(Distribution, "sample",
                        lambda self, rng, size: calls.append(size) or sample(self, rng, size))
    q = Distribution.uniform(4)
    cap = payload_bits(40, 40, FRESH_BITS_PER_ROUND)
    _, _, payload, ok = one_way_rows(one_point_joint(q), np.zeros(50, np.int64), q, 1, 40,
                                     FRESH_BITS_PER_ROUND, cap, np.random.default_rng(37))
    assert ok.all() and (payload < cap).all()
    assert calls == [(50, 1)]


def test_lone_false_match_in_another_order_is_no_agreement(monkeypatch):
    # A lone false match that holds Alice's list in another order ends the
    # run with Bob's list a permutation of hers; the literal run compares
    # ordered tuples, so such a run fails.  Here every row gets one match
    # from round 1 on, holding Alice's list reversed, so a row whose own
    # candidate enters after round 1 ends on it.
    mu = NoisyHypercube(4, 0.1)
    drawn = []
    sample_lists = NoisyHypercube.sample_lists
    monkeypatch.setattr(NoisyHypercube, "sample_lists",
                        lambda self, xs, m, rng: drawn.append(sample_lists(self, xs, m, rng))
                        or drawn[-1])
    monkeypatch.setattr(sampling, "_false_matches",
                        lambda mu, xs, q, m, s, c, index, last_round, rng:
                        (np.arange(len(xs)), np.ones(len(xs), np.int64),
                         np.full(len(xs), 1000), drawn[-1][:, ::-1]))
    c = fresh_bits_per_round(3, mu.mutual_information())
    alice, bob, _, ok = one_way_rows(mu, np.arange(16).repeat(20), mu.marginal_y(), 3, 40, c,
                                     payload_bits(40, 60, c), np.random.default_rng(41))
    permuted = (np.sort(bob, axis=1) == np.sort(alice, axis=1)).all(axis=1) \
        & (bob != alice).any(axis=1)
    assert permuted.sum() > 20
    assert not ok[permuted].any()


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
    # bits so every run here hits the cap.
    mu = NoisyHypercube(8, 0.1)
    m, eps = 20, 0.02
    s = hash_bits_per_round(eps / 2.0)
    xs = np.array([101])
    q = mu.marginal_y()
    c = fresh_bits_per_round(m, mu.mutual_information())
    uncapped = {seed: one_way_correlated_sample(mu, 101, m, eps, SharedRandomness((32, seed)))
                for seed in range(10)}
    cap = payload_bits(s, 3, c)
    monkeypatch.setattr(sampling, "truncation_limit", lambda mu, m, eps, info: cap)
    for seed, (full_alice, _, full_stats) in uncapped.items():
        assert full_stats.bits_alice > cap
        shared = SharedRandomness((32, seed))
        alice, bob, stats = one_way_correlated_sample(mu, 101, m, eps, shared)
        assert stats.bits_alice == cap
        assert not stats.success
        assert np.array_equal(alice, full_alice)
        # Bob's fallback is the next draw of the run's one stream, after
        # Alice's list, her level and position, and the false matches; on
        # 256^20 points her index over N is her exponential to float precision
        rng = shared.stream(sampling._TAG_OUTPUT)
        mu.sample_lists(xs, m, rng)
        rng.random(1)
        position = rng.standard_exponential(1)
        sampling._false_matches(mu, xs, q, m, s, c, position, 3, rng)
        assert np.array_equal(bob, q.sample(rng, (1, m))[0])


def test_communication_scales_with_divergence():
    # Sharpening P doubles the divergence from uniform; the mean number of
    # rounds, the part of the payload that grows with it, should grow by a
    # factor bounded on both sides.
    size = 64
    q = Distribution.uniform(size)
    means = {}
    for d in (2, 4):
        p = Distribution(np.r_[np.full(size >> d, float(2 ** d) / size),
                               np.zeros(size - (size >> d))])
        means[d] = interactive_rows(p, q, 0.1, 500, (18, d))[3].mean()
    ratio = means[4] / means[2]
    assert 1.5 <= ratio <= 3.0
