"""Tests for the uncertain-context protocol, instance generation, and trials."""

import itertools
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from uccsim.core import (
    DISTANCE_BLOCK,
    BoolFunction,
    FlippedFunction,
    OneWayProtocol,
    distance,
    protocol_error,
)
from uccsim.distributions import NoisyHypercube, ProductJoint, TableJoint, derive_rng
from uccsim.sampling import SharedRandomness, one_way_correlated_sample, truncation_limit
from uccsim import uncertain
from uccsim.uncertain import (
    UncertainInstance,
    choose_sample_count,
    decider_errors,
    estimate_uncertain_error,
    generate_instance,
    run_trials,
    run_uncertain_protocol,
    wilson_half_width,
)


def budget(theta):
    # c: what the sampler's failure phi = 1.5 (theta / 10)^2 leaves of theta
    return theta - 1.5 * (theta / 10.0) ** 2


def satisfies_hoeffding(k, c, m, t):
    # 2t + 2^k exp(-2 m t^2) within c at deviation t
    return 2.0 * t + 2.0 ** k * math.exp(-2.0 * m * t * t) <= c


def least_samples(k, c, t):
    # M(t): the least m with 2t + 2^k exp(-2 m t^2) <= c
    return math.log(2.0 ** k / (c - 2.0 * t)) / (2.0 * t * t)


def exact_tail(m, j, q):
    # P(Bin(m, q) >= j), summed in exact rationals
    return sum(math.comb(m, i) * q ** i * (1 - q) ** (m - i) for i in range(j, m + 1))


def test_choose_sample_count_frozen_values():
    assert choose_sample_count(0, 0.5) == 17
    assert choose_sample_count(0, 0.2) == 143
    assert choose_sample_count(2, 0.3) == 91
    assert choose_sample_count(4, 0.2) == 298
    assert choose_sample_count(2, 0.1) == 1018


def test_hoeffding_count_is_smallest():
    # the Hoeffding rule that bounds the search: m = ceil(min_t M(t))
    for k, theta, frozen in ((0, 0.5, 30), (2, 0.3, 136), (4, 0.2, 410), (6, 0.15, None)):
        c = budget(theta)
        m, t = uncertain._hoeffding_count(k, c)
        assert frozen is None or m == frozen
        # t solves the stationarity equation c/(2u) + ln u = k ln 2 + 1/2, u = c - 2t
        u = c - 2.0 * t
        assert c / (2.0 * u) + math.log(u) == pytest.approx(k * math.log(2.0) + 0.5, rel=1e-9)
        # and is the minimum of M over a grid of (0, c/2)
        grid = np.linspace(0.0, 0.5 * c, 2001)[1:-1]
        assert least_samples(k, c, t) <= min(least_samples(k, c, g) for g in grid)
        assert satisfies_hoeffding(k, c, m, t)
        assert not satisfies_hoeffding(k, c, m - 1, t)


def test_choose_sample_count_is_smallest():
    for k, theta in itertools.product((0, 1, 2, 4, 8, 16, 27), (0.1, 0.2, 0.3, 0.5, 0.9)):
        m = choose_sample_count(k, theta)
        c = budget(theta)
        hoeffding, _ = uncertain._hoeffding_count(k, c)
        assert m <= hoeffding
        # a deviation the search returns meets 2t + 2^k B(m, t) <= c, checked directly
        t = uncertain._tail_deviation(k, c, m)
        assert 0.0 < t < c / 2.0
        log_b = uncertain._BinomialTails(m).log_worst(t)
        assert 2.0 * t + math.exp(k * math.log(2.0) + log_b) <= c
        # and the search finds none at m - 1
        assert uncertain._tail_deviation(k, c, m - 1) is None
    # the bound is sharper than Hoeffding's: about a third fewer samples at the workload points
    assert choose_sample_count(2, 0.3) <= 0.7 * uncertain._hoeffding_count(2, budget(0.3))[0]


def test_tail_bound_never_exceeds_hoeffding():
    for m in (1, 2, 7, 40, 91, 1018, 30_000):
        tails = uncertain._BinomialTails(m)
        for t in np.linspace(0.0, 0.5, 41)[1:-1]:
            assert tails.log_worst(t) <= -2.0 * m * t * t


def test_tail_bound_covers_the_exact_binomial_tail():
    # every term's bound lies between the exact tail T_j at q_j = j/m - t and
    # T_j times j (1 - q_j) / (m t), the geometric factor, which is below 1/t;
    # dyadic t and q keep the rationals small
    for m in range(1, 41):
        tails = uncertain._BinomialTails(m)
        for t in (1 / 32, 3 / 32, 9 / 64, 1 / 4, 13 / 32):
            js, log_bounds = tails.log_terms(t)
            assert list(js) == list(range(math.floor(m * t) + 1, m + 1))
            exact = []
            for j, log_bound in zip(js.astype(int), log_bounds):
                q = Fraction(int(j), m) - Fraction(t)
                tail = exact_tail(m, int(j), q)
                factor = j * (1 - q) / (m * Fraction(t))
                assert float(tail) <= math.exp(log_bound) * (1.0 + 1e-12)
                assert math.exp(log_bound) <= float(tail * factor) * (1.0 + 1e-12)
                assert factor < 1 / Fraction(t)
                exact.append(tail)
            worst = math.exp(tails.log_worst(t))
            assert float(max(exact)) <= worst * (1.0 + 1e-12)
            # B is a sup over every q, not only the right ends: also check a grid of q
            for q in (Fraction(i, 64) for i in range(65)):
                tail = exact_tail(m, math.ceil(m * (q + Fraction(t))), q)
                assert float(tail) <= worst * (1.0 + 1e-12)


def test_tail_bound_holds_by_simulation():
    # draws of Bin(m, q_j) at the term whose bound is largest land at j or
    # above in at most B of the draws, within four standard errors
    draws = 200_000
    rng = np.random.default_rng(152)
    for m, t in ((91, 0.1307), (298, 0.09), (1018, 0.046)):
        tails = uncertain._BinomialTails(m)
        js, log_bounds = tails.log_terms(t)
        j = int(js[log_bounds.argmax()])
        bound = math.exp(tails.log_worst(t))
        share = np.count_nonzero(rng.binomial(m, j / m - t, size=draws) >= j) / draws
        assert share <= bound + 4.0 * math.sqrt(bound * (1.0 - bound) / draws)


def test_choose_sample_count_holds_linear_memory():
    # the search holds O(m) floats at a time: a (t-grid x m) array would be far larger
    theta = 0.02
    hoeffding, _ = uncertain._hoeffding_count(2, budget(theta))
    choose_sample_count.cache_clear()
    tracemalloc.start()
    try:
        m = choose_sample_count(2, theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m < hoeffding
    assert peak < 80 * hoeffding
    # past _SEARCH_MAX the search is skipped and Hoeffding's m is the answer
    hoeffding, _ = uncertain._hoeffding_count(64, budget(0.01))
    assert hoeffding > uncertain._SEARCH_MAX
    assert choose_sample_count(64, 0.01) == hoeffding


def test_decider_scores_concentrate_within_the_tail_deviation():
    # choose_sample_count's concentration step, checked directly: on a fixed
    # row x, m i.i.d. samples from mu(.|x) keep the right decider's empirical
    # disagreement with f at most t above its exact conditional disagreement
    # and every other decider's at most t below its own, except in at most
    # beta = 2^k B(m, t) of the sample lists, with t the deviation at m.
    k, theta, rows = 2, 0.3, 20_000
    m = choose_sample_count(k, theta)
    t = uncertain._tail_deviation(k, budget(theta), m)
    beta = 2.0 ** k * math.exp(uncertain._BinomialTails(m).log_worst(t))
    inst = generate_instance(6, k, 0.0, 0.1, np.random.default_rng(150),
                             mu=NoisyHypercube(6, 0.1))
    # the row where the right decider disagrees most with f (0.60), so a
    # score biased upwards shows in its upper tail
    x = 40
    cond = inst.mu.conditional_rows([x])[0]
    f_row = inst.f.to_table()[x]
    deciders = inst.protocol.deciders
    exact = (deciders != f_row).astype(np.float64) @ cond
    counts = np.random.default_rng(151).multinomial(m, cond, size=rows)
    # Alice revealed f on Bob's own list: +1 a sample at f's 0s, -1 at its 1s
    signed = counts * (1 - 2 * f_row.astype(np.int64))
    errors = decider_errors(deciders, signed, counts @ f_row, m)
    # positive where a decider's tail is the wrong one: j*'s upper, the others' lower
    right = np.arange(len(deciders)) == inst.protocol.assignment[x]
    drift = np.where(right, errors - exact, exact - errors)
    share = (drift > t).any(axis=1).mean()
    assert share <= beta + 4.0 * math.sqrt(beta * (1.0 - beta) / rows)
    # not vacuous: at half that deviation more than beta of the lists miss
    assert (drift > t / 2.0).any(axis=1).mean() > beta


def test_choose_sample_count_monotone_in_k():
    for k in range(5):
        assert choose_sample_count(k + 1, 0.3) > choose_sample_count(k, 0.3)
    # past k = 1023, where 2.0 ** k overflows a float
    assert choose_sample_count(1100, 0.3) > choose_sample_count(1023, 0.3)


def test_choose_sample_count_validation():
    with pytest.raises(ValueError):
        choose_sample_count(2, 0.0)
    with pytest.raises(ValueError):
        choose_sample_count(2, 1.0)
    with pytest.raises(ValueError):
        choose_sample_count(-1, 0.3)
    # k ln 2 overflows a float
    with pytest.raises(ValueError, match="k is too large"):
        choose_sample_count(10 ** 400, 0.3)


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
    # the delta pass (f against g) and the eps pass (g against the protocol)
    masses = [0.1, 0.2, 0.3, 0.4]
    mu = TableJoint(np.reshape(masses, (2, 2)))
    runs = 3000
    for eps, delta in ((0.0, 0.35), (0.35, 0.0)):
        law = flip_set_law(masses, max(eps, delta))
        seen = Counter()
        for seed in range(runs):
            inst = generate_instance(1, 0, eps, delta, np.random.default_rng(seed), mu=mu)
            before, after = (inst.g, inst.f) if delta else (inst.protocol, inst.g)
            flipped = before.to_table() != after.to_table()
            seen[frozenset(np.flatnonzero(flipped).tolist())] += 1
        assert set(seen) <= set(law)
        for points, p in law.items():
            sigma = math.sqrt(runs * p * (1.0 - p))
            assert abs(seen[points] - runs * p) <= 4.0 * sigma, (sorted(points), seen[points], p)


def skewed_joint():
    # 4096 points: one of mass 0.5 that never fits a budget of 0.2, one of 0.12,
    # and the rest 0.38 in eight mass classes by index mod 8
    weights = 1.0 + np.arange(4096) % 8
    weights *= 0.38 / (weights.sum() - weights[0] - weights[-1])
    weights[0], weights[-1] = 0.5, 0.12
    return TableJoint(weights.reshape(64, 64))


def prefix_statistics(sets, size):
    # per set: the two heavy points' inclusion, the count taken in each mass class and in
    # each of 16 index ranges, and its size
    rows = []
    for points in sets:
        flags = np.zeros(size, dtype=bool)
        flags[points] = True
        light = flags[1:-1]
        rows.append([flags[0], flags[-1]]
                    + [light[(np.arange(1, size - 1) % 8) == c].sum() for c in range(8)]
                    + [part.sum() for part in np.array_split(flags, 16)] + [len(points)])
    return np.array(rows, dtype=float)


def test_flip_set_law_holds_across_layers(monkeypatch):
    # the first layer falls short of the budget in about 30% of seeds, so the rest of
    # the set comes from later layers; the sets must still be random-order prefixes
    mu, budget, runs = skewed_joint(), 0.2, 2000
    masses = mu.table.reshape(-1)
    layers = []
    ranks = uncertain._bernoulli_ranks

    def counted(*args):
        layers[-1] += 1
        return ranks(*args)

    monkeypatch.setattr(uncertain, "_bernoulli_ranks", counted)
    built = []
    for seed in range(runs):
        layers.append(0)
        built.append(uncertain._flip_random_points(mu, budget, np.random.default_rng(seed)))
    assert sum(count > 1 for count in layers) >= runs // 10
    reference = []
    for seed in range(runs):
        spent, chosen = 0.0, []
        for point in np.random.default_rng(10**6 + seed).permutation(len(masses)).tolist():
            if spent + masses[point] > budget + 1e-12:
                break
            chosen.append(point)
            spent += masses[point]
        reference.append(chosen)
    got, want = prefix_statistics(built, len(masses)), prefix_statistics(reference, len(masses))
    # the heavy point never fits; each other statistic is a mean over independent sets
    assert not got[:, 0].any() and not want[:, 0].any()
    se = np.sqrt((got.var(axis=0) + want.var(axis=0)) / runs)
    z = np.abs(got.mean(axis=0) - want.mean(axis=0))[1:] / se[1:]
    assert (z <= 4.0).all(), z
    # the size histogram, bin by bin
    edges = np.quantile(want[:, -1], np.linspace(0.0, 1.0, 11))
    edges[-1] += 1
    for lo, hi in zip(edges[:-1], edges[1:]):
        a = ((got[:, -1] >= lo) & (got[:, -1] < hi)).sum()
        b = ((want[:, -1] >= lo) & (want[:, -1] < hi)).sum()
        p = (a + b) / (2 * runs)
        assert abs(a - b) <= 4.0 * math.sqrt(2 * runs * p * (1 - p)), (lo, hi, a, b)


def replay_flip_set(mu, budget, seed, chunk_bits):
    """The flip set replayed in plain Python from the same draws: (sorted points, layers drawn).

    Each layer draws skips floor(E / lam) + 1 over the ranks of the points not
    taken yet, 2^chunk_bits exponentials at a time, and one uint16 per member,
    four to a raw 64-bit draw, whose top bits are its bucket.  Buckets are
    taken whole while their mass fits; the first that overflows is ordered by
    one permutation and its prefix taken point by point.  The sums run in the
    builder's order: per chunk and bucket, then across chunks and buckets, and
    within the cut bucket from zero before the mass already spent is added.
    """
    rng = np.random.default_rng(seed)
    total = mu.size_x * mu.size_y
    limit = budget + 1e-12
    mass = [float(mu.mass_array(*divmod(point, mu.size_y))) for point in range(total)]
    taken, spent, squares, rest, layers = [], 0.0, 0.0, 1.0, 0
    while len(taken) < total:
        layers += 1
        left = sorted(set(range(total)) - set(taken))
        step = min(rest, 1.03 * (budget - spent) + 1024.0 / total + 4.0 * math.sqrt(squares))
        rate = step / rest
        rest -= step
        expected = rate * len(left)
        chunk = min(1 << chunk_bits, int(expected + 4.0 * math.sqrt(expected)) + 16)
        lam = -math.log1p(-rate) if rate < 1.0 else math.inf
        shift = min(16, max(0, 21 - int(expected).bit_length()))
        hist = [0.0] * (1 << (16 - shift))
        squares, members, rank, drawing = 0.0, [], -1, True
        while drawing:
            ranks = []
            for e in rng.standard_exponential(chunk).tolist():
                rank += int(e / lam) + 1
                if rank >= len(left):
                    drawing = False
                    break
                ranks.append(rank)
            raw = rng.bit_generator.random_raw(-(-len(ranks) // 4))
            keys = raw.view(np.uint16)[:len(ranks)].tolist()
            part = [0.0] * len(hist)
            for r, key in zip(ranks, keys):
                members.append((key >> shift, left[r]))
                part[key >> shift] += mass[left[r]]
            hist = [h + p for h, p in zip(hist, part)]
            chunk_masses = np.array([mass[left[r]] for r in ranks])
            squares += float(chunk_masses @ chunk_masses)
        for bucket, bucket_mass in enumerate(hist):
            if spent + bucket_mass <= limit:
                spent += bucket_mass
                continue
            points = [point for b, point in members if b == bucket]
            within = 0.0
            for i in rng.permutation(len(points)).tolist():
                within += mass[points[i]]
                if within + spent > limit:
                    break
                taken.append(points[i])
            return sorted(taken + [p for b, p in members if b < bucket]), layers
        taken += [point for _, point in members]
    return sorted(taken), layers


def test_flip_set_matches_a_plain_loop_over_the_same_draws(monkeypatch):
    # at the real chunk size one chunk holds every layer here; at 2^4 draws a
    # chunk, a layer spans many chunks.  The grid's sets fit in their first
    # layer; the skewed joint's first layer falls short for some seeds.
    cases = [(mu, budget, seed) for n in range(3, 7)
             for mu in (ProductJoint.uniform_bits(n), NoisyHypercube(n, 0.1))
             for budget in (0.05, 0.3, 0.999) for seed in range(2)]
    cases += [(skewed_joint(), 0.2, seed) for seed in range(12)]
    layers = Counter()
    for chunk_bits in (uncertain.FLIP_CHUNK_BITS, 4):
        monkeypatch.setattr(uncertain, "FLIP_CHUNK_BITS", chunk_bits)
        for mu, budget, seed in cases:
            got = uncertain._flip_random_points(mu, budget, np.random.default_rng(seed))
            want, drawn = replay_flip_set(mu, budget, seed, chunk_bits)
            assert got.dtype == np.int64
            assert got.tolist() == want, (chunk_bits, mu.size_x, budget, seed)
            layers[chunk_bits, drawn > 1] += 1
    assert layers[4, True] > 0 and layers[uncertain.FLIP_CHUNK_BITS, True] > 0, layers


def test_generate_instance_peaks_below_1_25_bytes_a_point():
    # traced peaks read 0.73 and 0.76 bytes a point, set by the flip-set build;
    # verify reads masses in cache-sized blocks and adds almost nothing
    n = 12
    for eps in (0.0, 0.01):
        tracemalloc.start()
        try:
            generate_instance(n, 2, eps, 0.05, np.random.default_rng(135))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (4 ** n) * 1.25


def test_trial_blocks_are_bounded_by_list_width():
    # n = 1 has |Y| = 2 but m = 1018 samples a run at k = 2, theta = 0.1: a
    # block sized by |Y| alone would hold every trial's lists at once, 2000 x
    # 1018 int64s per array, 16 MiB
    inst = generate_instance(1, 2, 0.0, 0.05, np.random.default_rng(141),
                             mu=NoisyHypercube(1, 0.1))
    m = choose_sample_count(2, 0.1)
    assert m > 2
    assert uncertain._block_trials(inst, 0.1) == uncertain.TRIAL_BLOCK // m
    tracemalloc.start()
    try:
        trials = run_trials(inst, 0.1, 2000, master_seed=46)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(len(column) == 2000 for column in trials)
    assert peak < 12 << 20


def test_verify_rejects_over_budget_flip_sets():
    # verify sums each set's mass from mu; it never trusts the builder's spend
    n = 5
    inst = generate_instance(n, 2, 0.05, 0.05, np.random.default_rng(139))
    heavy = np.arange(64)  # 64 of the 1024 uniform points: mass 1/16, over both budgets
    over_delta = UncertainInstance(mu=inst.mu, protocol=inst.protocol, g=inst.g,
                                   f=FlippedFunction(inst.g, heavy), k=2, eps=0.05, delta=0.05)
    with pytest.raises(ValueError, match="apart"):
        over_delta.verify()
    g = FlippedFunction(inst.protocol, heavy)
    over_eps = UncertainInstance(mu=inst.mu, protocol=inst.protocol, g=g,
                                 f=FlippedFunction(g, []), k=2, eps=0.05, delta=0.05)
    with pytest.raises(ValueError, match="errs"):
        over_eps.verify()
    # a set over delta spanning many of distance's blocks: the built delta-set plus the
    # diagonal of NoisyHypercube(10, 0.1), which holds 0.9^10 = 0.35 of the mass
    mu = NoisyHypercube(10, 0.1)
    inst = generate_instance(10, 2, 0.0, 0.05, np.random.default_rng(140), mu=mu)
    wide = np.union1d(inst.f.points, np.arange(mu.size_x) * (mu.size_y + 1))
    assert len(wide) > 2 * DISTANCE_BLOCK
    over_delta = UncertainInstance(mu=mu, protocol=inst.protocol, g=inst.g,
                                   f=FlippedFunction(inst.g, wide), k=2, eps=0.0, delta=0.05)
    with pytest.raises(ValueError, match="apart"):
        over_delta.verify()


def test_trials_read_no_whole_table(monkeypatch):
    # the trial path reads rows of f and one value of g per trial, never a dense table:
    # f's row read reaches the protocol's rows once per block, in block order
    def no_table(self):
        raise AssertionError("to_table called on the trial path")

    monkeypatch.setattr(BoolFunction, "to_table", no_table)
    inst = generate_instance(10, 2, 0.01, 0.05, np.random.default_rng(140),
                             mu=NoisyHypercube(10, 0.1))
    block = uncertain._block_trials(inst, 0.3)
    trials = 3 * block + 7
    row_reads = []
    protocol_rows = OneWayProtocol.rows

    def counted(self, xs):
        row_reads.append(len(xs))
        return protocol_rows(self, xs)

    monkeypatch.setattr(OneWayProtocol, "rows", counted)
    run = run_trials(inst, 0.3, trials, master_seed=45)
    assert row_reads == [block] * 3 + [7]
    assert all(len(column) == trials for column in run)


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
    # one call scores a block of runs; each row must equal its own per-sample gather
    rng = np.random.default_rng(129)
    size_y, rows = 64, 5
    for k in range(7):
        deciders = rng.integers(0, 2, size=(1 << k, size_y), dtype=np.uint8)
        for m in (1, 2, 37, 9935):
            bob = rng.integers(0, size_y, size=(rows, m))
            alice_bits = rng.integers(0, 2, size=(rows, m), dtype=np.uint8)
            f_rows = rng.integers(0, 2, size=(rows, size_y), dtype=np.uint8)

            def score(revealed):
                # the signed table _run_rows builds: +1 a sample paired with a 0, -1 with a 1
                signed = np.stack([np.bincount(b, weights=1.0 - 2.0 * a, minlength=size_y)
                                   for b, a in zip(bob, revealed)])
                return decider_errors(deciders, signed, revealed.sum(axis=1), m)

            got = score(alice_bits)
            # the success path: Alice revealed f on Bob's own list
            got_success = score(np.take_along_axis(f_rows, bob, axis=1))
            assert got.shape == got_success.shape == (rows, 1 << k)
            for i in range(rows):
                reference = (deciders[:, bob[i]] != alice_bits[i][None, :]).mean(axis=1)
                assert got.dtype == reference.dtype
                assert np.array_equal(got[i], reference)
                reference = (deciders[:, bob[i]] != f_rows[i][bob[i]][None, :]).mean(axis=1)
                assert np.array_equal(got_success[i], reference)


def test_failed_run_pairs_the_lists_index_by_index(monkeypatch):
    # After a failed sampling run Bob scores his own list against Alice's
    # revealed bits index by index, as the literal protocol pairs them: each
    # decider's score is its share of positions j where it disagrees with
    # f(x, alice[j]) at bob[j].  Two independent i.i.d. lists paired by index
    # are a uniformly random pairing in law.
    rng = np.random.default_rng(142)
    inst = generate_instance(4, 2, 0.0, 0.05, rng)
    theta, x = 0.4, 5
    m = choose_sample_count(2, theta)
    deciders = inst.protocol.deciders
    for seed in range(20):
        alice = inst.mu.sample_lists([x], m, derive_rng(seed, 4))
        bob = inst.mu.marginal_y().sample(derive_rng(seed, 5), (1, m))
        monkeypatch.setattr(uncertain, "one_way_block",
                            lambda *args: (alice, bob, np.array([60]), np.array([False])))
        result = run_uncertain_protocol(inst, x, 0, theta, SharedRandomness((24, seed)))
        revealed = inst.f.rows([x])[0, alice[0]]
        assert np.array_equal(result.errors, (deciders[:, bob[0]] != revealed).mean(axis=1))
        # a failed run still pays its payload plus the m revealed bits
        assert not result.sampling_ok and result.bits == 60 + m


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


def test_wilson_half_width_values():
    w = wilson_half_width(0.5, 10_000)
    assert w == pytest.approx(1.96 * 0.005, rel=0.01)
    assert 0.0 < wilson_half_width(0.0, 100) < 0.05
    with pytest.raises(ValueError):
        wilson_half_width(0.5, 0)
