"""Acceptance gate: one checked, printed line per primary criterion."""

import json
import math
import subprocess
import sys
import time

import numpy as np

from uccsim.agreement import (
    NearestCodewordStrategy,
    agreement_entropy_audit,
    chernoff_bound,
    greedy_covering_code,
    hamming_ball_size,
)
from uccsim.core import BitString, TableFunction, distance
from uccsim.discrepancy import (
    block_eigenvalues,
    block_eigenvectors,
    block_norm_bound,
    cc_lower_bound,
    coordinate_block,
    discrepancy_exact,
    discrepancy_spectral_bound,
    signed_mass_matrix,
    spectral_norm,
    tensor_power,
)
from uccsim.distributions import (
    Distribution,
    NoisyHypercube,
    ProductJoint,
    TableJoint,
    binary_entropy,
    derive_rng,
    kl_divergence,
)
from uccsim.oracle import exact_one_way_cc
from uccsim.parity import ParityFunction, parity_distance
from uccsim.sampling import (
    SharedRandomness,
    correlated_rows,
    hash_bits_per_round,
    one_way_correlated_sample,
    truncation_limit,
)
from uccsim.uncertain import (
    UncertainInstance,
    choose_sample_count,
    estimate_uncertain_error,
    generate_instance,
    run_trials,
)


def report(capsys, number, title, ok, detail):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {number:02d} {title}: {detail}")
    assert ok, f"criterion {number:02d} {title}: {detail}"


def _adversarial_instance(inst, rng):
    """inst with f re-placed against Bob: the same protocol, g and delta budget.

    The rows x go in random order.  On each, f moves towards another
    decider on the heaviest points where that decider differs from g, until
    just past half of their conditional mass: Bob's samples then favour the
    wrong decider, which errs on all of that mass.  Rows are added until the
    next one would overflow delta.  With one decider there is nothing to
    move towards, and f stays g.
    """
    mu, assignment, deciders = inst.mu, inst.protocol.assignment, inst.protocol.deciders
    g_table = inst.g.to_table()
    f_table = g_table.copy()
    parts = len(deciders)
    spent = 0.0
    for x in rng.permutation(mu.size_x) if parts > 1 else ():
        other = (assignment[x] + rng.integers(1, parts)) % parts
        differ = np.flatnonzero(deciders[other] != g_table[x])
        if not len(differ):
            continue
        masses = mu.mass_array(np.full(len(differ), x), differ)
        order = np.argsort(-masses, kind="stable")
        cum = np.cumsum(masses[order])
        # the first prefix past half of the differing mass
        last = int(np.searchsorted(cum, cum[-1] / 2.0, side="right"))
        if spent + cum[last] > inst.delta:
            break
        spent += cum[last]
        f_table[x, differ[order[:last + 1]]] ^= 1
    adversarial = UncertainInstance(mu=mu, protocol=inst.protocol, g=inst.g,
                                    f=TableFunction(f_table), k=inst.k, eps=inst.eps,
                                    delta=inst.delta)
    adversarial.verify()
    return adversarial


def test_criterion_01_uncertain_error_bound(capsys):
    """Error against g within 2 delta + theta under random and adversarial delta-flips.

    Random flips (generate_instance) hardly move Bob's choice, so they
    never test the 2 delta term; the adversarial placement
    (_adversarial_instance) does, on every delta > 0 point, with the same
    protocol, g and trial seeds.  Under NoisyHypercube(8, 0.1) its error at
    delta = 0.1 and k > 0 must reach 1.3 delta.  Under the uniform product
    every point weighs the same, so just past half leaves Bob a margin of
    one point and the error stays near delta; it is only bounded there.
    """
    trials = 10_000
    worst = {"random": (math.inf, None), "adversarial": (math.inf, None)}
    sharpness, max_seconds = math.inf, 0.0
    ok = True
    point = 0
    for mu_name in ("product", "noisy"):
        for k in (0, 2, 4):
            for delta in (0.0, 0.05, 0.1):
                for theta in (0.2, 0.3):
                    point += 1
                    mu = (ProductJoint.uniform_bits(8) if mu_name == "product"
                          else NoisyHypercube(8, 0.1))
                    inst = generate_instance(8, k, 0.0, delta,
                                             derive_rng(1000, point), mu=mu)
                    placements = {"random": inst}
                    if delta > 0.0:
                        placements["adversarial"] = _adversarial_instance(
                            inst, derive_rng(1000, point, 1))
                    for placement, instance in placements.items():
                        start = time.time()
                        est = estimate_uncertain_error(instance, theta, trials,
                                                       master_seed=2000 + point)
                        seconds = time.time() - start
                        max_seconds = max(max_seconds, seconds)
                        margin = 2 * delta + theta + est.half_width - est.error_rate
                        if margin < worst[placement][0]:
                            worst[placement] = (margin, (mu_name, k, delta, theta))
                        ok &= margin >= 0.0 and seconds < 60.0
                        if placement == "adversarial" and mu_name == "noisy" and k > 0 \
                                and delta == 0.1:
                            sharpness = min(sharpness, est.error_rate / delta)
    ok &= sharpness >= 1.3
    report(capsys, 1, "uncertain protocol error bound", ok,
           f"36 grid points x {trials} trials, worst margin {worst['random'][0]:+.4f} "
           f"at {worst['random'][1]}; adversarial flips at the 24 delta > 0 points, worst "
           f"margin {worst['adversarial'][0]:+.4f} at {worst['adversarial'][1]}, error / delta "
           f">= {sharpness:.2f} at noisy delta=0.1, k > 0 (need >= 1.3); slowest point "
           f"{max_seconds:.0f}s")


def test_criterion_02_product_communication_flat(capsys):
    k, theta = 1, 0.3
    m = choose_sample_count(k, theta)
    overheads = {}
    for n in (4, 8, 12):
        inst = generate_instance(n, k, 0.0, 0.05, derive_rng(1100, n),
                                 mu=ProductJoint.uniform_bits(n))
        est = estimate_uncertain_error(inst, theta, 3000, master_seed=1101)
        overheads[n] = est.mean_bits - m
    spread = max(overheads.values()) / min(overheads.values())
    ok = spread <= 1.1 and all(v > 0 for v in overheads.values())
    report(capsys, 2, "product-input communication is m plus flat overhead", ok,
           f"m={m}, overhead bits by n {dict((n, round(v, 1)) for n, v in overheads.items())}, "
           f"spread x{spread:.3f} (allowed x1.10)")


def test_criterion_03_one_way_sampling_contract(capsys):
    mu = NoisyHypercube(8, 0.1)
    m, eps, trials = 20, 0.1, 1000
    limit = truncation_limit(mu, m, eps)
    agree = 0
    payload_ok = True
    for seed in range(trials):
        x = int(derive_rng(1200, seed).integers(256))
        _, _, stats = one_way_correlated_sample(mu, x, m, eps,
                                                SharedRandomness((1201, seed)))
        agree += stats.success
        payload_ok &= stats.bits_alice <= limit
    rate = agree / trials
    ok = rate >= 0.9 and payload_ok
    report(capsys, 3, "one-way sampling agreement and payload cap", ok,
           f"agreement {rate:.3f} (need >= 0.9), payload <= {limit} bits in all runs: "
           f"{payload_ok}")


def _interactive_bits_bound(p, q, eps):
    """Upper bound on the mean bits_alice of correlated_sample(p, q, eps), for 3 bits a round.

    Bits are s + c (T - 1) for termination round T, s = hash_bits_per_round(eps)
    and c = 3, the fresh bits a round of the Braverman-Rao schedule.  The
    bound is on that schedule, so c is written here, not read from sampling:
    a costlier schedule must fail it.

    Alice's candidate enters Bob's set at e = max(A, H) (one_way_rows).  A =
    max(floor(log2 u + log2(P/Q)(v)) + 1, 1) for her value v ~ P and level u
    uniform, so P(A <= t) = sum_v min(P(v), 2^t Q(v)) for t >= 1.  H is the
    first round whose horizon N 2^(t-1) passes her Geometric(1/N) index,
    P(H <= t) = 1 - (1 - 1/N)^(N 2^(t-1)), with N = p.size.  A and H are
    independent, so E[e] = 1 + sum_{t>=1} (1 - P(A <= t) P(H <= t)) exactly.
    Rounds from e on with T not reached hold Alice's candidate and at least
    one false match, so T - e is at most the total number of rounds false
    matches spend in Bob's set.  Their proposals number boost 2^(1-s) /
    (1 - 2^(2-c)) on average, boost = N / (N - 1), independently of e, and
    each stays a Geometric(1 - 2^-c) number of rounds, so
    E[T] <= E[e] + boost 2^(1-s) / ((1 - 2^(2-c)) (1 - 2^-c)).  The round
    cap only lowers the bits.
    """
    c, s, size = 3, hash_bits_per_round(eps), p.size
    rounds = np.arange(1, 200)
    accepted = np.minimum(p.probs, np.exp2(rounds)[:, None] * q.probs).sum(axis=1)
    past_horizon = 1.0 - (1.0 - 1.0 / size) ** (size * np.exp2(rounds - 1))
    entry = 1.0 + (1.0 - accepted * past_horizon).sum()
    false_rounds = (size / (size - 1) * 2.0 ** (1 - s)
                    / ((1.0 - 2.0 ** (2 - c)) * (1.0 - 2.0 ** -c)))
    return s + c * (entry - 1.0 + false_rounds)


def test_criterion_04_interactive_sampling_contract(capsys):
    size, eps, runs = 16, 0.1, 100_000
    weights = np.arange(1.0, size + 1)
    p = Distribution(weights / weights.sum())
    q = Distribution.uniform(size)
    a, b, _, _, _ = correlated_rows(p, q, eps, runs, np.random.default_rng(1300))
    counts = np.bincount(a, minlength=size)
    agree = np.bincount(a[a == b], minlength=size)
    tv = 0.5 * np.abs(counts / runs - p.probs).sum()
    cond_rates = agree / counts
    cond_ok = bool((cond_rates >= 1 - eps).all())

    half = Distribution(np.r_[np.full(8, 1 / 8), np.zeros(8)])
    quarter = Distribution(np.r_[np.full(4, 1 / 4), np.zeros(12)])
    pairs = [(q, q), (Distribution.point_mass(size, 0), q), (half, q),
             (quarter, q), (p, q), (quarter, p)]
    constants, caps = [], []
    for index, (pp, qq) in enumerate(pairs):
        bits = correlated_rows(pp, qq, eps, 300, np.random.default_rng((1301, index)))[2]
        div = kl_divergence(pp, qq)
        shape = div + 2 * math.log2(1 / eps) + math.sqrt(div) + 1
        constants.append(np.mean(bits) / shape)
        # the mean of 300 runs may sit 4 standard errors over the derived bound
        caps.append((_interactive_bits_bound(pp, qq, eps)
                     + 4.0 * np.std(bits) / math.sqrt(len(bits))) / shape)
    over = max(c - cap for c, cap in zip(constants, caps))
    c_ok = all(math.isfinite(c) and 0 < c <= cap for c, cap in zip(constants, caps))
    ok = tv <= 0.02 and cond_ok and c_ok
    report(capsys, 4, "interactive sampling marginal, agreement, constant", ok,
           f"TV {tv:.4f} (cap 0.02), min conditional agreement {cond_rates.min():.3f} "
           f"(need >= {1 - eps}), C range [{min(constants):.2f}, {max(constants):.2f}], "
           f"C over its derived cap by at most {over:+.3f} (need <= 0)")


def test_criterion_05_block_norm_closed_form(capsys):
    start = time.time()
    worst_gap = worst_residual = 0.0
    bound_ok = True
    for a in np.arange(0.001, 0.9505, 0.001):
        a = float(a)
        lam1, lam2 = block_eigenvalues(a)
        block = coordinate_block(a)
        worst_gap = max(worst_gap, abs(spectral_norm(block) - math.sqrt(lam1)))
        bound_ok &= math.sqrt(lam1) <= block_norm_bound(a)
        gram = block.T @ block
        for vec, lam in zip(block_eigenvectors(a), (lam1, lam1, lam2, lam2)):
            worst_residual = max(worst_residual,
                                 float(np.linalg.norm(gram @ vec - lam * vec)))
    seconds = time.time() - start
    ok = worst_gap <= 1e-12 and worst_residual <= 1e-9 and bound_ok and seconds < 10
    report(capsys, 5, "block spectral norm matches closed form", ok,
           f"950 grid points, worst norm gap {worst_gap:.2e} (cap 1e-12), worst "
           f"eigenvector residual {worst_residual:.2e} (cap 1e-9), {seconds:.2f}s")


def test_criterion_06_tensor_identity(capsys):
    worst = 0.0
    for n in (1, 2, 3):
        for p in (0.1, 0.25, 0.4):
            a = p / (1 - p)
            scale = (1 - p) ** (2 * n) / 4.0 ** n
            expect = scale * tensor_power(coordinate_block(a), n)
            worst = max(worst, float(np.max(np.abs(signed_mass_matrix(n, p) - expect))))
    ok = worst <= 1e-12
    report(capsys, 6, "signed mass matrix tensor identity", ok,
           f"n in 1..3, p in (0.1, 0.25, 0.4), max entry gap {worst:.2e} (cap 1e-12)")


def test_criterion_07_discrepancy_chain(capsys):
    chain_ok = True
    for n in (1, 2):
        for p in np.arange(0.05, 0.46, 0.05):
            p = float(p)
            chain_ok &= discrepancy_exact(n, p) <= discrepancy_spectral_bound(n, p) + 1e-12
    rates = [-math.log2(discrepancy_spectral_bound(100, float(p))) / (float(p) * 100)
             for p in np.arange(0.01, 0.105, 0.01)]
    center = sum(rates) / len(rates)
    stable = all(abs(r - center) <= 0.1 * center for r in rates)
    ok = chain_ok and all(r > 0 for r in rates) and stable
    report(capsys, 7, "discrepancy bound chain and contraction rate", ok,
           f"exact <= spectral on 9 p-points at n = 1 and 2; per-coordinate rate "
           f"{min(rates):.4f}..{max(rates):.4f} around {center:.4f} (stable within 10%)")


def test_criterion_08_parity_family_exactness(capsys):
    cc_ok = dist_ok = bound_ok = True
    for p in (0.1, 0.25):
        for n in (1, 2, 3):
            mu = NoisyHypercube(n, p)
            table_mu = TableJoint(mu.to_table())
            for mask in range(1 << n):
                cost = exact_one_way_cc(ParityFunction(BitString(mask, n), n), mu, 0.0)
                cc_ok &= cost == (0 if mask == 0 else 1)
            for a in range(1 << n):
                for b in range(1 << n):
                    closed = parity_distance(a, b, p, n=n)
                    exact = distance(ParityFunction(BitString(a, n), n),
                                     ParityFunction(BitString(b, n), n), table_mu)
                    dist_ok &= abs(closed - exact) <= 1e-12
                    bound_ok &= closed <= p * (a ^ b).bit_count() + 1e-12
    ok = cc_ok and dist_ok and bound_ok
    report(capsys, 8, "parity costs and distances are exact", ok,
           f"one-way cost 1 (0 for the empty mask) for all masks n<=3, closed-form "
           f"distance matches tables within 1e-12 and respects the p*gap bound: {ok}")


def test_criterion_09_ball_counts_and_entropy_audit(capsys):
    count_ok = True
    for size in range(1, 25):
        for delta2 in np.arange(0.05, 0.46, 0.05):
            delta2 = float(delta2)
            count = hamming_ball_size(size, math.floor(delta2 * size))
            count_ok &= count <= 2 ** (binary_entropy(delta2) * size) + 1e-9
    size, delta2 = 10, 0.2
    code = greedy_covering_code(size, 2)
    h_inf = agreement_entropy_audit(NearestCodewordStrategy(code, size), size, delta2)
    floor = (1 - binary_entropy(delta2)) * size
    ok = count_ok and h_inf >= floor
    report(capsys, 9, "ball counts and min-entropy audit", ok,
           f"ball <= 2^(h*|Y|) for |Y|<=24; {len(code)}-word radius-2 code gives "
           f"H_inf {h_inf:.3f} >= floor {floor:.3f} (16 words cannot cover: "
           f"16*{hamming_ball_size(size, 2)} < {1 << size})")


def test_criterion_10_chernoff_dominance(capsys):
    rng = np.random.default_rng(1400)
    samples = 100_000
    grid = [(100, 0.2), (200, 0.3), (500, 0.1), (1000, 0.05), (50, 0.4)]
    ok = True
    worst_ratio = 0.0
    for n, p in grid:
        mean = n * p
        draws = rng.binomial(n, p, size=samples)
        delta, shift = 0.3, math.sqrt(n)
        freq_bound = (
            (np.mean(draws < (1 - delta) * mean), chernoff_bound(n, mean, "lower", delta)),
            (np.mean(draws > (1 + delta) * mean), chernoff_bound(n, mean, "upper", delta)),
            (np.mean(draws > mean + shift), chernoff_bound(n, mean, "additive", shift)),
        )
        for freq, bound in freq_bound:
            ok &= freq <= bound
            worst_ratio = max(worst_ratio, freq / bound)
    report(capsys, 10, "simulated tails never exceed the three bounds", ok,
           f"5 (n, p) points x {samples} samples, worst frequency/bound ratio "
           f"{worst_ratio:.3f} (must stay <= 1)")


def test_criterion_11_lower_bound_grows_like_sqrt_n(capsys):
    """The discrepancy lower bound at family distance delta grows like sqrt(delta n).

    At p = sqrt(delta / n) and advantage 1/2 the bound is -n log2 of the
    per-coordinate factor (1-p)^2 ||block||, which is 1 - (2 - sqrt 2) p +
    O(p^2).  So bound / sqrt(n) tends to gamma0 sqrt(delta) with gamma0 =
    (2 - sqrt 2) / ln 2 as n grows, and must stay within 10% of it.
    """
    gamma0 = (2.0 - math.sqrt(2.0)) / math.log(2.0)
    worst = {}
    for delta in (0.05, 0.1):
        limit = gamma0 * math.sqrt(delta)
        worst[delta] = max(
            abs(cc_lower_bound(discrepancy_spectral_bound(n, math.sqrt(delta / n)), 0.5)
                / math.sqrt(n) - limit) / limit
            for n in (10 ** e for e in range(2, 7)))
    ok = all(w <= 0.1 for w in worst.values())
    report(capsys, 11, "lower bound grows like sqrt(delta n)", ok,
           f"p = sqrt(delta/n), advantage 0.5, n = 1e2..1e6: bound/sqrt(n) within "
           f"{100 * worst[0.05]:.1f}% (delta 0.05) and {100 * worst[0.1]:.1f}% (delta 0.1) "
           f"of gamma0 sqrt(delta), gamma0 = {gamma0:.4f} (cap 10%)")


def test_criterion_12_cli_byte_identical(capsys, tmp_path):
    strategy = tmp_path / "identity.json"
    strategy.write_text(json.dumps({"kind": "identity"}))
    cases = [
        ["uncertain-run", "--n", "4", "--k", "1", "--delta", "0.05",
         "--theta", "0.4", "--trials", "10", "--seed", "5"],
        ["csample-bench", "--universe", "16", "--eps", "0.1", "--trials", "20",
         "--tilt-grid", "0,1", "--seed", "2"],
        ["lowerbound-sweep", "--p-grid", "0.05,0.1", "--n-grid", "1,2"],
        ["agreement-audit", "--size-y", "8", "--delta2", "0",
         "--strategy", str(strategy)],
        ["oracle-cc", "--function", "parity:S=0b11", "--n", "2", "--mu", "noisy:0.1"],
        ["family-audit", "--n", "24", "--q", "0.25", "--p", "0.1",
         "--samples", "100", "--seed", "8"],
    ]
    ok = True
    for case in cases:
        cmd = [sys.executable, "-m", "uccsim.cli"] + case
        first = subprocess.run(cmd, capture_output=True)
        second = subprocess.run(cmd, capture_output=True)
        ok &= (first.returncode == second.returncode == 0
               and first.stdout == second.stdout)
    report(capsys, 12, "CLI reruns are byte-identical", ok,
           f"all {len(cases)} subcommands repeated with fixed seeds")


def test_criterion_13_communication_follows_information(capsys):
    """Mean bits are m + s' + c (E[T] - 1), and E[T] is m I / (c - 2) up to a derived O(1).

    A run of _run_rows sends the m revealed bits plus the payload s' + c (T
    - 1) for its termination round T, with c = max(3, 2 + round(sqrt(m I)))
    fresh bits a round and a first block of s' = s + c - 3 bits, s from
    hash_bits_per_round at the sampler's budget; so each trial's rounds are
    (bits - m - s') / c + 1.  The bound is on that schedule, so c is written
    here, not read from sampling: a costlier schedule must fail it.

    Alice's candidate enters Bob's set at e = max(A, H) (one_way_rows), as
    Bob's acceptance grows 2^b x a round, b = c - 2.  A = max(floor(z / b) +
    1, 1) with z = log2 u + L, her level u uniform and L the sum of
    log2(P_x/Q) over her m draws, so E[L] = m D(P_x||Q) and E_x D = I (on
    NoisyHypercube every x has D = I).  E[log2 u] = -1/ln 2, and z / b <
    floor(z / b) + 1 <= z / b + 1, so J < E[A] <= J + 1 for J = (m I -
    1/ln 2) / b; the floor at 1 acts only when z < 0, dozens of standard
    deviations below its mean at every point here.  H is the first round
    whose horizon passes her index, which over N is Exp(1) on these
    astronomically large universes, and max(A, H) <= A + H - 1 with E[H -
    1] = sum_j P(index >= 2^j) = sum_j exp(-2^j) < 0.53.

    False matches are proposed F = 2^(2-s) times a run on average at every
    c, independently of e, and each stays a Geometric(1 - 2^-c) number of
    rounds.  Without one, T = e.  Rounds from e on before T hold Alice's
    candidate and a false match, so E[T] <= E[e] + F / (1 - 2^-c); and T >=
    1 gives E[T] >= E[e] P(no proposal) >= E[e] (1 - F).  So
        J - F J < E[T] <= J + 1 + 0.53 + F / (1 - 2^-c),
    and each point's mean rounds must lie in that interval, give or take 4
    standard errors of the mean.  The mean payload must also be at most
    that of the interval's upper end, s' + c (upper - 1).  The truncation
    cap sits far above these payloads.
    """
    theta, delta, trials = 0.3, 0.05, 400
    s = hash_bits_per_round((theta / 10.0) ** 2 / 2.0)
    false_matches = 2.0 ** (2 - s)
    horizon = sum(math.exp(-2.0 ** j) for j in range(8))
    start = time.time()
    ok = True
    worst = (math.inf, None)
    payload_ratio = 0.0
    point = 0
    for k in (1, 2, 4):
        m = choose_sample_count(k, theta)
        for p in (0.05, 0.1, 0.2):
            for n in (4, 8, 12):
                point += 1
                mu = NoisyHypercube(n, p)
                inst = generate_instance(n, k, 0.0, delta, derive_rng(1500, point), mu=mu)
                bits = run_trials(inst, theta, trials, 1501 + point).bits
                info = m * mu.mutual_information()
                c = max(3, 2 + round(math.sqrt(info)))
                first = s + c - 3
                rounds = (bits - m - first) / c + 1.0
                slack = 4.0 * rounds.std() / math.sqrt(trials)
                entry = (info - 1.0 / math.log(2.0)) / (c - 2)
                low = entry - false_matches * entry
                high = entry + 1.0 + horizon + false_matches / (1.0 - 2.0 ** -c)
                mean = rounds.mean()
                # distance inside the interval, in standard errors of the mean
                margin = min(mean - (low - slack), high + slack - mean) / (slack / 4.0)
                if margin < worst[0]:
                    worst = (margin, (k, p, n))
                payload = bits.mean() - m
                payload_cap = first + c * (high - 1.0)
                payload_ratio = max(payload_ratio, payload / payload_cap)
                ok &= margin >= 0.0 and payload <= payload_cap
    seconds = time.time() - start
    ok &= seconds < 10.0
    report(capsys, 13, "communication follows O(k(1+I))", ok,
           f"27 points x {trials} trials, mean rounds inside their derived interval with "
           f"{worst[0]:.1f} standard errors to spare at worst (need >= 0, at (k, p, n) = "
           f"{worst[1]}), max payload / (s' + c (upper - 1)) {payload_ratio:.3f} (need <= 1), "
           f"{seconds:.1f}s")
