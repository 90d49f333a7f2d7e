"""The four benchmark workloads.

Each workload builds its inputs from the seed in `setup`, runs one pass of
work in `run_pass` (the timed part) and checks that pass's outputs in
`review`.  Pass i draws its randomness from (seed, i), so the first passes
of a run, and every count taken from them, depend on the seed alone.
Workloads call uccsim only through its public functions, looked up on the
module at call time so that a traced run sees them.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from uccsim import agreement, cli, discrepancy, oracle, parity, sampling, uncertain
from uccsim.core import TableFunction, protocol_error
from uccsim.distributions import (Distribution, NoisyHypercube, ProductJoint, TableJoint,
                                  binary_entropy)

OUT_DIR = Path(__file__).resolve().parent / "out"
# set-up draws the inputs of this many passes; later passes reuse them in turn
PLANNED_PASSES = 32
_TOL = 1e-12


def child_seed(*parts: int) -> int:
    """A 31-bit seed derived from integer parts, independent of uccsim's own helpers."""
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0] >> 1)


@dataclass
class Review:
    """What one pass did, from its outputs: work, communication and failed checks."""

    ops: int
    bits: float = 0.0          # bits sent over the pass's protocol runs
    bit_runs: int = 0          # protocol runs those bits belong to
    sampled: int = 0           # correlated-sampling runs
    agreed: int = 0            # of which Alice and Bob agreed
    trials: int = 0            # uncertain-protocol trials requested
    problems: list[str] = field(default_factory=list)


class GridLazy:
    """estimate_uncertain_error on four criterion-01 points (n=8, delta=0.05, theta=0.2)."""

    name = "grid-lazy"
    op = "trial"
    aliases = {"trials_per_s": "wall_ops_per_s", "bits_per_trial": "comm_bits",
               "failure_share": "failure_share"}
    min_agreement = None
    N, DELTA, THETA, TRIALS = 8, 0.05, 0.2, 100
    POINTS = (("product", 0), ("product", 4), ("noisy:0.1", 0), ("noisy:0.1", 4))

    def setup(self, seed: int, tracer):
        instances = []
        for index, (mu_name, k) in enumerate(self.POINTS):
            mu = (ProductJoint.uniform_bits(self.N) if mu_name == "product"
                  else NoisyHypercube(self.N, 0.1))
            rng = np.random.default_rng(child_seed(seed, 1, index))
            instances.append(uncertain.generate_instance(self.N, k, 0.0, self.DELTA, rng,
                                                         mu=tracer.adopt(mu)))
        return seed, instances

    def run_pass(self, inputs, index: int, tracer):
        seed, instances = inputs
        return [uncertain.estimate_uncertain_error(inst, self.THETA, self.TRIALS,
                                                   child_seed(seed, 2, index, point))
                for point, inst in enumerate(instances)]

    def review(self, inputs, index: int, estimates) -> Review:
        _seed, instances = inputs
        review = Review(ops=0)
        for (mu_name, k), inst, est in zip(self.POINTS, instances, estimates):
            m = uncertain.choose_sample_count(inst.k, self.THETA)
            bound = 2 * self.DELTA + self.THETA + est.half_width
            if est.trials != self.TRIALS:
                review.problems.append(f"{mu_name} k={k}: {est.trials} trials, "
                                       f"asked for {self.TRIALS}")
            if est.error_rate > bound:
                review.problems.append(f"{mu_name} k={k}: error rate {est.error_rate} "
                                       f"over 2*delta+theta+half_width = {bound}")
            if est.mean_bits < m:
                review.problems.append(f"{mu_name} k={k}: mean bits {est.mean_bits} "
                                       f"below the m={m} revealed bits")
            review.ops += est.trials
            review.trials += self.TRIALS
            review.bits += est.mean_bits * est.trials
            review.bit_runs += est.trials
            review.sampled += est.trials
            review.agreed += est.trials - est.sampling_failures
        return review


class CliScale:
    """`uccsim uncertain-run` in process at n=12, noisy:0.1; instance building dominates."""

    name = "cli-scale"
    op = "uncertain-run invocation"
    aliases = {"cli_run_s": "pass_s", "bits_per_trial": "comm_bits",
               "failure_share": "failure_share"}
    min_agreement = None
    N, K, DELTA, THETA, TRIALS, MU = 12, 2, 0.05, 0.3, 200, "noisy:0.1"

    def setup(self, seed: int, tracer):
        """Command lines of PLANNED_PASSES invocations, checked by the CLI's parser."""
        OUT_DIR.mkdir(exist_ok=True)
        parser = cli.build_parser()
        plans = []
        for index in range(PLANNED_PASSES):
            path = OUT_DIR / f"cli-{os.getpid()}-{index}.csv"
            argv = ["uncertain-run", "--n", str(self.N), "--k", str(self.K),
                    "--delta", str(self.DELTA), "--theta", str(self.THETA), "--mu", self.MU,
                    "--trials", str(self.TRIALS), "--seed", str(child_seed(seed, 3, index)),
                    "--out", str(path)]
            parser.parse_args(argv)
            plans.append((argv, path))
        return plans

    def run_pass(self, plans, index: int, tracer):
        argv, path = plans[index % PLANNED_PASSES]
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed), tracer.span("cli.main"):
            code = cli.main(argv)
        return code, printed.getvalue(), path

    def review(self, plans, index: int, outcome) -> Review:
        code, printed, path = outcome
        review = Review(ops=1, trials=self.TRIALS)
        try:
            lines = path.read_text().splitlines()
        except OSError as exc:
            review.problems.append(f"no CSV written (exit {code}): {exc}")
            return review
        finally:
            path.unlink(missing_ok=True)
        if code != 0:
            review.problems.append(f"uncertain-run exited {code}")
        rows = [line.split(",") for line in lines[2:]]
        if lines[1:2] != ["trial,x,y,output,truth,correct,bits,sampling_ok"] or \
                [int(r[0]) for r in rows] != list(range(self.TRIALS)):
            review.problems.append(f"CSV does not hold one row per trial 0..{self.TRIALS - 1}")
            return review
        m = uncertain.choose_sample_count(self.K, self.THETA)
        wrong = failures = 0
        bits = 0
        for trial, _x, _y, output, truth, correct, row_bits, ok in rows:
            if int(correct) != int(output == truth):
                review.problems.append(f"trial {trial}: correct={correct} but "
                                       f"output={output} truth={truth}")
            if int(row_bits) < m:
                review.problems.append(f"trial {trial}: {row_bits} bits, below m={m}")
            wrong += output != truth
            failures += ok == "0"
            bits += int(row_bits)
        rate = wrong / self.TRIALS
        summary = dict(token.split("=", 1) for token in printed.split() if "=" in token)
        expected = {"error_rate": f"{rate:.6f}", "mean_bits": f"{bits / self.TRIALS:.2f}",
                    "sampling_failures": str(failures), "trials": str(self.TRIALS)}
        for key, value in expected.items():
            if summary.get(key) != value:
                review.problems.append(f"printed {key}={summary.get(key)} but the CSV "
                                       f"gives {value}")
        bound = 2 * self.DELTA + self.THETA + float(summary.get("half_width", "nan"))
        if not rate <= bound:
            review.problems.append(f"error rate {rate} over 2*delta+theta+half_width = {bound}")
        review.bits, review.bit_runs = float(bits), self.TRIALS
        review.sampled, review.agreed = self.TRIALS, self.TRIALS - failures
        return review


@dataclass
class _Source:
    p: Distribution
    q: Distribution
    samples: int
    label: str


class CsampleDense:
    """Interactive correlated_sample on universes 16 and 4096, plus dense one-way sampling."""

    name = "csample-dense"
    op = "correlated sample"
    aliases = {"csample_per_s": "wall_ops_per_s", "csample_bits": "comm_bits",
               "failure_share": "failure_share"}
    EPS = 0.1
    min_agreement = 1.0 - EPS
    SAMPLES = {16: 48, 4096: 16}          # interactive samples per source and pass
    # one-way calls per pass on NoisyHypercube(4, 0.2) with m=3: a product universe of 4096
    ONE_WAY_CALLS, ONE_WAY_M = 8, 3

    def setup(self, seed: int, tracer):
        rng = np.random.default_rng(child_seed(seed, 4))
        sources = []
        for size, samples in self.SAMPLES.items():
            q = Distribution.uniform(size)
            order = rng.permutation(size)
            for share in (1, 4, 16):
                probs = np.zeros(size)
                probs[order[: size // share]] = share / size
                sources.append(_Source(Distribution(probs), q, samples, f"{size}/1:{share}"))
            weights = np.arange(1.0, size + 1)[rng.permutation(size)]
            sources.append(_Source(Distribution(weights / weights.sum()), q, samples,
                                   f"{size}/linear"))
        mu = tracer.adopt(NoisyHypercube(4, 0.2))
        limit = sampling.truncation_limit(mu, self.ONE_WAY_M, self.EPS)
        return seed, sources, mu, limit

    def run_pass(self, inputs, index: int, tracer):
        seed, sources, mu, _limit = inputs
        interactive = []
        for number, source in enumerate(sources):
            for j in range(source.samples):
                shared = sampling.SharedRandomness((seed, 5, index, number, j))
                interactive.append(sampling.correlated_sample(source.p, source.q, self.EPS,
                                                              shared))
        one_way = []
        xs = np.random.default_rng(child_seed(seed, 6, index)).integers(
            mu.size_x, size=self.ONE_WAY_CALLS)
        for j, x in enumerate(xs):
            shared = sampling.SharedRandomness((seed, 7, index, j))
            one_way.append(sampling.one_way_correlated_sample(mu, int(x), self.ONE_WAY_M,
                                                              self.EPS, shared))
        return interactive, one_way

    def review(self, inputs, index: int, outcome) -> Review:
        _seed, sources, _mu, limit = inputs
        interactive, one_way = outcome
        review = Review(ops=len(interactive) + len(one_way))
        runs = iter(interactive)
        for source in sources:
            for _ in range(source.samples):
                a, b, stats = next(runs)
                if source.p.probs[a] <= 0:
                    review.problems.append(f"{source.label}: Alice's sample {a} has no P-mass")
                if stats.success and a != b:
                    review.problems.append(f"{source.label}: success reported but {a} != {b}")
                review.bits += stats.bits_alice
                review.agreed += stats.success
        review.bit_runs = review.sampled = len(interactive)
        for alice, bob, stats in one_way:
            if stats.bits_alice > limit:
                review.problems.append(f"one-way: payload {stats.bits_alice} over the "
                                       f"truncation limit {limit}")
            if stats.success and not np.array_equal(alice, bob):
                review.problems.append("one-way: success reported but samples differ")
            review.sampled += 1
            review.agreed += stats.success
        return review


class ExactVerify:
    """One battery of the exact modules: oracle, agreement, discrepancy and parity."""

    name = "exact-verify"
    op = "verification battery"
    aliases = {"verify_s": "pass_s"}
    min_agreement = None
    ORACLE_EPS = (0.0, 0.1, 0.3)
    CODE_BITS, CODE_RADIUS = 11, 2
    P_GRID = 16
    GAME_N, GAME_P, GAME_Q, GAMES = 10, 0.1, 0.2, 50

    def setup(self, seed: int, tracer):
        """Oracle cases and p-grids of PLANNED_PASSES batteries."""
        batteries = []
        for index in range(PLANNED_PASSES):
            rng = np.random.default_rng(child_seed(seed, 8, index))
            cases = []
            for eps in self.ORACLE_EPS:
                f = TableFunction(rng.integers(0, 2, size=(oracle.MAX_X, oracle.MAX_Y)))
                weights = rng.random((oracle.MAX_X, oracle.MAX_Y))
                cases.append((eps, f, TableJoint(weights / weights.sum())))
            batteries.append((cases, np.sort(rng.uniform(0.01, 0.49, size=self.P_GRID))))
        return seed, batteries

    def run_pass(self, inputs, index: int, tracer):
        seed, batteries = inputs
        planned_cases, p_grid = batteries[index % PLANNED_PASSES]
        cases = []
        for eps, f, mu in planned_cases:
            with tracer.span("oracle.exact_cc"):
                cost = oracle.exact_one_way_cc(f, mu, eps)
            with tracer.span("oracle.best_protocol"):
                best = oracle.best_protocol(f, mu, eps)
            cases.append((eps, f, mu, cost, best))
        with tracer.span("agreement.covering_code"):
            code = agreement.greedy_covering_code(self.CODE_BITS, self.CODE_RADIUS)
        strategy = agreement.NearestCodewordStrategy(code, self.CODE_BITS)
        delta2 = self.CODE_RADIUS / self.CODE_BITS
        with tracer.span("agreement.audit"):
            h_inf = agreement.agreement_entropy_audit(strategy, self.CODE_BITS, delta2)
        bounds = []
        for p in p_grid:
            with tracer.span("discrepancy.exact"):
                exact = discrepancy.discrepancy_exact(1, float(p))
            with tracer.span("discrepancy.spectral"):
                spectral = discrepancy.discrepancy_spectral_bound(1, float(p))
            bounds.append((float(p), exact, spectral))
        games = []
        rng = np.random.default_rng(child_seed(seed, 9, index))
        for _ in range(self.GAMES):
            with tracer.span("parity.game_sample"):
                (s, x), (t, y) = parity.sample_game_instance(self.GAME_N, self.GAME_P,
                                                             self.GAME_Q, rng)
            for mask in (s, t):
                with tracer.span("parity.protocol"):
                    proto = parity.parity_protocol(mask.value, self.GAME_N)
                    decided = proto.evaluate(x.value, y.value)
                games.append((mask, x, y, proto, decided))
        return cases, h_inf, bounds, games

    def review(self, inputs, index: int, outcome) -> Review:
        cases, h_inf, bounds, games = outcome
        review = Review(ops=1)
        for eps, f, mu, cost, best in cases:
            if cost != best.cost_bits():
                review.problems.append(f"eps={eps}: exact_one_way_cc={cost} but best_protocol "
                                       f"costs {best.cost_bits()}")
            err = protocol_error(best, f, mu)
            if err > eps + _TOL:
                review.problems.append(f"eps={eps}: best protocol errs {err}")
            review.bits += cost
        floor = (1.0 - binary_entropy(self.CODE_RADIUS / self.CODE_BITS)) * self.CODE_BITS
        if h_inf < floor - 1e-9:
            review.problems.append(f"audit min-entropy {h_inf} below its floor {floor}")
        for p, exact, spectral in bounds:
            if exact > spectral + _TOL:
                review.problems.append(f"p={p}: exact discrepancy {exact} over the spectral "
                                       f"bound {spectral}")
        for mask, x, y, proto, decided in games:
            if proto.cost_bits() != 1 or decided != parity.parity_eval(mask, x, y):
                review.problems.append(f"parity protocol for mask {mask} fails at ({x}, {y})")
            review.bits += proto.cost_bits()
        review.bit_runs = len(cases) + len(games)
        return review


WORKLOADS = {w.name: w for w in (GridLazy(), CliScale(), CsampleDense(), ExactVerify())}
