"""Seeded end-to-end benchmark of uccsim.

    python3 benchmarks/run.py --workload grid-lazy --seed 1 --seconds 30 --trace 0

Imports the package from the checkout's src/ (there is nothing to build).
Then, until --seconds have gone by and at least MIN_PASSES passes have run,
it times a fixed reference loop, sets the workload up SETUP_REPS times and
runs one pass of it, checking the outputs of every pass.  The gated times
are in reference seconds: wall seconds scaled by the host's speed on the
reference loop, measured just before the pass, so that a drift of the
host's speed between runs cancels out.  Prints a readable report and, as
its last line, one JSON object: the end-to-end metrics with --trace 0, or
with --trace 1 the per-layer metrics of a traced run (whose spans go to
benchmarks/out/).
Exits 1 after printing the result if any output check failed or a pass
raised; metrics that no completed pass measured are then left out.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field, fields
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# count metrics come from the first MIN_PASSES passes, so they depend on the seed alone
MIN_PASSES = 3
# set-ups timed before each pass; the last one's inputs feed the pass
SETUP_REPS = 3
# the reference loop runs this many iterations of pure-Python integer arithmetic
REFERENCE_ITERATIONS = 200_000
# reference loops per second of the reference host, where a reference second is a wall second
REFERENCE_RATE = 50.0
# timings of the reference loop whose median gives the host's speed before a pass
SPEED_REPS = 3
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "comm_bits": "bits", "peak_rss_mb": "MB"}
# figures of this host, in wall time, that the report prints after the gated ones
_WALL_UNITS = {"host_speed": "x", "wall_setup_s": "s", "wall_ops_per_s": "1/s"}
_REPORT_UNITS = {**END_TO_END, **_WALL_UNITS, "pass_s": "s", "failure_share": "share"}


def use_checkout_source() -> None:
    """Put the checkout's src/ first on sys.path; exit nonzero if it is not there."""
    if not (SRC / "uccsim" / "__init__.py").is_file():
        sys.exit(f"error: package source not found at {SRC / 'uccsim'}")
    sys.path.insert(0, str(SRC))


def host_speed() -> float:
    """The host's speed now on the reference loop; the reference host reads 1.

    A wall time times this speed is the time in reference seconds.
    """
    times = []
    for _ in range(SPEED_REPS):
        start = time.perf_counter()
        total = 0
        for j in range(REFERENCE_ITERATIONS):
            total += j * j % 7
        times.append(time.perf_counter() - start)
    return 1.0 / (statistics.median(times) * REFERENCE_RATE)


@dataclass
class Measurement:
    """Timings of the untraced passes and their set-ups, and the reviews of all passes.

    Times are in reference seconds unless their name says wall.
    """

    setup_s: list[float] = field(default_factory=list)
    rates: list[float] = field(default_factory=list)   # operations per second, per pass
    traced_rates: list[float] = field(default_factory=list)  # the same, of traced passes
    wall_setup_s: list[float] = field(default_factory=list)
    wall_rates: list[float] = field(default_factory=list)
    pass_s: list[float] = field(default_factory=list)  # wall seconds per pass
    speeds: list[float] = field(default_factory=list)  # host speed before each untraced pass
    counted: object = None      # Review summed over the first MIN_PASSES passes
    total: object = None        # Review summed over every pass
    traced_trials: int = 0      # uncertain-protocol trials requested by traced passes
    failed: int = 0

    @property
    def problems(self) -> list[str]:
        return self.total.problems

    def summary(self) -> dict[str, float]:
        """The report's values; a time no pass measured (the first one raised) is left out."""
        counted = self.counted
        values = {
            "comm_bits": counted.bits / counted.bit_runs if counted.bit_runs else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "failure_share": 1.0 - counted.agreed / counted.sampled if counted.sampled else 0.0,
        }
        for name, samples in (("setup_s", self.setup_s), ("ops_per_s", self.rates),
                              ("wall_setup_s", self.wall_setup_s),
                              ("wall_ops_per_s", self.wall_rates), ("pass_s", self.pass_s),
                              ("host_speed", self.speeds)):
            if samples:
                values[name] = statistics.median(samples)
        return values


def _add(into, review) -> None:
    for item in fields(review):
        setattr(into, item.name, getattr(into, item.name) + getattr(review, item.name))


def measure(workload, seed: int, seconds: float, tracer=None) -> Measurement:
    """Set up, then run and check one pass, until the time is spent.

    Set-up runs SETUP_REPS times before every pass, so that its median,
    like the pass medians, spans the whole run rather than its first moments.
    Before them the host's speed is measured, and the pass and its set-ups
    are converted to reference seconds with it.
    With a tracer, every odd-numbered pass and its set-ups run instrumented;
    the even ones run plain, so traced and untraced passes interleave and
    drift of the host's speed falls on both alike.
    """
    from tracing import NullTracer, instrument
    from workloads import Review

    result = Measurement(counted=Review(ops=0), total=Review(ops=0))
    deadline = time.perf_counter() + seconds
    index = 0
    while index < MIN_PASSES or time.perf_counter() < deadline:
        traced = tracer is not None and index % 2 == 1
        speed = host_speed()
        setup_s = []
        try:
            with instrument(tracer) if traced else nullcontext(NullTracer()) as pass_tracer:
                for _ in range(SETUP_REPS):
                    start = time.perf_counter()
                    inputs = workload.setup(seed, pass_tracer)
                    setup_s.append(time.perf_counter() - start)
                start = time.perf_counter()
                outputs = workload.run_pass(inputs, index, pass_tracer)
                elapsed = time.perf_counter() - start
            review = workload.review(inputs, index, outputs)
        except Exception:  # a crashing pass is reported as a failed operation
            traceback.print_exc()
            result.failed += 1
            result.total.problems.append(f"pass {index} raised")
            break
        if traced:
            result.traced_rates.append(review.ops / (elapsed * speed))
            result.traced_trials += review.trials
        else:
            result.setup_s += [s * speed for s in setup_s]
            result.rates.append(review.ops / (elapsed * speed))
            result.wall_setup_s += setup_s
            result.wall_rates.append(review.ops / elapsed)
            result.pass_s.append(elapsed)
            result.speeds.append(speed)
        review.problems = [f"pass {index}: {p}" for p in review.problems]
        _add(result.total, review)
        if index < MIN_PASSES:
            _add(result.counted, review)
        index += 1
    total = result.total
    if workload.min_agreement is not None and total.sampled and \
            total.agreed / total.sampled < workload.min_agreement:
        total.problems.append(f"agreement {total.agreed}/{total.sampled} below "
                              f"{workload.min_agreement}")
    return result


def _print_report(workload, seed: int, result: Measurement) -> None:
    values = result.summary()
    print(f"{workload.name} seed={seed}: {len(result.pass_s)} untraced and "
          f"{len(result.traced_rates)} traced passes, {result.total.ops} operations "
          f"(one operation = one {workload.op})")
    for name, unit in {**END_TO_END, **_WALL_UNITS}.items():
        if name in values:
            print(f"  {name:<16} {values[name]:.6g} {unit}")
    for alias, source in workload.aliases.items():
        if source in values:
            print(f"  {alias:<16} {values[source]:.6g} {_REPORT_UNITS[source]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_checkout_source()
    from tracing import LAYER_METRICS, Tracer
    from workloads import OUT_DIR, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    result = measure(workload, args.seed, args.seconds, tracer)
    _print_report(workload, args.seed, result)
    if args.trace:
        values = tracer.layer_metrics(result.traced_trials)
        if result.rates and result.traced_rates:
            values["trace.overhead_share"] = \
                1.0 - statistics.median(result.traced_rates) / statistics.median(result.rates)
        units = {name: unit for name, (unit, _better) in LAYER_METRICS.items()}
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{workload.name}-{args.seed}.jsonl"
        tracer.write(spans_path)
        print(f"  traced: {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    else:
        values, units = result.summary(), END_TO_END
    for problem in result.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not result.problems,
        "attempted": result.total.ops + result.failed,
        "failed": result.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }))
    return 1 if result.problems else 0


if __name__ == "__main__":
    sys.exit(main())
