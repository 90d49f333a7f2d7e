"""Command-line front end: seeded, reproducible experiment drivers.

Every run records its master seed and full parameter set in a header
comment of any emitted file, so reruns with the same arguments are
byte-identical.  Exit codes: 0 success, 2 validation or audit failure,
1 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import agreement as agr
from . import parity
from .core import TableFunction
from .discrepancy import cc_lower_bound, discrepancy_exact, discrepancy_spectral_bound
from .distributions import (Distribution, NoisyHypercube, ProductJoint, derive_rng,
                            kl_divergence)
from .oracle import exact_one_way_cc
from .sampling import SharedRandomness, correlated_sample
from .uncertain import ErrorEstimate, generate_instance, run_trials


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _master_seed(value) -> int:
    if value is not None:
        return int(value)
    return int(os.environ.get("UCCSIM_SEED", "0"))


def _header(sub: str, seed: int, args: argparse.Namespace) -> str:
    skip = {"func", "seed", "out", "jobs"}
    params = " ".join(f"{k}={v}" for k, v in sorted(vars(args).items()) if k not in skip)
    return f"# uccsim {sub} seed={seed} {params}"


def _emit(path: str | None, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _parse_mu(spec: str, n: int):
    if spec == "product":
        return ProductJoint.uniform_bits(n)
    if spec.startswith("noisy:"):
        return NoisyHypercube(n, float(spec.split(":", 1)[1]))
    raise ValueError(f"unknown input distribution {spec!r}")


def _cmd_uncertain_run(args) -> int:
    seed = _master_seed(args.seed)
    mu = _parse_mu(args.mu, args.n)
    # the tagless stream: trial block b draws from derive_rng(seed, b)
    instance = generate_instance(args.n, args.k, args.eps, args.delta, derive_rng(seed), mu=mu)
    records = run_trials(instance, args.theta, args.trials, seed, jobs=args.jobs)
    lines = [_header("uncertain-run", seed, args),
             "trial,x,y,output,truth,correct,bits,sampling_ok"]
    lines += [",".join(_fmt(v) for v in (r.trial, r.x, r.y, r.output, r.truth,
                                         r.correct, r.bits, r.sampling_ok))
              for r in records]
    _emit(args.out, lines)
    est = ErrorEstimate.from_records(records)
    print(f"error_rate={est.error_rate:.6f} half_width={est.half_width:.6f} "
          f"mean_bits={est.mean_bits:.2f} sampling_failures={est.sampling_failures} "
          f"trials={est.trials}")
    return 0


def _cmd_csample_bench(args) -> int:
    seed = _master_seed(args.seed)
    size = args.universe
    if size < 2 or size & (size - 1):
        raise ValueError("universe size must be a power of two >= 2")
    if args.trials < 1:
        raise ValueError("need at least one trial")
    q = Distribution.uniform(size)
    tilts = [int(t) for t in args.tilt_grid.split(",")]
    lines = [_header("csample-bench", seed, args),
             "seed,tilt,D_PQ_bits,eps,bits_alice,rounds,success"]
    summary = []
    for tilt in tilts:
        if not 0 <= tilt < math.log2(size):
            raise ValueError("tilt must satisfy 0 <= tilt < log2(universe)")
        head = size >> tilt
        p = Distribution(np.concatenate([np.full(head, 1.0 / head), np.zeros(size - head)]))
        div = kl_divergence(p, q)
        bits = []
        for trial in range(args.trials):
            shared = SharedRandomness((seed, tilt, trial))
            _a, _b, stats = correlated_sample(p, q, args.eps, shared)
            bits.append(stats.bits_alice)
            lines.append(",".join(_fmt(v) for v in (
                seed, tilt, div, args.eps, stats.bits_alice, stats.rounds, stats.success)))
        shape = div + 2.0 * math.log2(1.0 / args.eps) + math.sqrt(div) + 1.0
        summary.append(f"tilt={tilt} D={div:.3f} mean_bits={np.mean(bits):.3f} "
                       f"C={np.mean(bits) / shape:.3f}")
    _emit(args.out, lines)
    print("; ".join(summary))
    return 0


def _cmd_lowerbound_sweep(args) -> int:
    seed = _master_seed(args.seed)
    lines = [_header("lowerbound-sweep", seed, args),
             "p,n,spectral_bound,disc_exact,cc_lb_bits,gamma"]
    for p in (float(v) for v in args.p_grid.split(",")):
        for n in (int(v) for v in args.n_grid.split(",")):
            bound = discrepancy_spectral_bound(n, p)
            exact = discrepancy_exact(1, p) if n == 1 else ""
            lb = cc_lower_bound(bound, args.eps)
            gamma = -math.log2(bound) / (p * n)
            lines.append(",".join(_fmt(v) if v != "" else "" for v in
                                  (p, n, bound, exact, lb, gamma)))
    _emit(args.out, lines)
    return 0


def _load_strategy(path: str):
    with open(path) as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict):
        raise ValueError("strategy file must hold a JSON object")
    kind = doc.get("kind")
    try:
        if kind == "identity":
            return agr.identity_strategy
        if kind == "constant":
            return agr.constant_strategy(int(doc["value"]))
        if kind == "codewords":
            return agr.NearestCodewordStrategy(doc["codewords"], int(doc["size_y"]))
    except KeyError as exc:
        raise ValueError(f"{kind} strategy lacks the field {exc}") from None
    except TypeError as exc:
        raise ValueError(f"{kind} strategy has an ill-typed field: {exc}") from None
    raise ValueError(f"unknown strategy kind {kind!r}")


def _cmd_agreement_audit(args) -> int:
    seed = _master_seed(args.seed)
    strategy = _load_strategy(args.strategy)
    h_inf = agr.agreement_entropy_audit(strategy, args.size_y, args.delta2)
    floor = (1.0 - agr.binary_entropy(args.delta2)) * args.size_y
    lines = [_header("agreement-audit", seed, args),
             f"min_entropy_bits={h_inf:.6f}", f"entropy_floor_bits={floor:.6f}"]
    _emit(args.out, lines)
    return 0


def _parse_function(spec: str, n: int | None):
    if spec.startswith("parity:S="):
        mask = int(spec.split("=", 1)[1], 0)
        bits = n if n is not None else max(mask.bit_length(), 1)
        return parity.ParityFunction(mask, bits), bits
    if spec.startswith("const:"):
        bits = n if n is not None else 1
        size = 1 << bits
        return TableFunction.constant(size, size, int(spec.split(":", 1)[1])), bits
    if spec == "eq":
        bits = n if n is not None else 1
        size = 1 << bits
        return TableFunction(np.eye(size, dtype=np.uint8)), bits
    raise ValueError(f"unknown function spec {spec!r}")


def _cmd_oracle_cc(args) -> int:
    f, bits = _parse_function(args.function, args.n)
    mu = _parse_mu(args.mu, bits)
    print(exact_one_way_cc(f, mu, args.eps))
    return 0


def _cmd_family_audit(args) -> int:
    if args.samples < 1:
        raise ValueError("need at least one sample")
    seed = _master_seed(args.seed)
    rng = derive_rng(seed)
    budget = args.q * args.n
    over = 0
    for _ in range(args.samples):
        (s, x), (t, y) = parity.sample_game_instance(args.n, args.p, args.q, rng)
        close = (s.value ^ t.value).bit_count() <= budget
        if not close:
            over += 1
        else:
            d = parity.parity_distance(s, t, args.p)
            if d > args.p * budget + 1e-12:
                raise ValueError(f"distance {d} breaks the p*q*n bound for masks {s},{t}")
        for mask in (s, t):
            sent = (mask.value & x.value).bit_count() & 1
            decided = sent ^ ((mask.value & y.value).bit_count() & 1)
            if decided != parity.parity_eval(mask, x, y):
                raise ValueError(f"one-bit protocol for mask {mask} errs at ({x},{y})")
            if args.n <= 14:
                proto = parity.parity_protocol(mask.value, args.n)
                if proto.evaluate(x.value, y.value) != decided or proto.cost_bits() != 1:
                    raise ValueError(f"dense protocol for mask {mask} errs at ({x},{y})")
    rate = over / args.samples
    bound = math.exp(-args.q * args.n / 6.0)
    lines = [_header("family-audit", seed, args),
             json.dumps({"samples": args.samples, "mask_gap_over_budget_rate": rate,
                         "chernoff_bound": bound, "distance_bound": args.p * budget,
                         "mu": {"kind": "noisy_hypercube", "n": args.n, "p": args.p}},
                        sort_keys=True)]
    _emit(args.out, lines)
    if rate > bound + 3.0 * math.sqrt(bound * (1 - bound) / args.samples) + 1e-6:
        print(f"mask gap rate {rate} exceeds Chernoff bound {bound}", file=sys.stderr)
        return 2
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="uccsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("uncertain-run", help="simulate the uncertain one-way protocol")
    run.add_argument("--n", type=int, required=True)
    run.add_argument("--k", type=int, required=True)
    run.add_argument("--eps", type=float, default=0.0)
    run.add_argument("--delta", type=float, required=True)
    run.add_argument("--theta", type=float, required=True)
    run.add_argument("--trials", type=int, required=True)
    run.add_argument("--mu", default="product")
    run.add_argument("--seed", type=int)
    run.add_argument("--jobs", type=int, default=1)
    run.add_argument("--out")
    run.set_defaults(func=_cmd_uncertain_run)

    bench = sub.add_parser("csample-bench", help="benchmark interactive correlated sampling")
    bench.add_argument("--universe", type=int, required=True)
    bench.add_argument("--eps", type=float, required=True)
    bench.add_argument("--trials", type=int, required=True)
    bench.add_argument("--tilt-grid", default="0,1,2")
    bench.add_argument("--seed", type=int)
    bench.add_argument("--out")
    bench.set_defaults(func=_cmd_csample_bench)

    sweep = sub.add_parser("lowerbound-sweep", help="spectral discrepancy bounds over a grid")
    sweep.add_argument("--p-grid", required=True)
    sweep.add_argument("--n-grid", required=True)
    sweep.add_argument("--eps", type=float, default=0.25)
    sweep.add_argument("--seed", type=int)
    sweep.add_argument("--out")
    sweep.set_defaults(func=_cmd_lowerbound_sweep)

    audit = sub.add_parser("agreement-audit", help="exact min-entropy audit of a strategy")
    audit.add_argument("--size-y", dest="size_y", type=int, required=True)
    audit.add_argument("--delta2", type=float, required=True)
    audit.add_argument("--strategy", required=True)
    audit.add_argument("--seed", type=int)
    audit.add_argument("--out")
    audit.set_defaults(func=_cmd_agreement_audit)

    cc = sub.add_parser("oracle-cc", help="exact one-way cost of a tiny function")
    cc.add_argument("--function", required=True)
    cc.add_argument("--mu", default="product")
    cc.add_argument("--eps", type=float, default=0.0)
    cc.add_argument("--n", type=int)
    cc.set_defaults(func=_cmd_oracle_cc)

    fam = sub.add_parser("family-audit", help="sampled audit of the close-mask family")
    fam.add_argument("--n", type=int, required=True)
    fam.add_argument("--q", type=float, required=True)
    fam.add_argument("--p", type=float, required=True)
    fam.add_argument("--samples", type=int, required=True)
    fam.add_argument("--seed", type=int)
    fam.add_argument("--out")
    fam.set_defaults(func=_cmd_family_audit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, AssertionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
