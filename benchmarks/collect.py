"""Run the benchmark over ten seeds and summarize the spread of every metric.

    python3 benchmarks/collect.py --out benchmarks/results/baseline.json

Reads run_seconds, the workloads and the metric bounds from BENCHMARK.json,
runs `run.py` once per workload and seed 1..10 (untraced) and once traced
per workload.  For each end-to-end metric it reports the median,
the quartiles and the spread, (q3 - q1) / median, next to the metric's bound.
The machine (CPU count, Python and numpy versions) is recorded with them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# ten seeds, as many as a check of the benchmark's steadiness uses
SEEDS = list(range(1, 11))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: output checks failed:\n{done.stderr}")
    return result


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="write the summary JSON here")
    args = parser.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    seconds = config["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    import numpy
    summary = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": numpy.__version__, "platform": platform.platform()},
        "run_seconds": seconds, "seeds": SEEDS, "workloads": {},
    }
    runs = {name: [] for name in names}
    for seed in SEEDS:
        for name in names:
            metrics = run_once(name, seed, seconds, 0)["metrics"]
            runs[name].append({k: v["value"] for k, v in metrics.items()})
            print(f"{name} seed {seed}: " + ", ".join(f"{k}={v['value']:.6g}"
                                                      for k, v in metrics.items()), flush=True)
    worst = {}
    for name in names:
        entry = {"runs": runs[name], "end_to_end": {}}
        for metric, bound in bounds.items():
            stats = spread([r[metric] for r in runs[name]])
            stats["bound"] = bound
            entry["end_to_end"][metric] = stats
            print(f"{name:<14} {metric:<12} median {stats['median']:.6g}  "
                  f"spread {stats['spread']:.4f}  bound {bound}")
            worst[(name, metric)] = stats["spread"] / bound
        traced = run_once(name, SEEDS[0], seconds, 1)["metrics"]
        entry["per_layer"] = {k: v["value"] for k, v in traced.items()}
        summary["workloads"][name] = entry
    (name, metric), ratio = max(worst.items(), key=lambda item: item[1])
    print(f"widest spread relative to its bound: {name} {metric} at {ratio:.2f} of the bound")
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
