"""Self-tests of the benchmark harness.

    python3 benchmarks/selftest.py        (or: python3 -m pytest benchmarks/selftest.py)

Checks that tracing changes no count metric, that the seed changes the
generated inputs, and that the timing wrappers leave uccsim as they found
it.  Each workload runs its minimum number of passes, so this takes about a
minute.
"""

from __future__ import annotations

import pickle
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.use_checkout_source()

from tracing import NullTracer, Tracer, instrument  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from uccsim import cli, core, distributions, sampling, uncertain  # noqa: E402
from uccsim.distributions import NoisyHypercube  # noqa: E402


def _counts(measurement) -> tuple:
    c = measurement.counted
    return c.ops, c.bits, c.bit_runs, c.sampled, c.agreed, c.trials


def _generated(inputs):
    """A workload's inputs without the seed it keeps for drawing per-pass randomness."""
    return inputs[1:] if isinstance(inputs, tuple) and isinstance(inputs[0], int) else inputs


def _snapshot() -> dict:
    state = {(module.__name__, name): value
             for module in (cli, core, distributions, sampling, uncertain)
             for name, value in vars(module).items()}
    state.update({("UncertainInstance", name): value
                  for name, value in vars(uncertain.UncertainInstance).items()})
    return state


def _same(before: dict, after: dict) -> bool:
    return before.keys() == after.keys() and all(before[k] is after[k] for k in before)


def test_tracing_keeps_count_metrics():
    for name, workload in WORKLOADS.items():
        plain = run.measure(workload, 11, 0)
        tracer = Tracer()
        traced = run.measure(workload, 11, 0, tracer)
        assert traced.traced_rates and tracer.spans, name
        assert _counts(plain) == _counts(traced), name
        assert plain.summary()["comm_bits"] == traced.summary()["comm_bits"], name
        assert not plain.problems and not traced.problems, name


def test_seed_changes_inputs():
    for name, workload in WORKLOADS.items():
        first, again, other = (pickle.dumps(_generated(workload.setup(seed, NullTracer())))
                               for seed in (1, 1, 2))
        assert first == again, name
        assert first != other, name


def test_wrappers_restore_attributes():
    before = _snapshot()
    with instrument(Tracer()):
        assert not _same(before, _snapshot())
    assert _same(before, _snapshot())
    run.measure(WORKLOADS["grid-lazy"], 3, 0, Tracer())
    assert _same(before, _snapshot())
    try:
        with instrument(Tracer()):
            raise KeyError("raised inside the instrumented block")
    except KeyError:
        pass
    assert _same(before, _snapshot())
    mu = NoisyHypercube(4, 0.1)
    tracer = Tracer()
    tracer.adopt(mu)
    assert "sample" in vars(mu)
    tracer.restore()
    assert not vars(mu).keys() & {"sample", "conditional_y_given_x", "mutual_information",
                                  "mass_array"}


def main() -> int:
    failed = 0
    for test in (test_tracing_keeps_count_metrics, test_seed_changes_inputs,
                 test_wrappers_restore_attributes):
        try:
            test()
            print(f"PASS {test.__name__}")
        except AssertionError:
            failed += 1
            print(f"FAIL {test.__name__}")
            traceback.print_exc()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
