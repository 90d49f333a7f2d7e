"""The benchmark harness under benchmarks/ reaches into uccsim by name.

Its tracer rebinds module attributes and distribution methods and reads a
few module constants, and its workloads import public names.  Renaming or
deleting any of them breaks the benchmark without failing another test.
"""

import ast
import importlib
import sys
from pathlib import Path

import numpy as np

from uccsim import cli, core, distributions, sampling, uncertain
from uccsim.distributions import Distribution, NoisyHypercube, ProductJoint, TableJoint
from uccsim.sampling import SharedRandomness

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCHMARKS))

import tracing  # noqa: E402
import workloads  # noqa: E402, F401  (importing it checks the names it imports)

_MU_METHODS = {"sample", "conditional_y_given_x", "mutual_information", "mass_array"}


def _attributes() -> dict:
    state = {(module.__name__, name): value
             for module in (cli, core, distributions, sampling, uncertain)
             for name, value in vars(module).items()}
    state.update({("UncertainInstance", name): value
                  for name, value in vars(uncertain.UncertainInstance).items()})
    return state


def _unchanged(before: dict, after: dict) -> bool:
    return before.keys() == after.keys() and all(before[k] is after[k] for k in before)


def test_tracer_finds_and_restores_every_name():
    before = _attributes()
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        assert not _unchanged(before, _attributes())
        inst = uncertain.generate_instance(3, 1, 0.0, 0.05, np.random.default_rng(1),
                                           mu=NoisyHypercube(3, 0.1))
        uncertain.estimate_uncertain_error(inst, 0.4, 2, 1)
        sampling.one_way_correlated_sample(inst.mu, 0, 3, 0.1, SharedRandomness(1))
        sampling.correlated_sample(Distribution([0.5, 0.5]), Distribution([0.25, 0.75]), 0.1,
                                   SharedRandomness(2))
    assert _unchanged(before, _attributes())
    assert not vars(inst.mu).keys() & _MU_METHODS
    assert tracer.one_way and tracer.interactive
    metrics = tracer.layer_metrics(2)
    assert metrics.keys() == tracing.LAYER_METRICS.keys() - {"trace.overhead_share"}
    assert metrics["uncertain.generate_self_s"] > 0.0 and metrics["core.distance_s"] > 0.0


def test_tracer_adopts_and_restores_every_joint():
    joints = (TableJoint(np.full((4, 2), 1 / 8)),
              ProductJoint(Distribution.uniform(4), Distribution.uniform(2)),
              NoisyHypercube(2, 0.1))
    for mu in joints:
        tracer = tracing.Tracer()
        tracer.adopt(mu)
        assert vars(mu).keys() >= _MU_METHODS
        mu.conditional_y_given_x(1)
        mu.mass_array([0], [1])
        tracer.restore()
        assert not vars(mu).keys() & _MU_METHODS
        assert {span[0] for span in tracer.spans} == {"distributions.conditional",
                                                     "distributions.mass_array"}


def _uccsim_reads(source: str) -> set[tuple[str, str]]:
    """(module, name) of every `from uccsim.module import name` and `module.name` read."""
    tree = ast.parse(source)
    modules = {}
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "uccsim":
            modules.update({alias.asname or alias.name: f"uccsim.{alias.name}"
                            for alias in node.names})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("uccsim."):
            reads.update((node.module, alias.name) for alias in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            reads.add((modules[node.value.id], node.attr))
    return reads


def test_every_uccsim_name_the_benchmark_reads_resolves():
    # workloads and their review steps read some names only when they run,
    # e.g. uncertain.choose_sample_count, so importing them does not check these
    reads = set().union(*(_uccsim_reads(path.read_text())
                          for path in sorted(BENCHMARKS.glob("*.py"))))
    assert ("uccsim.uncertain", "choose_sample_count") in reads
    missing = sorted(f"{module}.{name}" for module, name in reads
                     if not hasattr(importlib.import_module(module), name))
    assert not missing, missing
