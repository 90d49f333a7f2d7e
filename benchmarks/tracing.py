"""Span tracing of uccsim from outside the package.

The package looks its collaborators up at call time (module globals, class
attributes, bound methods of the distribution objects), so timing wrappers
can be installed by rebinding those attributes.  `instrument` does that and
puts every attribute back on exit.  Spans (name, start, end, parent, trial)
stay in memory; `Tracer.write` saves them when the run ends and
`Tracer.layer_metrics` turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
from contextlib import contextmanager, nullcontext
from time import perf_counter

from uccsim import cli, sampling, uncertain
from uccsim.distributions import kl_divergence

_MISSING = object()

# JointDistribution methods timed on the benchmark's own distribution objects
_MU_METHODS = (("sample", "distributions.sample"),
               ("conditional_y_given_x", "distributions.conditional"),
               ("mutual_information", "distributions.mutual_information"),
               ("mass_array", "distributions.mass_array"))

# per-layer metric name -> (unit, better); the order is the report order
LAYER_METRICS = {
    "uncertain.trial_self_ms": ("ms", "lower"),
    "uncertain.revealed_bits": ("bits", "lower"),
    "uncertain.generate_self_s": ("s", "lower"),
    "uncertain.verify_s": ("s", "lower"),
    "uncertain.trial_runs_per_trial": ("count", "lower"),
    "sampling.one_way_ms": ("ms", "lower"),
    "sampling.truncation_limit_ms": ("ms", "lower"),
    "sampling.payload_bits": ("bits", "lower"),
    "sampling.rounds": ("count", "lower"),
    "sampling.payload_over_limit": ("ratio", "lower"),
    "sampling.truncated_share": ("share", "lower"),
    "sampling.agreement_share": ("share", "higher"),
    "sampling.dense_ms": ("ms", "lower"),
    "sampling.dense_rounds": ("count", "lower"),
    "sampling.dense_bits_over_budget": ("ratio", "lower"),
    "distributions.sample_ms": ("ms", "lower"),
    "distributions.conditional_ms": ("ms", "lower"),
    "distributions.mutual_information_ms": ("ms", "lower"),
    "distributions.mass_array_s": ("s", "lower"),
    "core.distance_s": ("s", "lower"),
    "core.protocol_error_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "oracle.exact_cc_s": ("s", "lower"),
    "oracle.best_protocol_s": ("s", "lower"),
    "agreement.covering_code_s": ("s", "lower"),
    "agreement.audit_s": ("s", "lower"),
    "discrepancy.exact_s": ("s", "lower"),
    "discrepancy.spectral_s": ("s", "lower"),
    "parity.game_sample_ms": ("ms", "lower"),
    "parity.protocol_ms": ("ms", "lower"),
    "trace.overhead_share": ("share", "lower"),
}


class NullTracer:
    """Stands in for a Tracer when tracing is off; records nothing."""

    def span(self, name: str):
        return nullcontext()

    def adopt(self, mu):
        return mu


class Tracer:
    """In-memory spans plus the communication split of every sampling call."""

    def __init__(self):
        self.spans: list[list] = []       # [name, start, end, parent, trial]
        self.one_way: list[dict] = []     # per one-way call: payload, m, limit, rounds, ...
        self.interactive: list[dict] = []  # per interactive call: bits, rounds, budget, ...
        self._stack: list[tuple[int, int | None]] = []
        self._trial: int | None = None
        self._trials = 0
        self._limit = None
        self._patches: list[tuple[object, str, object]] = []

    # spans

    def _open(self, name: str, request: bool) -> int:
        index = len(self.spans)
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((index, self._trial))
        if request:
            self._trials += 1
            self._trial = self._trials
        self.spans.append([name, perf_counter(), None, parent, self._trial])
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        _, self._trial = self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Time the enclosed calls as one span."""
        index = self._open(name, False)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, fn, request: bool = False, after=None):
        """fn timed as a span; after(span_index, args, kwargs, result) runs once it ends.

        request=True marks fn as one request: spans opened inside it share a fresh trial id.
        """
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            index = self._open(name, request)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if after is not None:
                after(index, args, kwargs, result)
            return result
        return timed

    # attribute rebinding

    def patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def adopt(self, mu):
        """Time the JointDistribution methods of mu, an object the benchmark owns."""
        if "sample" not in vars(mu):
            for method, name in _MU_METHODS:
                self.patch(mu, method, self.wrap(name, getattr(mu, method)))
        return mu

    # communication records, taken from the returned TranscriptStats

    def _note_limit(self, _index, _args, _kwargs, limit) -> None:
        self._limit = limit

    def _note_one_way(self, index, args, kwargs, result) -> None:
        mu, _x, m, eps = args[:4]
        stats = result[2]
        s = sampling.hash_bits_per_round(eps / 2.0)
        parent = self.spans[index][3]
        self.one_way.append({
            "span": index, "trial": self.spans[index][4], "m": m,
            "payload_bits": stats.bits_alice, "limit": self._limit,
            "rounds": stats.bits_alice / s, "success": stats.success,
            "dense": m * math.log2(mu.size_y)
            <= math.log2(sampling.EXPLICIT_UNIVERSE_LIMIT) + 1e-9,
            "in_trial": parent is not None and self.spans[parent][0] == "uncertain.trial",
        })

    def _note_interactive(self, index, args, kwargs, result) -> None:
        p, q, eps = args[:3]
        stats = result[2]
        div = kl_divergence(p, q)
        budget = div + 2.0 * math.log2(1.0 / eps) + math.sqrt(div) + 1.0
        self.interactive.append({
            "span": index, "trial": self.spans[index][4], "bits": stats.bits_alice,
            "rounds": stats.rounds, "success": stats.success, "budget": budget,
        })

    # output

    def write(self, path) -> None:
        """One JSON line per span (times in microseconds from the first span), then the calls."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as handle:
            for name, start, end, parent, trial in self.spans:
                handle.write(json.dumps({"name": name,
                                         "start_us": round((start - origin) * 1e6, 1),
                                         "end_us": round((end - origin) * 1e6, 1),
                                         "parent": parent, "trial": trial}) + "\n")
            for record in self.one_way:
                handle.write(json.dumps({"one_way": record}) + "\n")
            for record in self.interactive:
                handle.write(json.dumps({"interactive": record}) + "\n")

    def layer_metrics(self, requested_trials: int) -> dict[str, float]:
        """Per-call means by layer; a layer the workload never reached reads 0.

        requested_trials counts the trials asked for while tracing was on.
        Every LAYER_METRICS entry is here but trace.overhead_share, which needs
        untraced timings too.
        """
        child = [0.0] * len(self.spans)
        for _name, start, end, parent, _trial in self.spans:
            if parent is not None:
                child[parent] += end - start
        total: dict[str, list[float]] = {}
        own: dict[str, list[float]] = {}
        for (name, start, end, _parent, _trial), inner in zip(self.spans, child):
            total.setdefault(name, []).append(end - start)
            own.setdefault(name, []).append(end - start - inner)

        def mean(values) -> float:
            return statistics.fmean(values) if values else 0.0

        def span_mean(name: str, scale: float = 1.0) -> float:
            return mean(total.get(name, ())) * scale

        def self_mean(name: str, scale: float = 1.0) -> float:
            return mean(own.get(name, ())) * scale

        one_way = self.one_way
        dense_one_way = [r for r in one_way if r["dense"]]
        dense_times = [self.spans[r["span"]][2] - self.spans[r["span"]][1]
                       for r in self.interactive + dense_one_way]
        sampled = one_way + self.interactive
        trial_runs = len(total.get("uncertain.trial", ()))
        values = {
            "uncertain.trial_self_ms": self_mean("uncertain.trial", 1e3),
            "uncertain.revealed_bits": mean([r["m"] for r in one_way if r["in_trial"]]),
            "uncertain.generate_self_s": self_mean("uncertain.generate"),
            "uncertain.verify_s": span_mean("uncertain.verify"),
            "uncertain.trial_runs_per_trial":
                trial_runs / requested_trials if requested_trials else 0.0,
            "sampling.one_way_ms": span_mean("sampling.one_way", 1e3),
            "sampling.truncation_limit_ms": span_mean("sampling.truncation_limit", 1e3),
            "sampling.payload_bits": mean([r["payload_bits"] for r in one_way]),
            "sampling.rounds": mean([r["rounds"] for r in one_way]),
            "sampling.payload_over_limit": mean([r["payload_bits"] / r["limit"] for r in one_way]),
            "sampling.truncated_share": mean([r["payload_bits"] >= r["limit"] for r in one_way]),
            "sampling.agreement_share": mean([r["success"] for r in sampled]),
            "sampling.dense_ms": mean(dense_times) * 1e3,
            "sampling.dense_rounds": mean([r["rounds"] for r in self.interactive + dense_one_way]),
            "sampling.dense_bits_over_budget":
                mean([r["bits"] / r["budget"] for r in self.interactive]),
            "distributions.sample_ms": span_mean("distributions.sample", 1e3),
            "distributions.conditional_ms": span_mean("distributions.conditional", 1e3),
            "distributions.mutual_information_ms":
                span_mean("distributions.mutual_information", 1e3),
            "distributions.mass_array_s": span_mean("distributions.mass_array"),
            "core.distance_s": span_mean("core.distance"),
            "core.protocol_error_s": span_mean("core.protocol_error"),
            "cli.self_s": self_mean("cli.main"),
            "oracle.exact_cc_s": span_mean("oracle.exact_cc"),
            "oracle.best_protocol_s": span_mean("oracle.best_protocol"),
            "agreement.covering_code_s": span_mean("agreement.covering_code"),
            "agreement.audit_s": span_mean("agreement.audit"),
            "discrepancy.exact_s": span_mean("discrepancy.exact"),
            "discrepancy.spectral_s": span_mean("discrepancy.spectral"),
            "parity.game_sample_ms": span_mean("parity.game_sample", 1e3),
            "parity.protocol_ms": span_mean("parity.protocol", 1e3),
        }
        return {name: float(value) for name, value in values.items()}


@contextmanager
def instrument(tracer: Tracer):
    """Rebind the uccsim attributes the package looks up at call time to timed wrappers."""
    generate = uncertain.generate_instance

    def generate_adopting(*args, mu=None, **kwargs):
        return generate(*args, mu=None if mu is None else tracer.adopt(mu), **kwargs)

    try:
        timed_generate = tracer.wrap("uncertain.generate", generate_adopting)
        tracer.patch(uncertain, "generate_instance", timed_generate)
        tracer.patch(cli, "generate_instance", timed_generate)
        tracer.patch(uncertain.UncertainInstance, "verify",
                     tracer.wrap("uncertain.verify", uncertain.UncertainInstance.verify))
        tracer.patch(uncertain, "distance", tracer.wrap("core.distance", uncertain.distance))
        tracer.patch(uncertain, "protocol_error",
                     tracer.wrap("core.protocol_error", uncertain.protocol_error))
        tracer.patch(uncertain, "run_uncertain_protocol",
                     tracer.wrap("uncertain.trial", uncertain.run_uncertain_protocol,
                                 request=True))
        tracer.patch(cli, "run_trials", tracer.wrap("uncertain.run_trials", cli.run_trials))
        timed_estimate = tracer.wrap("uncertain.estimate", uncertain.estimate_uncertain_error)
        tracer.patch(uncertain, "estimate_uncertain_error", timed_estimate)
        tracer.patch(cli, "estimate_uncertain_error", timed_estimate)
        timed_one_way = tracer.wrap("sampling.one_way", sampling.one_way_correlated_sample,
                                    after=tracer._note_one_way)
        tracer.patch(uncertain, "one_way_correlated_sample", timed_one_way)
        tracer.patch(sampling, "one_way_correlated_sample", timed_one_way)
        tracer.patch(sampling, "truncation_limit",
                     tracer.wrap("sampling.truncation_limit", sampling.truncation_limit,
                                 after=tracer._note_limit))
        tracer.patch(sampling, "correlated_sample",
                     tracer.wrap("sampling.interactive", sampling.correlated_sample,
                                 request=True, after=tracer._note_interactive))
        yield tracer
    finally:
        tracer.restore()
