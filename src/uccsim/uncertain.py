"""One-way protocols that only know the target function approximately.

Alice computes a function f close (under the input distribution) to a
function g that some cheap one-way protocol decides.  Neither party knows
the other's function, so instead of running that protocol they correlate
samples of Bob's input, Alice reveals f on her copies, and Bob picks the
decider that disagrees least with what she revealed.  The extra
communication depends only on the protocol's message budget and the slack
parameter theta, never on the input length.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import MAX_SIDE, BoolFunction, OneWayProtocol, TableFunction, distance, protocol_error
from .distributions import JointDistribution, ProductJoint, derive_rng
from .sampling import SharedRandomness, one_way_correlated_sample

_DIST_TOL = 1e-12
# the eps-corruption path sorts every point mass
CORRUPT_MAX_BITS = 10
# at most 2^FLIP_CHUNK_BITS candidate points are drawn per round of the delta-flip set
FLIP_CHUNK_BITS = 20

WILSON_Z = 1.959963984540054


def choose_sample_count(k: int, theta: float) -> int:
    """Smallest m with 2^k exp(-theta^2 m / 75) <= 2 theta / 5."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    target = 2.0 * theta / 5.0

    def ok(m: int) -> bool:
        return (2.0 ** k) * math.exp(-theta * theta * m / 75.0) <= target

    m = max(1, math.ceil(75.0 * (k * math.log(2.0) + math.log(5.0 / (2.0 * theta)))
                         / (theta * theta)))
    while m > 1 and ok(m - 1):
        m -= 1
    while not ok(m):
        m += 1
    return m


def _prefix_within(masses: np.ndarray, spent: float, budget: float) -> tuple[int, float]:
    """Longest prefix of masses that fits in budget after spent, and the total spent then.

    The running sum is np.cumsum seeded with spent: the same additions in the
    same order as a loop that stops at the first mass that would overflow.
    """
    cum = np.cumsum(np.concatenate(([spent], masses)))
    take = int(np.searchsorted(cum[1:], budget + _DIST_TOL, side="right"))
    return take, float(cum[take])


def _first_occurrences(draws: np.ndarray) -> np.ndarray:
    """The distinct values of draws, in the order of their first occurrence.

    One sort of (value << FLIP_CHUNK_BITS) | position puts each value's first
    position first; draws holds at most 2^FLIP_CHUNK_BITS values.
    """
    shift = FLIP_CHUNK_BITS
    keys = np.sort((draws << shift) | np.arange(len(draws)))
    values = keys >> shift
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return draws[np.sort(keys[first] & ((1 << shift) - 1))]


def _flip_random_points(flat_f: np.ndarray, flat_g: np.ndarray, mu: JointDistribution,
                        delta: float, rng: np.random.Generator) -> None:
    """Flip flat_f along a uniformly random order of all points until one would overflow delta.

    The order is never built.  The first occurrences of i.i.d. uniform draws,
    skipping points already flipped (where flat_f != flat_g), come in a
    uniformly random order, so the flipped set has the law of a prefix of a
    random permutation.
    """
    total = flat_f.size
    # A uniform point has mean mass 1/total, so about delta * total points get
    # flipped; the first chunk usually covers them.
    chunk = min(1 << FLIP_CHUNK_BITS, total, 1024 + int(1.25 * delta * total))
    spent = 0.0
    flipped = 0
    while flipped < total:
        points = _first_occurrences(rng.integers(0, total, size=chunk))
        if flipped:
            points = points[flat_f[points] == flat_g[points]]
        take, spent = _prefix_within(mu.mass_array(*np.divmod(points, mu.size_y)),
                                     spent, delta)
        # sorted, the scattered writes walk the table in order
        flat_f[np.sort(points[:take])] ^= 1
        if take < len(points):
            return
        flipped += take


@dataclass
class UncertainInstance:
    """A promise pair: g decided by the protocol within eps, f delta-close to g."""

    mu: JointDistribution
    protocol: OneWayProtocol
    g: BoolFunction
    f: BoolFunction
    k: int
    eps: float
    delta: float

    def verify(self) -> None:
        if self.protocol.message_count > (1 << self.k):
            raise ValueError("protocol uses more parts than the budget allows")
        d = distance(self.f, self.g, self.mu)
        if d > self.delta + _DIST_TOL:
            raise ValueError(f"functions are {d} apart, over the promised {self.delta}")
        e = protocol_error(self.protocol, self.g, self.mu)
        if e > self.eps + _DIST_TOL:
            raise ValueError(f"protocol errs {e}, over the promised {self.eps}")


def generate_instance(n: int, k: int, eps: float, delta: float, rng: np.random.Generator,
                      mu: JointDistribution | None = None) -> UncertainInstance:
    """Draw a random instance on {0,1}^n x {0,1}^n and certify its promises.

    The protocol is a uniformly random assignment into 2^k parts with uniform
    random deciders; g is its function with an eps-mass corruption applied to
    the lightest points first, and f flips a random subset of mass at most
    delta chosen under mu.  The tables are dense, so n is at most 14 and
    2^k * 2^n at most 4^14; larger requests raise before allocating.
    """
    if not 0.0 <= delta < 1.0 or not 0.0 <= eps < 1.0:
        raise ValueError("eps and delta must lie in [0, 1)")
    if k < 0 or n < 1:
        raise ValueError("need k >= 0 and n >= 1")
    max_bits = MAX_SIDE.bit_length() - 1
    if n > max_bits:
        raise ValueError(f"n = {n} is over the dense-table bound n <= {max_bits}")
    if k + n > 2 * max_bits:
        raise ValueError(f"2^k deciders of 2^n bits exceed the 4^{max_bits}-entry table cap")
    size = 1 << n
    if mu is None:
        mu = ProductJoint.uniform_bits(n)
    if (mu.size_x, mu.size_y) != (size, size):
        raise ValueError("mu does not live on {0,1}^n x {0,1}^n")
    parts = 1 << k
    assignment = rng.integers(0, parts, size=size)
    deciders = rng.integers(0, 2, size=(parts, size), dtype=np.uint8)
    protocol = OneWayProtocol(assignment, deciders)
    g_table = deciders[assignment]
    if eps > 0.0:
        if n > CORRUPT_MAX_BITS:
            raise ValueError(f"eps-corruption path capped at n <= {CORRUPT_MAX_BITS}")
        masses = np.concatenate([mu.row_masses(x) for x in range(size)])
        order = np.argsort(masses, kind="stable")
        take, _ = _prefix_within(masses[order], 0.0, eps)
        g_table.reshape(-1)[order[:take]] ^= 1
    f_table = g_table.copy()
    _flip_random_points(f_table.reshape(-1), g_table.reshape(-1), mu, delta, rng)
    instance = UncertainInstance(mu=mu, protocol=protocol, g=TableFunction(g_table),
                                 f=TableFunction(f_table), k=k, eps=eps, delta=delta)
    instance.verify()
    return instance


@dataclass(frozen=True)
class RunResult:
    """Outcome of a single protocol run."""

    output: int
    bits: int
    errors: np.ndarray
    chosen: int
    sampling_ok: bool


def decider_errors(deciders: np.ndarray, bob: np.ndarray, alice_bits: np.ndarray) -> np.ndarray:
    """Share of Bob's samples on which each decider disagrees with Alice's bit.

    Sample i pairs Bob's point bob[i] with Alice's revealed bit alice_bits[i];
    the score counts each (point, bit) pair once, so it takes one bincount
    and one integer product.  Integer counts over len(bob) give the same
    floats as the mean of the per-sample comparisons.
    """
    size_y = deciders.shape[1]
    counts = np.bincount(bob * 2 + alice_bits, minlength=2 * size_y).reshape(size_y, 2)
    # a decider bit 1 disagrees with the zeros revealed at y, a bit 0 with the ones
    disagree = counts[:, 1].sum() + deciders @ (counts[:, 0] - counts[:, 1])
    return disagree / len(bob)


def run_uncertain_protocol(instance: UncertainInstance, x: int, y: int, theta: float,
                           shared: SharedRandomness) -> RunResult:
    """One full run: correlate samples, reveal f there, let Bob pick a decider.

    Bob scores every decider against Alice's revealed bits on his own sample
    list and answers with the lowest-indexed minimizer.  Total communication
    is the sampling payload plus the m revealed bits.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    m = choose_sample_count(instance.k, theta)
    sample_eps = (theta / 10.0) ** 2
    alice, bob, stats = one_way_correlated_sample(instance.mu, x, m, sample_eps, shared)
    errors = decider_errors(instance.protocol.deciders, bob, instance.f.row(x)[alice])
    chosen = int(np.argmin(errors))
    output = int(instance.protocol.deciders[chosen, y])
    return RunResult(output=output, bits=stats.bits_alice + m, errors=errors,
                     chosen=chosen, sampling_ok=stats.success)


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    x: int
    y: int
    output: int
    truth: int
    bits: int
    sampling_ok: bool

    @property
    def correct(self) -> bool:
        return self.output == self.truth


def _trial_slice(instance: UncertainInstance, theta: float, master_seed: int,
                 lo: int, hi: int) -> list[TrialRecord]:
    records = []
    for trial in range(lo, hi):
        rng = derive_rng(master_seed, trial, 0)
        x, y = instance.mu.sample(rng)
        shared = SharedRandomness((master_seed, trial, 1))
        result = run_uncertain_protocol(instance, x, y, theta, shared)
        records.append(TrialRecord(trial=trial, x=x, y=y, output=result.output,
                                   truth=instance.g(x, y), bits=result.bits,
                                   sampling_ok=result.sampling_ok))
    return records


def run_trials(instance: UncertainInstance, theta: float, trials: int, master_seed: int,
               jobs: int = 1) -> list[TrialRecord]:
    """Independent seeded trials; identical output for any jobs value.

    At most min(jobs, trials, cpu count) worker processes are started.
    """
    if trials < 1:
        raise ValueError("no trials requested")
    workers = min(jobs, trials, os.cpu_count() or 1)
    if workers <= 1:
        return _trial_slice(instance, theta, master_seed, 0, trials)
    bounds = np.linspace(0, trials, workers + 1, dtype=int)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunks = pool.map(_trial_slice, [instance] * workers, [theta] * workers,
                          [master_seed] * workers, bounds[:-1], bounds[1:])
    return [record for chunk in chunks for record in chunk]


def wilson_half_width(p_hat: float, n: int) -> float:
    """Half-width of the Wilson 95% score interval for a binomial proportion."""
    if n < 1:
        raise ValueError("need at least one observation")
    z = WILSON_Z
    return (z / (1.0 + z * z / n)) * math.sqrt(p_hat * (1.0 - p_hat) / n
                                               + z * z / (4.0 * n * n))


@dataclass(frozen=True)
class ErrorEstimate:
    error_rate: float
    mean_bits: float
    half_width: float
    trials: int
    sampling_failures: int

    @classmethod
    def from_records(cls, records: list[TrialRecord]) -> "ErrorEstimate":
        """Error rate against g, with a Wilson 95% half-width, of finished trials."""
        rate = sum(not r.correct for r in records) / len(records)
        return cls(error_rate=rate,
                   mean_bits=float(np.mean([r.bits for r in records])),
                   half_width=wilson_half_width(rate, len(records)),
                   trials=len(records),
                   sampling_failures=sum(not r.sampling_ok for r in records))


def estimate_uncertain_error(instance: UncertainInstance, theta: float, trials: int,
                             master_seed: int, jobs: int = 1) -> ErrorEstimate:
    """Monte Carlo error of the protocol against g, with a Wilson 95% half-width."""
    return ErrorEstimate.from_records(run_trials(instance, theta, trials, master_seed, jobs))
