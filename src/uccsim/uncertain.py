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

import functools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import MAX_SIDE, BoolFunction, OneWayProtocol, TableFunction, distance, protocol_error
from .distributions import JointDistribution, ProductJoint, derive_rng
from .sampling import _TAG_OUTPUT, SharedRandomness, one_way_rows, truncation_limit

_DIST_TOL = 1e-12
# the eps-corruption path sorts every point mass
CORRUPT_MAX_BITS = 10
# at most 2^FLIP_CHUNK_BITS candidate points are drawn per round of the delta-flip set
FLIP_CHUNK_BITS = 20
# trials per block times size_y: a block's count arrays hold about this many cells
TRIAL_BLOCK = 1 << 15

WILSON_Z = 1.959963984540054


# cached: every trial of a run asks for the same (k, theta)
@functools.lru_cache
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


def decider_errors(deciders: np.ndarray, bob: np.ndarray, ones: np.ndarray) -> np.ndarray:
    """Share of Bob's samples on which each decider disagrees with Alice's bit, row by row.

    bob[i, y] counts run i's samples at y and ones[i, y] those of them paired
    with a revealed 1.  A decider bit 1 disagrees with the bob - ones zeros
    revealed at y and a bit 0 with the ones, so one product scores every
    decider of every run.  It runs in floats, exact for integers below 2^53;
    integer counts over m give the same floats as the mean of the per-sample
    comparisons.
    """
    disagree = ones.sum(axis=-1, keepdims=True) + (bob - 2 * ones).astype(np.float64) @ deciders.T
    return disagree / bob.sum(axis=-1, keepdims=True)


def _random_pairing(bob: np.ndarray, revealed: np.ndarray, m: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Per row, how many of Bob's m samples at each y are paired with one of revealed[i] ones.

    Each row of bob is one list of m samples in uniformly random order, so
    pairing it index by index with Alice's independent list puts her
    revealed ones on a uniformly random subset of his samples: the first
    revealed[i] of a row-wise shuffle.
    """
    rows, size_y = bob.shape
    lists = np.repeat(np.tile(np.arange(size_y), rows), bob.reshape(-1)).reshape(rows, m)
    lists = rng.permuted(lists, axis=1) + size_y * np.arange(rows)[:, None]
    paired = lists[np.arange(m) < revealed[:, None]]
    return np.bincount(paired, minlength=rows * size_y).reshape(rows, size_y)


def _run_rows(instance: UncertainInstance, xs: np.ndarray, ys: np.ndarray, theta: float,
              rng: np.random.Generator):
    """One full run per (x, y) row, every draw from rng: (output, bits, errors, chosen, ok).

    Correlate samples, reveal f there, let Bob pick a decider.  Bob scores
    every decider against Alice's revealed bits on his own sample list and
    answers with the lowest-indexed minimizer.  On success the lists are
    equal, so Alice's counts at y carry f(x, y).  On failure the lists are
    independent, so Bob's ones are a random pairing (_random_pairing).
    Total communication is the sampling payload plus the m revealed bits.
    """
    m = choose_sample_count(instance.k, theta)
    sample_eps = (theta / 10.0) ** 2
    mu = instance.mu
    limit = truncation_limit(mu, m, sample_eps)
    alice, bob, payload, ok = one_way_rows(mu.conditional_rows(xs), mu.marginal_y().probs,
                                           m, sample_eps, limit, rng)
    ones = alice * instance.f.to_table()[xs]
    failed = np.flatnonzero(~ok)
    ones[failed] = _random_pairing(bob[failed], ones[failed].sum(axis=1), m, rng)
    deciders = instance.protocol.deciders
    errors = decider_errors(deciders, bob, ones)
    chosen = errors.argmin(axis=1)
    return deciders[chosen, ys], payload + m, errors, chosen, ok


def run_uncertain_protocol(instance: UncertainInstance, x: int, y: int, theta: float,
                           shared: SharedRandomness) -> RunResult:
    """One full run on (x, y): the one-row case of the block engine, drawn from shared."""
    output, bits, errors, chosen, ok = _run_rows(instance, np.array([x]), np.array([y]), theta,
                                                 shared.stream(_TAG_OUTPUT))
    return RunResult(output=int(output[0]), bits=int(bits[0]), errors=errors[0],
                     chosen=int(chosen[0]), sampling_ok=bool(ok[0]))


class TrialRecord(NamedTuple):
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


def _block_trials(instance: UncertainInstance) -> int:
    return max(1, TRIAL_BLOCK // instance.mu.size_y)


def _trial_blocks(instance: UncertainInstance, theta: float, trials: int, master_seed: int,
                  first: int, last: int) -> list[TrialRecord]:
    """Records of blocks first..last-1 of the trials; each block is one array pass."""
    size = _block_trials(instance)
    truth = instance.g.to_table()
    records = []
    for block in range(first, last):
        lo = block * size
        hi = min(lo + size, trials)
        rng = derive_rng(master_seed, block)
        xs, ys = instance.mu.sample(rng, size=hi - lo)
        output, bits, _errors, _chosen, ok = _run_rows(instance, xs, ys, theta, rng)
        records += map(TrialRecord, range(lo, hi), xs.tolist(), ys.tolist(), output.tolist(),
                       truth[xs, ys].tolist(), bits.tolist(), ok.tolist())
    return records


def run_trials(instance: UncertainInstance, theta: float, trials: int, master_seed: int,
               jobs: int = 1) -> list[TrialRecord]:
    """Independent seeded trials; identical output for any jobs value.

    Trials run in blocks of TRIAL_BLOCK // size_y, each one array pass drawn
    from its own generator, so a record depends on the seed, its trial index
    and the block layout (the block size and, in the last block, the number
    of trials).  At most min(jobs, blocks, cpu count) worker processes are
    started, each running whole blocks.
    """
    if trials < 1:
        raise ValueError("no trials requested")
    blocks = -(-trials // _block_trials(instance))
    workers = min(jobs, blocks, os.cpu_count() or 1)
    if workers <= 1:
        return _trial_blocks(instance, theta, trials, master_seed, 0, blocks)
    bounds = np.linspace(0, blocks, workers + 1, dtype=int)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunks = pool.map(_trial_blocks, [instance] * workers, [theta] * workers,
                          [trials] * workers, [master_seed] * workers, bounds[:-1], bounds[1:])
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
