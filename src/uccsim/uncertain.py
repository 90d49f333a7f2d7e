"""One-way protocols that only know the target function approximately.

An instance is a random k-bit one-way protocol and two budgeted
perturbations of its function: g differs from it on mass at most eps under
the input distribution mu, and f from g on mass at most delta.  Each flip
set is a prefix of a uniformly random order of the points, drawn sorted in
layers of random keys (_flip_random_points): g is the protocol's function
flipped at the eps-set and f is g flipped at the delta-set (FlippedFunction).
Alice computes f and Bob knows g through the protocol.  Neither knows the
other's function, so they correlate lists of m = choose_sample_count(k, theta)
samples of Bob's input, Alice reveals f on her list, and Bob pairs her bits
with his list and picks the decider that disagrees least with them.

A run sends the m revealed bits plus the sampling payload, about m I +
O(sqrt(m I)) + s bits for mutual information I (see sampling): O(k (1 + I))
for a fixed theta, about 740 bits on NoisyHypercube(12, 0.1) at k = 2,
theta = 0.3.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import MAX_SIDE, BoolFunction, FlippedFunction, OneWayProtocol, distance, protocol_error
from .distributions import JointDistribution, ProductJoint, _check_bit_count, derive_rng
from .sampling import _TAG_OUTPUT, SharedRandomness, one_way_block

_DIST_TOL = 1e-12
# a flip set's layers are drawn 2^FLIP_CHUNK_BITS skips at a time
FLIP_CHUNK_BITS = 16
# trials per block times the wider of size_y and m: a block's count arrays and
# sample lists hold about this many cells each
TRIAL_BLOCK = 1 << 17

WILSON_Z = 1.959963984540054

_LN2 = math.log(2.0)
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# _tail_deviation's search stops once its bracket on t is below this share of c
_T_TOL = 1e-5
# choose_sample_count searches below Hoeffding's m only up to this one
_SEARCH_MAX = 1 << 20


def _sample_eps(theta: float) -> float:
    """The sampler's failure budget in a run at slack theta."""
    return (theta / 10.0) ** 2


def _hoeffding_count(k: int, c: float) -> tuple[int, float]:
    """(m, t): the least m with 2 t + 2^k exp(-2 m t^2) <= c at some deviation t, and that t.

    At deviation t the least such m is M(t) = ln(2^k / u) / (2 t^2), u = c -
    2 t, for 0 < t < c / 2.  M' = 0 where c / (2 u) + ln u = k ln 2 + 1/2 >=
    1/2.  The left side falls from infinity to 1 + ln(c / 2) < 1/2 as u runs
    over (0, c / 2] and stays below 1/2 on [c / 2, c), so one bisection over t
    in (0, c / 2) finds the only stationary point t, which is M's minimum.
    Raises OverflowError when k ln 2 or M(t) overflows a float.
    """
    target = k * _LN2 + 0.5

    def past_root(t: float) -> bool:
        u = c - 2.0 * t
        return c / (2.0 * u) + math.log(u) > target

    lo, hi = 0.0, 0.5 * c
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        lo, hi = (lo, mid) if past_root(mid) else (mid, hi)
        mid = 0.5 * (lo + hi)
    # k ln 2 - ln u rather than ln(2^k / u): 2.0 ** k overflows past k = 1023
    return math.ceil((k * _LN2 - math.log(c - 2.0 * lo)) / (2.0 * lo * lo)), lo


class _BinomialTails:
    """Upper bounds on B(m, t), the worst binomial tail at deviation t, for one m.

    B(m, t) is the sup over q in [0, 1] of P(Bin(m, q) >= m (q + t)): the
    largest chance that a mean of m i.i.d. bits lands t or more above its
    mean q.  With j = ceil(m (q + t)) the tail is P(Bin(m, q) >= j), which
    rises with q on each interval of q where j is fixed, so B is the largest
    tail T_j at the right ends q_j = j / m - t, over j in (m t, m].  The lower
    tail P(Bin(m, q) <= m (q - t)) is the upper tail of m minus the count,
    which is Bin(m, 1 - q), so B bounds it too.

    T_j <= pmf(j; m, q_j) j (1 - q_j) / (m t): for i >= j the ratio pmf(i +
    1) / pmf(i) = (m - i) q / ((i + 1)(1 - q)) stays below r = (m - j) q /
    (j (1 - q)) < 1 at q = q_j, and the geometric sum 1 / (1 - r) is j (1 -
    q_j) / (j - m q_j), with j - m q_j = m t.  Hoeffding's inequality
    (Hoeffding, JASA 1963) puts every T_j at exp(-2 m t^2) or less, and
    log_worst takes the smaller bound, so it never exceeds Hoeffding's.

    Everything is in logs, over O(m) floats.  ln C(m, j) is a cumulative sum,
    within 3e-8 of lgamma's up to m = 2^20.
    """

    def __init__(self, m: int):
        self.m = m
        self.j = np.arange(m + 1, dtype=np.float64)
        self.rest = m + 1.0 - self.j
        self.left = 1.0 - self.j / m
        # head[j] = ln C(m, j) + ln j, ln C(m, j) the sum of ln((m - i + 1) / i)
        # over i <= j; head[0] = -inf is never read
        logs = np.log(self.j[1:])
        self.head = np.empty(m + 1)
        self.head[0] = -math.inf
        np.cumsum(logs[::-1] - logs, out=self.head[1:])
        self.head[1:] += logs

    def log_terms(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """(j, ln of pmf(j; m, q_j) j (1 - q_j) / (m t), T_j's bound) for j in (m t, m]."""
        m = self.m
        lo = math.floor(m * t) + 1
        j = self.j[lo:]
        q = j / m - t
        # j > m t, so q_j > 0; rounding could take it to zero or just below
        np.maximum(q, 0.0, out=q)
        with np.errstate(divide="ignore"):
            np.log(q, out=q)
        q *= j
        # ln(1 - q_j) from 1 - j / m + t
        terms = np.log(self.left[lo:] + t)
        terms *= self.rest[lo:]
        terms += q
        terms += self.head[lo:]
        terms -= math.log(m * t)
        return j, terms

    def log_worst(self, t: float) -> float:
        """ln of an upper bound on B(m, t): the largest T_j's bound or Hoeffding's, the smaller."""
        return min(float(self.log_terms(t)[1].max()), -2.0 * self.m * t * t)


def _tail_deviation(k: int, c: float, m: int) -> float | None:
    """A deviation t with 2 t + 2^k B(m, t) <= c, or None if the search finds none.

    Golden-section search over t in (0, c / 2) for the least h(t) = k ln 2 +
    ln B(m, t) - ln(c - 2 t), in logs so that no 2^k overflows; h(t) <= 0 is
    the condition.  It answers with the first probe that meets it, and stops
    when the bracket is narrower than _T_TOL c.  B is _BinomialTails's bound.
    """
    tails = _BinomialTails(m)
    log_deciders = k * _LN2

    def h(t: float) -> float:
        return log_deciders + tails.log_worst(t) - math.log(c - 2.0 * t)

    a, b = 0.0, 0.5 * c
    x1, x2 = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    h1, h2 = h(x1), h(x2)
    while True:
        if min(h1, h2) <= 0.0:
            return x1 if h1 <= h2 else x2
        if b - a < _T_TOL * c:
            return None
        if h1 < h2:
            b, x2, h2 = x2, x1, h1
            x1 = b - _GOLDEN * (b - a)
            h1 = h(x1)
        else:
            a, x1, h1 = x1, x2, h2
            x2 = a + _GOLDEN * (b - a)
            h2 = h(x2)


# cached: every trial of a run asks for the same (k, theta)
@functools.lru_cache
def choose_sample_count(k: int, theta: float) -> int:
    """Least m, by bisection, for which some deviation t has 2 t + 2^k B(m, t) + phi <= theta.

    B(m, t) bounds the worst binomial tail at deviation t (_BinomialTails).
    The error split this m supports, for a trial (x, y) ~ mu:

    - Bob's m samples are i.i.d. from mu(.|x) and independent of y.  Decider
      j's empirical disagreement with f on them (decider_errors) is a mean
      of m i.i.d. bits with mean D_j(x), its disagreement with f(x, .) under
      mu(.|x).
    - Let j* be the right decider, protocol.assignment[x].  Bob's choice can
      only go wrong by much if j*'s empirical disagreement lands above
      D_j*(x) + t or another decider's below D_j(x) - t.  Each of these
      one-sided tails has probability at most B(m, t), whatever D_j(x) is,
      so a union bound over the 2^k deciders puts the chance of any at beta
      <= 2^k B(m, t).
    - When none happens, the chosen decider j has D_j(x) - t <= its
      empirical disagreement <= j*'s <= D_j*(x) + t, so its D is at most the
      right decider's plus 2 t, and the right one's is at most delta_x +
      eps_x, the conditional distances of f to g and of g to the protocol.
      Given x, the chosen decider then errs against g with probability at
      most 2 delta_x + eps_x + 2 t.
    - Averaged over x, the error against g is at most 2 delta + eps + 2 t +
      beta + phi, with phi the chance that sampling fails; the union with
      that failure does not condition on the sampler's success.  _run_rows
      runs the sampler at budget sample_eps = (theta / 10)^2.  Its first
      block of s = hash_bits_per_round(sample_eps / 2) bits keeps the mean
      number of false matches, 2^(2-s), and so their failures below
      sample_eps / 2, at any r = fresh_bits_per_round(m, I) fresh bits a
      round.  Alice's candidate enters Bob's set at round max(A, H)
      (one_way_rows), with E[A] <= (m I + 1 / ln 2) / (r - 2) + 1 (the
      negative part of her log-ratio has mean at most 1 / ln 2) and E[H - 1]
      < 0.53, and false matches add under 0.01 rounds (s >= 10), so the
      uncapped payload, s - 3 + r T bits, averages at most s - 3 + r / (r -
      2) (m I + 1 / ln 2) + 1.54 r.  As r / (r - 2) <= 3, r <= 3 + sqrt(m I)
      and 1.54 sqrt(m I) <= m I + 0.6, that is at most 4 m I + s + 7, and at
      most 4 (m I + log2(1 / sample_eps)), as s <= log2(1 / sample_eps) + 4
      and log2(1 / sample_eps) >= log2 100, so by Markov's inequality the cap
      truncation_limit(mu, m, sample_eps) cuts a run with probability at
      most sample_eps.  So phi <= 1.5 sample_eps.
    - m meets 2 t + beta <= c = theta - phi at some t, so the error is at
      most 2 delta + eps + theta.  At k = 2, theta = 0.3 the split is t =
      0.1307, beta = 0.0366, phi = 0.00135, and m = 91; Hoeffding's exp(-2 m
      t^2) in place of B needs m = 136.

    The search: Hoeffding's m (_hoeffding_count) meets the condition, as B
    <= exp(-2 m t^2), and bisection over (0, Hoeffding's m] keeps an upper
    end at which a deviation is known, Hoeffding's or one that
    _tail_deviation finds, and a lower end at which the search finds none.
    The condition need not be monotone in m, as the binomial is discrete,
    so m is the least one only along the bisection's path; it never exceeds
    Hoeffding's.  Past a Hoeffding m of _SEARCH_MAX the search, which holds
    O(m) floats, is skipped and Hoeffding's m is the answer.

    m carries no empirical constant.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    c = theta - 1.5 * _sample_eps(theta)
    try:
        hoeffding = _hoeffding_count(k, c)[0]
    except OverflowError:
        raise ValueError("k is too large: the sample count for 2^k deciders "
                         "overflows a float") from None
    if hoeffding > _SEARCH_MAX:
        return hoeffding
    lo, hi = 0, hoeffding
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _tail_deviation(k, c, mid) is None:
            lo = mid
        else:
            hi = mid
    return hi


def _bernoulli_ranks(rate: float, size: int, rng: np.random.Generator):
    """Members of a Bernoulli(rate) subset of range(size), in order, with a uniform uint16 each."""
    chunk = min(1 << FLIP_CHUNK_BITS, int(rate * size + 4.0 * math.sqrt(rate * size)) + 16)
    lam = -math.log1p(-rate) if rate < 1.0 else math.inf
    last, end = -1, chunk
    while end == chunk:
        # skips floor(E / lam) + 1 (Vitter, CACM 1984); E / lam >= 0, so the cast floors it
        at = np.cumsum((rng.standard_exponential(chunk) / lam).astype(np.int64) + 1) + last
        end = int(np.searchsorted(at, size))
        yield at[:end], rng.bit_generator.random_raw(-(-end // 4)).view(np.uint16)[:end]
        last = int(at[-1])


def _flip_random_points(mu: JointDistribution, budget: float,
                        rng: np.random.Generator) -> np.ndarray:
    """The longest prefix of a uniformly random order of all points whose mass fits in budget.

    It comes as sorted flat indices x * size_y + y, its mass taken under mu.
    Implicit i.i.d. Uniform(0, 1) keys order the points: keys in [tau, tau') are
    a Bernoulli((tau' - tau) / (1 - tau)) layer of the points left, drawn in
    index order, in uniform buckets of 16 to 32 points (at most 2^16).  Only the
    bucket where the running mass passes the budget is ordered, by a permutation
    drawn last.  A layer that fits is taken whole, never redrawn: that would
    condition on the shortfall.  tau' - tau is the budget left plus 3%, 1024
    points' share and 4 sqrt(sum of the last layer's squared masses).
    """
    total, limit = mu.size_x * mu.size_y, budget + _DIST_TOL
    taken = np.empty(0, dtype=np.int64)
    spent, squares, rest = 0.0, 0.0, 1.0  # rest = 1 - tau
    while len(taken) < total:
        size = total - len(taken)
        step = min(rest, 1.03 * (budget - spent) + 1024.0 / total + 4.0 * math.sqrt(squares))
        rate, rest = step / rest, rest - step
        shift = min(16, max(0, 21 - int(rate * size).bit_length()))
        left_before = taken - np.arange(len(taken))  # the points left below each taken one
        hist, squares, layer, keys = np.zeros(1 << (16 - shift)), 0.0, [], []
        for points, key in _bernoulli_ranks(rate, size, rng):
            if len(taken):
                points = points + np.searchsorted(left_before, points, side="right")
            keys.append(key >> shift)
            masses = mu.flat_masses(points)
            hist += np.bincount(keys[-1], masses, len(hist))
            squares += float(masses @ masses)
            # flat indices stay below 4^14 (generate_instance caps n), so uint32 holds them
            layer.append(points.astype(np.uint32))
        # one large array at a time: each list goes as its array is made, the keys
        # before the kept layer is copied and the uint32 layer before its int64 copy
        layer = np.concatenate(layer)
        keys = np.concatenate(keys)
        run = np.cumsum(np.concatenate(([spent], hist)))  # the mass spent before each bucket
        cut = int(np.searchsorted(run, limit, side="right")) - 1
        at_cut = rng.permutation(np.flatnonzero(keys == cut))  # none when the layer fits
        within = np.cumsum(mu.flat_masses(layer[at_cut])) + run[cut]
        keep = keys < cut
        keep[at_cut[:np.searchsorted(within, limit, side="right")]] = True
        del keys
        layer = layer[keep]
        del keep
        layer = layer.astype(np.int64)
        taken = np.insert(taken, np.searchsorted(taken, layer), layer) if len(taken) else layer
        if cut < len(hist):
            break
        spent = float(run[-1])
    return taken


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


def check_instance_size(n: int, k: int) -> None:
    """ValueError unless generate_instance's caps admit n and k: n in 1..14, 2^k * 2^n <= 4^14."""
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    _check_bit_count(n)
    max_bits = MAX_SIDE.bit_length() - 1
    if k + n > 2 * max_bits:
        raise ValueError(f"2^k deciders of 2^n bits exceed the 4^{max_bits}-entry decider "
                         f"table cap")


def generate_instance(n: int, k: int, eps: float, delta: float, rng: np.random.Generator,
                      mu: JointDistribution | None = None) -> UncertainInstance:
    """Draw a random instance on {0,1}^n x {0,1}^n and certify its promises.

    The protocol is a uniformly random assignment into 2^k parts with uniform
    random deciders.  g flips the protocol's function on a set of mass at most
    eps under mu, and f flips g on one of mass at most delta, each a prefix of
    a uniformly random order, drawn sorted (_flip_random_points) and kept as
    flat indices, about delta * 4^n of them: 13M at n = 14, delta = 0.05.  n
    <= 14 (MAX_SIDE = 2^14) and 2^k * 2^n <= 4^14.  Larger requests raise first.
    """
    if not 0.0 <= delta < 1.0 or not 0.0 <= eps < 1.0:
        raise ValueError("eps and delta must lie in [0, 1)")
    check_instance_size(n, k)
    size = 1 << n
    if mu is None:
        mu = ProductJoint.uniform_bits(n)
    if (mu.size_x, mu.size_y) != (size, size):
        raise ValueError("mu does not live on {0,1}^n x {0,1}^n")
    parts = 1 << k
    assignment = rng.integers(0, parts, size=size)
    deciders = rng.integers(0, 2, size=(parts, size), dtype=np.uint8)
    protocol = OneWayProtocol(assignment, deciders)
    g = FlippedFunction(protocol, _flip_random_points(mu, eps, rng) if eps > 0.0 else [])
    f = FlippedFunction(g, _flip_random_points(mu, delta, rng))
    instance = UncertainInstance(mu=mu, protocol=protocol, g=g, f=f, k=k, eps=eps, delta=delta)
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


def decider_errors(deciders: np.ndarray, signed: np.ndarray, ones: np.ndarray,
                   m: int) -> np.ndarray:
    """Share of each run's m samples on which each decider disagrees with Alice's bit.

    signed[i, y] counts run i's samples at y paired with a revealed 0 minus
    those paired with a 1, and ones[i] counts its revealed 1s.  A decider
    disagrees with the 1s where its bit is 0 and with the 0s, the 1s plus
    signed[i, y], where it is 1, so one product scores every decider of
    every run.  It runs in floats, exact for integers below 2^53, so the
    counts over m give the same floats as the per-sample comparisons' mean.
    """
    return (ones[:, None] + signed @ deciders.T) / m


def _run_rows(instance: UncertainInstance, xs: np.ndarray, ys: np.ndarray, theta: float,
              rng: np.random.Generator):
    """One full run per (x, y) row, every draw from rng: (output, bits, errors, chosen, ok).

    Correlate sample lists and reveal f on Alice's.  Bob pairs her bits with
    his own list index by index, as the protocol does, scores every decider
    on one signed table (+1 a sample paired with a revealed 0, -1 with a 1)
    and answers with the lowest-indexed minimizer.  The lists are equal on
    success and independent on failure.  A run sends the payload plus the m revealed bits.
    """
    m = choose_sample_count(instance.k, theta)
    # the sampler's failure budget, the phi term of choose_sample_count's error split
    alice, bob, payload, ok = one_way_block(instance.mu, xs, m, _sample_eps(theta), rng)
    cell = np.arange(len(xs))[:, None] * instance.mu.size_y
    revealed = instance.f.rows(xs).take(cell + alice)
    signed = np.bincount((cell + bob).ravel(), weights=(1.0 - 2.0 * revealed).ravel(),
                         minlength=cell.size * instance.mu.size_y).reshape(len(xs), -1)
    deciders = instance.protocol.deciders
    errors = decider_errors(deciders, signed, np.count_nonzero(revealed, axis=1), m)
    chosen = errors.argmin(axis=1)
    return deciders[chosen, ys], payload + m, errors, chosen, ok


def run_uncertain_protocol(instance: UncertainInstance, x: int, y: int, theta: float,
                           shared: SharedRandomness) -> RunResult:
    """One full run on (x, y): the one-row case of the block engine, drawn from shared."""
    output, bits, errors, chosen, ok = _run_rows(instance, np.array([x]), np.array([y]), theta,
                                                 shared.stream(_TAG_OUTPUT))
    return RunResult(output=int(output[0]), bits=int(bits[0]), errors=errors[0],
                     chosen=int(chosen[0]), sampling_ok=bool(ok[0]))


class Trials(NamedTuple):
    """Trials as columns: entry i of each array belongs to trial i."""

    x: np.ndarray
    y: np.ndarray
    output: np.ndarray
    truth: np.ndarray
    bits: np.ndarray
    sampling_ok: np.ndarray


def _block_trials(instance: UncertainInstance, theta: float) -> int:
    width = max(instance.mu.size_y, choose_sample_count(instance.k, theta))
    return max(1, TRIAL_BLOCK // width)


def _trial_block(instance: UncertainInstance, theta: float, trials: int, master_seed: int,
                 block: int) -> Trials:
    """Trials of block `block`: one array pass drawn from derive_rng(master_seed, block)."""
    size = _block_trials(instance, theta)
    lo = block * size
    hi = min(lo + size, trials)
    rng = derive_rng(master_seed, block)
    xs, ys = instance.mu.sample(rng, size=hi - lo)
    output, bits, _errors, _chosen, ok = _run_rows(instance, xs, ys, theta, rng)
    return Trials(xs, ys, output, instance.g.values(xs, ys), bits, ok)


def run_trials(instance: UncertainInstance, theta: float, trials: int,
               master_seed: int) -> Trials:
    """Independent seeded trials as columns, trial i at entry i.

    Trials run in blocks of TRIAL_BLOCK // max(size_y, m) for m =
    choose_sample_count(k, theta), each one array pass drawn from its own
    generator, so a trial depends on the seed, its index and the block
    layout (the block size and, in the last block, the number of trials).
    The blocks run one after another and their columns are concatenated in
    block order.
    """
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    blocks = -(-trials // _block_trials(instance, theta))
    chunks = [_trial_block(instance, theta, trials, master_seed, block)
              for block in range(blocks)]
    return Trials(*map(np.concatenate, zip(*chunks)))


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
    def from_trials(cls, trials: Trials) -> "ErrorEstimate":
        """Error rate against g, with a Wilson 95% half-width, of finished trials."""
        count = len(trials.x)
        rate = np.count_nonzero(trials.output != trials.truth) / count
        return cls(error_rate=rate,
                   mean_bits=float(trials.bits.mean()),
                   half_width=wilson_half_width(rate, count),
                   trials=count,
                   sampling_failures=count - np.count_nonzero(trials.sampling_ok))


def estimate_uncertain_error(instance: UncertainInstance, theta: float, trials: int,
                             master_seed: int) -> ErrorEstimate:
    """Monte Carlo error of the protocol against g, with a Wilson 95% half-width."""
    return ErrorEstimate.from_trials(run_trials(instance, theta, trials, master_seed))
