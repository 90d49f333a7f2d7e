"""Correlated sampling from shared randomness, interactive and one-way.

Both parties watch one shared stream of candidates (uniform value, uniform
level in [0,1)).  Alice's output is the value of the first candidate whose
level falls below her distribution P: that value is exactly P-distributed.
Each round she reveals a few fresh hash bits of her candidate's index; Bob
keeps the candidates below a doubling acceptance level built from his
distribution Q, and stops once exactly one of them matches every hash bit
so far.  Bob's reply each round is a single continue/terminate bit.

Two realizations of the same process: a literal one that materializes the
candidate stream (small universes), and a lazy one for product universes
far too large to enumerate, which draws Alice's sample directly and models
the hash-filtered false candidates as the thinned point process they form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import Distribution, JointDistribution, derive_rng

HASH_PRIME = (1 << 31) - 1
# one-way runs materialize the product universe only up to this size
EXPLICIT_UNIVERSE_LIMIT = 4096
DEFAULT_MAX_CANDIDATES = 10_000_000
# new false matches entering this long after Alice's entry have intensity
# below 2^-(2*EXTRA_ROUNDS) and are not simulated
EXTRA_ROUNDS = 64
# constant factor of the one-way payload cap, see truncation_limit
TRUNCATION_C1 = 4.0
# guided_choice buckets uniforms by their top GUIDE_BITS bits
GUIDE_BITS = 12

_TAG_CANDIDATES = 1
_TAG_HASH = 2
_TAG_OUTPUT = 3
_TAG_FALLBACK = 4


@dataclass(frozen=True)
class TranscriptStats:
    """Communication accounting for one protocol run."""

    bits_alice: int
    bits_bob: int
    rounds: int
    success: bool


class SharedRandomness:
    """A master seed both parties hold; named substreams stay independent."""

    def __init__(self, seed):
        self.seed = tuple(int(s) for s in seed) if isinstance(seed, (tuple, list)) \
            else (int(seed),)

    def stream(self, tag: int) -> np.random.Generator:
        return derive_rng(*self.seed, tag)


def hash_bits_per_round(eps: float) -> int:
    """Bits Alice reveals each round for error budget eps."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    return math.ceil(math.log2(1.0 / eps)) + 2


def product_probs(factor: np.ndarray, m: int) -> np.ndarray:
    """Dense probabilities of m independent copies; index digit j has weight d^j."""
    full = np.asarray(factor, dtype=np.float64)
    for _ in range(m - 1):
        full = np.kron(factor, full)
    return full


def decode_product_index(index: int, d: int, m: int) -> list[int]:
    """Base-d digits of a product-universe index, least significant first."""
    digits = []
    for _ in range(m):
        digits.append(index % d)
        index //= d
    return digits


def guided_choice(probs: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    """Exactly rng.choice(len(probs), size=size, p=probs), with few binary searches.

    The same normalised cumsum, the same rng.random(size) draw and the same
    side="right" lookup.  A uniform u in bucket b = floor(u * 2^GUIDE_BITS)
    has answer #{cdf <= b / 2^GUIDE_BITS} unless a cdf step lies in that
    bucket; only those uniforms are searched.
    """
    cdf = np.cumsum(probs, dtype=np.float64)
    cdf /= cdf[-1]
    u = rng.random(size)
    buckets = 1 << GUIDE_BITS
    # scaling by a power of two is exact, so cdf <= b / 2^G iff ceil(cdf * 2^G) <= b
    below = np.cumsum(np.bincount(np.ceil(cdf * buckets).astype(np.int64),
                                  minlength=buckets + 1))
    guide = np.where(below[:-1] == below[1:], below[:-1], -1)
    idx = guide[(u * buckets).astype(np.int64)]
    step = idx < 0
    idx[step] = np.searchsorted(cdf, u[step], side="right")
    return idx


def _hash_block(mult: int, shift: int, indices: np.ndarray, s: int) -> np.ndarray:
    """Pairwise-independent hash of 1-based indices down to s bits."""
    return ((mult * indices + shift) % HASH_PRIME) & ((1 << s) - 1)


class _DenseRun:
    """Literal protocol run over a materialized candidate stream."""

    def __init__(self, p: np.ndarray, q: np.ndarray, eps: float, shared: SharedRandomness,
                 max_candidates: int, max_rounds: int | None):
        self.p = p
        self.q = q
        self.size = len(p)
        self.s = hash_bits_per_round(eps)
        self.shared = shared
        self.max_candidates = max_candidates
        self.max_rounds = max_rounds
        self.rng_c = shared.stream(_TAG_CANDIDATES)
        self.rng_h = shared.stream(_TAG_HASH)
        self.values = np.empty(0, dtype=np.int64)
        self.levels = np.empty(0, dtype=np.float64)
        self.match_ok = np.empty(0, dtype=bool)
        self.round_hashes: list[tuple[int, int, int]] = []

    def _grow(self, target: int) -> None:
        have = len(self.values)
        if target <= have:
            return
        fresh = target - have
        new_values = self.rng_c.integers(self.size, size=fresh)
        new_levels = self.rng_c.random(fresh)
        new_match = np.ones(fresh, dtype=bool)
        indices = np.arange(have + 1, target + 1, dtype=np.int64)
        for mult, shift, bits in self.round_hashes:
            new_match &= _hash_block(mult, shift, indices, self.s) == bits
        self.values = np.concatenate([self.values, new_values])
        self.levels = np.concatenate([self.levels, new_levels])
        self.match_ok = np.concatenate([self.match_ok, new_match])

    def _alice_pick(self) -> int:
        """1-based index of the first candidate below Alice's acceptance level."""
        start = 0
        target = self.size
        while True:
            self._grow(min(target, self.max_candidates))
            accepted = np.flatnonzero(self.levels[start:] < self.p[self.values[start:]])
            if accepted.size:
                return start + int(accepted[0]) + 1
            start = len(self.values)
            if start >= self.max_candidates:
                raise RuntimeError("no accepted candidate within the candidate budget")
            target *= 2

    def run(self):
        i_star = self._alice_pick()
        a = int(self.values[i_star - 1])
        bits_alice = 0
        rounds = 0
        terminated = False
        b = None
        matches = np.empty(0, dtype=np.int64)
        t = 0
        while True:
            t += 1
            if self.max_rounds is not None and t > self.max_rounds:
                break
            horizon = self.size << (t - 1)
            if horizon > self.max_candidates:
                break
            self._grow(horizon)
            mult = int(self.rng_h.integers(1, HASH_PRIME))
            shift = int(self.rng_h.integers(HASH_PRIME))
            alice_bits = int(_hash_block(mult, shift, np.array([i_star], dtype=np.int64), self.s)[0])
            self.round_hashes.append((mult, shift, alice_bits))
            indices = np.arange(1, len(self.values) + 1, dtype=np.int64)
            self.match_ok &= _hash_block(mult, shift, indices, self.s) == alice_bits
            in_set = self.levels[:horizon] < np.minimum(1.0, np.ldexp(self.q[self.values[:horizon]], t))
            matches = np.flatnonzero(in_set & self.match_ok[:horizon])
            bits_alice += self.s
            rounds = t
            if matches.size == 1:
                terminated = True
                b = int(self.values[matches[0]])
                break
        if not terminated:
            # deterministic fallback: best current guess, else a fresh Q-draw
            if rounds > 0 and matches.size > 0:
                b = int(self.values[matches[0]])
            else:
                b = int(self.shared.stream(_TAG_FALLBACK).choice(self.size, p=self.q))
        return a, b, bits_alice, rounds, terminated


def correlated_sample(p: Distribution, q: Distribution, eps: float, shared: SharedRandomness,
                      max_candidates: int = DEFAULT_MAX_CANDIDATES):
    """Interactive correlated sampling; returns (a, b, stats).

    Alice's output a is exactly p-distributed.  On agreement failure or a
    blown candidate budget the run is reported, never hidden: stats.success
    is false whenever b differs from a.
    """
    if p.size != q.size:
        raise ValueError("distributions live on different universes")
    if not ((p.probs > 0) & (q.probs > 0)).any():
        raise ValueError("supports do not overlap")
    runner = _DenseRun(p.probs, q.probs, eps, shared, max_candidates, None)
    a, b, bits_alice, rounds, terminated = runner.run()
    stats = TranscriptStats(bits_alice=bits_alice, bits_bob=rounds, rounds=rounds,
                            success=bool(terminated and a == b))
    return a, b, stats


class _LazyProductRun:
    """The same protocol over a product universe too large to materialize.

    Alice's sample is drawn directly from P (coordinate-wise); her candidate's
    index position and acceptance level give the exact round at which she
    enters Bob's set.  Other matching candidates form a Poisson process whose
    per-round intensity is the candidate count between horizons thinned by
    the hash bits; its events are simulated individually since their total
    mean is below the error budget.
    """

    def __init__(self, p_fac: np.ndarray, q_fac: np.ndarray, m: int, eps: float,
                 shared: SharedRandomness, max_rounds: int):
        self.p_fac = p_fac
        self.q_fac = q_fac
        self.m = m
        self.s = hash_bits_per_round(eps)
        self.shared = shared
        self.max_rounds = max_rounds

    def _false_intensity(self, t: int) -> float:
        # candidates entering Bob's set at round t, thinned by t rounds of hash bits
        raw = 2.0 if t == 1 else 3.0 * 2.0 ** (2 * t - 3)
        return raw * 2.0 ** (-self.s * t)

    def _tail_mass(self, t0: int, hi: int) -> float:
        """Sum of the t >= 2 intensities over rounds t0..hi in closed form."""
        if t0 > hi:
            return 0.0
        rho = 2.0 ** (2 - self.s)
        return (3.0 / 8.0) * (rho ** t0 - rho ** (hi + 1)) / (1.0 - rho)

    def _draw_events(self, hi: int, rng: np.random.Generator) -> list[tuple[int, int]]:
        """False matches entering at rounds 1..hi; each is (entry, last round alive)."""
        if hi < 1:
            return []
        w1 = self._false_intensity(1)
        total = w1 + self._tail_mass(2, hi)
        count = int(rng.poisson(total)) if total > 0 else 0
        rho = 2.0 ** (2 - self.s)
        events = []
        for _ in range(count):
            target = rng.random() * total
            if target < w1 or hi == 1:
                entry = 1
            else:
                # invert the geometric tail: cumulative mass up to t is
                # (3/8) (rho^2 - rho^(t+1)) / (1 - rho)
                rest = target - w1
                rho_pow = rho ** 2 - rest * (1.0 - rho) / (3.0 / 8.0)
                entry = math.ceil(math.log(max(rho_pow, rho ** (hi + 1))) / math.log(rho) - 1.0)
                entry = min(max(entry, 2), hi)
            extra = int(rng.geometric(1.0 - 2.0 ** (-self.s))) - 1
            events.append((entry, entry + extra))
        return events

    def run(self):
        rng_out = self.shared.stream(_TAG_OUTPUT)
        a_digits = guided_choice(self.p_fac, self.m, rng_out)
        level_frac = rng_out.random()
        position = rng_out.standard_exponential()
        # sum log2(P/Q) over the drawn digits only: an undrawn digit with
        # P = Q = 0 would put 0 * nan into the sum
        counts = np.bincount(a_digits, minlength=len(self.p_fac))
        drawn = np.flatnonzero(counts)
        with np.errstate(divide="ignore"):
            log_ratio = float(counts[drawn] @ (np.log2(self.p_fac[drawn])
                                               - np.log2(self.q_fac[drawn])))
        if math.isinf(log_ratio):
            entry_round = None
        else:
            accept_round = max(1, math.floor(math.log2(level_frac) + log_ratio) + 1)
            horizon_round = 1 if position <= 1.0 else math.ceil(math.log2(position)) + 1
            entry_round = max(accept_round, horizon_round)
        rng_noise = self.shared.stream(_TAG_HASH)
        scan_end = self.max_rounds if entry_round is None \
            else min(self.max_rounds, entry_round + EXTRA_ROUNDS)
        events = self._draw_events(scan_end, rng_noise)
        term_round = self._termination_round(entry_round, events)
        if term_round is not None and term_round <= self.max_rounds:
            if entry_round is not None and term_round >= entry_round:
                return a_digits, a_digits.copy(), term_round, True
            b_digits = self._fallback_digits()
            return a_digits, b_digits, term_round, True
        return a_digits, self._fallback_digits(), self.max_rounds, False

    def _fallback_digits(self) -> np.ndarray:
        return guided_choice(self.q_fac, self.m, self.shared.stream(_TAG_FALLBACK))

    def _termination_round(self, entry_round, events) -> int | None:
        """Earliest round with exactly one matching candidate, if any."""
        boundaries = {1}
        if entry_round is not None:
            boundaries.add(entry_round)
        for start, end in events:
            boundaries.add(start)
            boundaries.add(end + 1)
        for t in sorted(boundaries):
            count = sum(1 for start, end in events if start <= t <= end)
            if entry_round is not None and t >= entry_round:
                count += 1
            if count == 1:
                return t
        return None


def truncation_limit(mu: JointDistribution, m: int, eps: float) -> int:
    """Hard cap, in bits, on the one-way sampling payload."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if m < 0:
        raise ValueError("m must be nonnegative")
    info = mu.mutual_information()
    return math.ceil(TRUNCATION_C1 * (m * info / eps + math.log2(1.0 / eps) / eps))


def one_way_correlated_sample(mu: JointDistribution, x: int, m: int, eps: float,
                              shared: SharedRandomness):
    """Sample m points from mu's conditional given x with one message from Alice.

    Alice holds the conditional, Bob only the marginal over his side; since
    the marginal is public, Alice simulates Bob's side of the interactive
    protocol and ships exactly the hash bits it would consume, capped at
    truncation_limit bits.  Returns (alice_samples, bob_samples, stats);
    stats.success reports whether the lists agree, and a failed run keeps
    Bob's fallback samples rather than hiding the mismatch.
    """
    limit = truncation_limit(mu, m, eps)
    # read before the m = 0 return, so an x off the domain raises for every m
    p_fac = mu.conditional_y_given_x(x).probs
    if m == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), TranscriptStats(0, 0, 1, True)
    q_fac = mu.marginal_y().probs
    sub_eps = eps / 2.0
    s = hash_bits_per_round(sub_eps)
    round_budget = limit // s
    d = mu.size_y
    if m * math.log2(d) <= math.log2(EXPLICIT_UNIVERSE_LIMIT) + 1e-9:
        runner = _DenseRun(product_probs(p_fac, m), product_probs(q_fac, m), sub_eps,
                           shared, DEFAULT_MAX_CANDIDATES, round_budget)
        a_idx, b_idx, _bits, rounds, terminated = runner.run()
        alice = np.array(decode_product_index(a_idx, d, m), dtype=np.int64)
        bob = np.array(decode_product_index(b_idx, d, m), dtype=np.int64)
    else:
        runner = _LazyProductRun(p_fac, q_fac, m, sub_eps, shared, round_budget)
        a_digits, b_digits, rounds, terminated = runner.run()
        alice = np.asarray(a_digits, dtype=np.int64)
        bob = np.asarray(b_digits, dtype=np.int64)
    payload = s * rounds if terminated else limit
    stats = TranscriptStats(bits_alice=payload, bits_bob=0, rounds=1,
                            success=bool(terminated and np.array_equal(alice, bob)))
    return alice, bob, stats
