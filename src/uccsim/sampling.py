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
far too large to enumerate, which draws Alice's sample counts directly and
models the hash-filtered false candidates as the thinned point process they
form.  The lazy one runs many independent runs at once, one per row of its
arrays.
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


def _multinomial_rows(m: int, probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One row of counts per row of probs: m i.i.d. draws from that row, counted per column.

    numpy hands whatever mass rounding leaves over to the last category, so
    each row's heaviest cell is swapped into the last column for the draw:
    the leftover then never lands on a zero-mass cell.
    """
    rows = np.arange(len(probs))
    heavy = probs.argmax(axis=1)
    moved = probs.copy()
    moved[rows, heavy], moved[rows, -1] = probs[rows, -1], probs[rows, heavy]
    counts = rng.multinomial(m, moved)
    counts[rows, heavy], counts[rows, -1] = counts[rows, -1], counts[rows, heavy]
    return counts


def _false_match_events(s: int, hi: np.ndarray, rng: np.random.Generator):
    """False matches of row i entering Bob's set at rounds 1..hi[i]: (row, entry, last) arrays.

    Candidates entering at round t, thinned by t rounds of s hash bits, form
    a Poisson process of intensity 2 * 2^-s at t = 1 and (3/8) rho^t at
    t >= 2, with rho = 2^(2-s); a match stays alive a geometric number of
    further rounds.
    """
    rho = 2.0 ** (2 - s)
    w1 = 2.0 * 2.0 ** -s
    # the t >= 2 intensities summed over rounds 2..hi in closed form
    tail = np.where(hi >= 2, (3.0 / 8.0) * (rho ** 2 - rho ** (hi + 1.0)) / (1.0 - rho), 0.0)
    total = np.where(hi >= 1, w1 + tail, 0.0)
    row = np.repeat(np.arange(len(hi)), rng.poisson(total))
    target = rng.random(len(row)) * total[row]
    row_hi = hi[row]
    # invert the geometric tail: cumulative mass up to t is
    # (3/8) (rho^2 - rho^(t+1)) / (1 - rho)
    rho_pow = np.maximum(rho ** 2 - (target - w1) * (1.0 - rho) / (3.0 / 8.0),
                         rho ** (row_hi + 1.0))
    later = np.clip(np.ceil(np.log(rho_pow) / np.log(rho) - 1.0), 2, row_hi)
    entry = np.where((target < w1) | (row_hi == 1), 1, later).astype(np.int64)
    extra = rng.geometric(1.0 - 2.0 ** -s, size=len(row)) - 1
    return row, entry, entry + extra


def _termination_rounds(entry: np.ndarray, ev_row: np.ndarray, ev_entry: np.ndarray,
                        ev_last: np.ndarray) -> np.ndarray:
    """Earliest round of each row with exactly one candidate in Bob's set, 0 if none.

    Row i holds Alice's candidate from round entry[i] on (never if entry[i]
    is 0) and false match j over rounds ev_entry[j]..ev_last[j].  The count
    changes only at those boundaries, so one sort of the (row, round, +-1)
    changes and a running sum restarted at every row find it; a zero change
    at round 1 makes round 1 a boundary of every row.
    """
    rows = len(entry)
    alice = np.flatnonzero(entry)
    row = np.concatenate([np.arange(rows), alice, ev_row, ev_row])
    t = np.concatenate([np.ones(rows, np.int64), entry[alice], ev_entry, ev_last + 1])
    step = np.concatenate([np.zeros(rows, np.int64), np.ones(len(alice) + len(ev_row), np.int64),
                           np.full(len(ev_row), -1, np.int64)])
    order = np.lexsort((t, row))
    row, t, step = row[order], t[order], step[order]
    count = np.cumsum(step)
    first = np.searchsorted(row, np.arange(rows))
    count -= (count[first] - step[first])[row]
    # a round's count is the one after its last change
    settled = np.append((row[1:] != row[:-1]) | (t[1:] != t[:-1]), True)
    hit = np.flatnonzero(settled & (count == 1))
    hit_rows, at = np.unique(row[hit], return_index=True)
    term = np.zeros(rows, np.int64)
    term[hit_rows] = t[hit[at]]
    return term


def one_way_rows(p: np.ndarray, q: np.ndarray, m: int, eps: float, limit: int,
                 rng: np.random.Generator):
    """The one-way run once per row of p, every draw from rng.

    p holds one conditional of Alice per row and q Bob's marginal, both over
    the coordinate universe; the product universe of m copies is never
    built.  Alice's sample is her count vector, one multinomial draw per
    row; her candidate's acceptance level and index position give the exact
    round at which it enters Bob's set.  Other matching candidates form a
    Poisson process whose per-round intensity is the candidate count between
    horizons thinned by the hash bits; its events are drawn individually
    since their total mean is below the error budget.  A row succeeds when
    the first round with exactly one candidate in Bob's set holds Alice's
    and comes within limit // s rounds.  Returns (alice, bob, payload_bits,
    success): count matrices of one row per run, each row summing to m, and
    per-row vectors.  A failed row pays s bits per round up to its
    termination round, or the whole limit, and holds Bob's fallback counts,
    drawn from q.
    """
    s = hash_bits_per_round(eps / 2.0)
    max_rounds = limit // s
    alice = _multinomial_rows(m, p, rng)
    level = rng.random(len(p))
    position = rng.standard_exponential(len(p))
    # sum log2(P/Q) over Alice's draws, with the masses floored at the smallest
    # normal float so that every log is finite: a cell of P-mass 0 is never
    # drawn, and a drawn cell of Q-mass 0 keeps her candidate out of Bob's set
    tiny = np.finfo(np.float64).tiny
    log_ratio = (np.einsum("ij,ij->i", alice, np.log2(np.maximum(p, tiny)))
                 - alice @ np.log2(np.maximum(q, tiny)))
    enters = ~alice[:, q == 0].any(axis=1)
    with np.errstate(divide="ignore"):
        log_level = np.log2(level)
    accept = np.maximum(np.floor(log_level + log_ratio) + 1.0, 1.0)
    horizon = np.where(position <= 1.0, 1.0, np.ceil(np.log2(np.maximum(position, 1.0))) + 1.0)
    entry = np.where(enters, np.maximum(accept, horizon), 0.0).astype(np.int64)
    scan_end = np.where(enters, np.minimum(max_rounds, entry + EXTRA_ROUNDS), max_rounds)
    term = _termination_rounds(entry, *_false_match_events(s, scan_end, rng))
    terminated = (term > 0) & (term <= max_rounds)
    success = terminated & enters & (term >= entry)
    payload = np.where(terminated, s * term, limit)
    bob = alice.copy()
    failed = np.flatnonzero(~success)
    bob[failed] = _multinomial_rows(m, np.broadcast_to(q, (len(failed), len(q))), rng)
    return alice, bob, payload, success


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
    truncation_limit bits.  Returns (alice_counts, bob_counts, stats): how
    many of each party's m samples fall on each y, as length-size_y vectors.
    stats.success reports whether the two sample lists agree, and a failed
    run keeps Bob's fallback counts rather than hiding the mismatch.  A
    product universe of at most EXPLICIT_UNIVERSE_LIMIT points runs the
    literal protocol; a larger one is the one-row case of one_way_rows.

    Counts lose nothing a caller needs: each list is m i.i.d. draws, so given
    its counts its order is a uniformly random arrangement.  On success the
    lists are equal; a failed run's lists share no order, so a caller pairs
    them as independent lists.
    """
    limit = truncation_limit(mu, m, eps)
    # read before the m = 0 return, so an x off the domain raises for every m
    p = mu.conditional_rows([x])
    d = mu.size_y
    if m == 0:
        empty = np.zeros(d, dtype=np.int64)
        return empty, empty.copy(), TranscriptStats(0, 0, 1, True)
    q = mu.marginal_y().probs
    if m * math.log2(d) > math.log2(EXPLICIT_UNIVERSE_LIMIT) + 1e-9:
        alice, bob, payload, success = one_way_rows(p, q, m, eps, limit,
                                                    shared.stream(_TAG_OUTPUT))
        return alice[0], bob[0], TranscriptStats(bits_alice=int(payload[0]), bits_bob=0,
                                                 rounds=1, success=bool(success[0]))
    sub_eps = eps / 2.0
    s = hash_bits_per_round(sub_eps)
    runner = _DenseRun(product_probs(p[0], m), product_probs(q, m), sub_eps,
                       shared, DEFAULT_MAX_CANDIDATES, limit // s)
    a_idx, b_idx, _bits, rounds, terminated = runner.run()
    alice = np.bincount(decode_product_index(a_idx, d, m), minlength=d)
    bob = np.bincount(decode_product_index(b_idx, d, m), minlength=d)
    stats = TranscriptStats(bits_alice=s * rounds if terminated else limit, bits_bob=0,
                            rounds=1, success=bool(terminated and a_idx == b_idx))
    return alice, bob, stats
