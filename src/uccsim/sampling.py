"""Correlated sampling from shared randomness, interactive and one-way.

Both parties watch one shared stream of candidates (uniform value, uniform
level in [0,1)).  Alice's output is the value of the first candidate whose
level falls below her distribution P: that value is exactly P-distributed.
Each round she reveals a few fresh hash bits of her candidate's index; Bob
keeps the candidates below a doubling acceptance level built from his
distribution Q, and stops once exactly one of them matches every hash bit
so far.  Bob's reply each round is a single continue/terminate bit.

The interactive protocol materializes the candidate stream.  The one-way
protocol runs over a product universe of m copies, far too large to
enumerate, so it draws Alice's sample counts directly and draws the
hash-filtered false candidates as the point process they form: a proposal
that bounds their intensity, thinned to the candidates a literal run would
hold.  It runs many independent runs at once, one per row of its arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import Distribution, JointDistribution, derive_rng

HASH_PRIME = (1 << 31) - 1
# A label only: it selects no code path.  The frozen benchmark tracer reads it
# to mark one-way calls on product universes of at most this many points.
EXPLICIT_UNIVERSE_LIMIT = 4096
DEFAULT_MAX_CANDIDATES = 10_000_000
# one-way index positions are resolved to 2^-INDEX_CELL_BITS of their range,
# the float mantissa; a larger universe's indices are drawn as a continuum
INDEX_CELL_BITS = 53
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


def _hash_block(mult: int, shift: int, indices: np.ndarray, s: int) -> np.ndarray:
    """Pairwise-independent hash of 1-based indices down to s bits."""
    return ((mult * indices + shift) % HASH_PRIME) & ((1 << s) - 1)


class _DenseRun:
    """Literal protocol run over a materialized candidate stream."""

    def __init__(self, p: np.ndarray, q: np.ndarray, eps: float, shared: SharedRandomness,
                 max_candidates: int):
        self.p = p
        self.q = q
        self.size = len(p)
        self.s = hash_bits_per_round(eps)
        self.shared = shared
        self.max_candidates = max_candidates
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
    runner = _DenseRun(p.probs, q.probs, eps, shared, max_candidates)
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


def _index_cells(log2_cells) -> np.ndarray:
    """2^log2_cells index positions, exact up to 2^INDEX_CELL_BITS and capped there."""
    return np.rint(np.exp2(np.minimum(log2_cells, INDEX_CELL_BITS)))


def _false_matches(p: np.ndarray, q: np.ndarray, m: int, s: int, alice_index: np.ndarray,
                   last_round: int, rng: np.random.Generator):
    """False matches of row i in Bob's set by round last_round: (row, entry, last) arrays.

    The product universe has N = d^m points, and row i's Alice candidate sits
    at 0-based index floor(alice_index[i] * N).  A candidate (index, value v,
    level u) is in Bob's set at round t once its index is below N 2^(t-1),
    u < min(1, 2^t Q(v)) and it matched t rounds of s hash bits; a match stays
    a geometric number of further rounds.  Candidates before Alice's are
    conditioned on u >= P(v), so their density is N/(N-1) times the others'.

    The proposal drops the min(1, .) and the conditioning: at round t a
    uniform index below N 2^(t-1), v ~ Q^m and u uniform below 2^t Q(v),
    times 2^-st for the hash bits and N/(N-1) for the density, a Poisson
    process of intensity N/(N-1) rho^t / 2 with rho = 2^(2-s).  Thinning keeps
    exactly the candidates that enter at round t: u < 1; not an index below
    N 2^(t-2) with u < 2^(t-1) Q(v), which entered earlier; not Alice's index;
    before it, u >= P(v); after it, with probability (N-1)/N.
    """
    rho = 2.0 ** (2 - s)
    log2_size = m * math.log2(len(q))
    size = float(_index_cells(log2_size))
    # with N = 1 Alice's index is the only one, so nothing lies before it
    boost = size / max(size - 1.0, 1.0)
    row = np.repeat(np.arange(len(alice_index)),
                    rng.poisson(boost * rho / (2.0 * (1.0 - rho)), size=len(alice_index)))
    entry = rng.geometric(1.0 - rho, size=len(row))
    last = entry + rng.geometric(1.0 - 2.0 ** -s, size=len(row)) - 1
    value = _multinomial_rows(m, np.broadcast_to(q, (len(row), len(q))), rng)
    offset, level, keep = rng.random((3, len(row)))
    tiny = np.finfo(np.float64).tiny
    log_q = value @ np.log2(np.maximum(q, tiny))
    log_p = np.einsum("ij,ij->i", value, np.log2(np.maximum(p[row], tiny)))
    with np.errstate(divide="ignore"):
        log_level = entry + log_q + np.log2(level)
    cells = _index_cells(log2_size + entry - 1.0)
    cell = np.floor(offset * cells)
    alice = np.floor(np.ldexp(alice_index[row], 1 - entry) * cells)
    kept = ((entry <= last_round) & (log_level < 0.0)
            & ~((entry >= 2) & (offset < 0.5) & (level < 0.5))
            & np.where(cell < alice, log_level >= log_p, (cell > alice) & (keep * boost < 1.0)))
    return row[kept], entry[kept], last[kept]


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
    the coordinate universe; the product universe of N = d^m points is never
    built.  Alice's sample is her count vector, one multinomial draw per
    row.  Her candidate's 1-based index is Geometric(1/N), floor(E / lam) + 1
    for an exponential E and lam = -log1p(-1/N); with her acceptance level
    it gives the exact round at which the candidate enters Bob's set.  The other
    matching candidates are drawn by _false_matches.  A row succeeds when
    the first round with exactly one candidate in Bob's set holds Alice's
    and comes within limit // s rounds.  Returns (alice, bob, payload_bits,
    success): count matrices of one row per run, each row summing to m, and
    per-row vectors.  A failed row pays s bits per round up to its
    termination round, or the whole limit, and holds Bob's fallback counts,
    drawn from q.
    """
    s = hash_bits_per_round(eps / 2.0)
    last_round = limit // s
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
    size = _index_cells(m * math.log2(len(q)))
    with np.errstate(divide="ignore"):
        log_level = np.log2(level)
        # Alice's index over N, E / (lam N): her 0-based index is floor(index * N)
        index = position / (-size * np.log1p(-1.0 / size))
    accept = np.maximum(np.floor(log_level + log_ratio) + 1.0, 1.0)
    # the first round whose horizon N 2^(t-1) reaches past her index
    horizon = np.floor(np.log2(np.maximum(index, 0.5))) + 2.0
    entry = np.where(enters, np.maximum(accept, horizon), 0.0).astype(np.int64)
    term = _termination_rounds(entry, *_false_matches(p, q, m, s, index, last_round, rng))
    terminated = (term > 0) & (term <= last_round)
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
    run keeps Bob's fallback counts rather than hiding the mismatch.  This
    is the one-row case of one_way_rows.

    Counts lose nothing a caller needs: each list is m i.i.d. draws, so given
    its counts its order is a uniformly random arrangement.  On success the
    lists are equal; a failed run's lists share no order, so a caller pairs
    them as independent lists.
    """
    limit = truncation_limit(mu, m, eps)
    # read before the m = 0 return, so an x off the domain raises for every m
    p = mu.conditional_rows([x])
    if m == 0:
        empty = np.zeros(mu.size_y, dtype=np.int64)
        return empty, empty.copy(), TranscriptStats(0, 0, 1, True)
    alice, bob, payload, success = one_way_rows(p, mu.marginal_y().probs, m, eps, limit,
                                                shared.stream(_TAG_OUTPUT))
    return alice[0], bob[0], TranscriptStats(bits_alice=int(payload[0]), bits_bob=0,
                                             rounds=1, success=bool(success[0]))
