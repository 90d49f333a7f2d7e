"""Correlated sampling from shared randomness, interactive and one-way.

Both parties watch one shared stream of candidates (uniform value, uniform
level in [0,1)).  Alice's output is the value of the first candidate whose
level falls below her distribution P: that value is exactly P-distributed.
Each round she reveals fresh hash bits of her candidate's index, following
the Braverman-Rao sampling lemma's schedule with c fresh bits a round: a
first block of s + c - 3 bits, s = hash_bits_per_round(eps), then c bits a
round (payload_bits).  Bob keeps the candidates below an acceptance level
built from his distribution Q that grows 2^(c-2)x a round, over a candidate
horizon that doubles, and stops once exactly one of them matches every hash
bit so far.  His candidate set grows 2^(c-1)x a round while the c fresh bits
cut its false matches 2^c x, so their mass halves each round, and their
total stays 2^(2-s) at every c.  A run that terminates at round T costs
Alice s + c T - 3 bits.  Her candidate enters Bob's set after about
log2(P(v)/Q(v)) / (c - 2) rounds for its value v.

The interactive run (Bob replies one continue/terminate bit a round) knows
no divergence and takes c = FRESH_BITS_PER_ROUND = 3.  The one-way run over
m copies of a joint with mutual information I takes c =
fresh_bits_per_round(m, I), about 2 + sqrt(m I), so it pays about
c / (c - 2) m I + s + O(c) = m I + O(sqrt(m I)) + s bits: about 650 on
NoisyHypercube(12, 0.1) with m = 91, where c = 3 would pay about 1,750.

The one-way protocol runs over a product universe of m copies, far too
large to enumerate, so it draws Alice's sample list directly and draws
the hash-filtered false candidates as the point process they form: a
proposal that bounds their intensity, thinned to the candidates a literal
run would hold, one run per row of its arrays.  The interactive protocol is
its m = 1 case plus Bob's reply bits, with as many rounds as a candidate
budget allows; Bob's candidate set and termination round are the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _as_indices
from .distributions import Distribution, JointDistribution, ProductJoint, _log2_floored, derive_rng

# A label only: it selects no code path.  The frozen benchmark tracer reads it
# to mark one-way calls on product universes of at most this many points.
EXPLICIT_UNIVERSE_LIMIT = 4096
DEFAULT_MAX_CANDIDATES = 10_000_000
# one-way index positions are resolved to 2^-INDEX_CELL_BITS of their range,
# the float mantissa; a larger universe's indices are drawn as a continuum
INDEX_CELL_BITS = 53
# constant factor of the one-way payload cap, see truncation_limit
TRUNCATION_C1 = 4.0

# fresh hash bits a round of the interactive run and of a one-way run at
# I(X;Y) = 0, and the fewest any run reveals: with c > 2 bits a round, Bob's
# acceptance level can grow 2^(c-2)x while the false matches still halve
FRESH_BITS_PER_ROUND = 3

_TAG_OUTPUT = 3


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


def fresh_bits_per_round(m: int, info: float) -> int:
    """c, the fresh hash bits a round of a one-way run over m copies at I(X;Y) = info.

    Alice's candidate enters Bob's set after about m I / (c - 2) rounds of c
    bits, so the payload is about m I + 2 m I / (c - 2) + O(c) bits; c - 2 =
    sqrt(m I) makes both last terms O(sqrt(m I)).  At m I <= 2 the rule
    gives FRESH_BITS_PER_ROUND.
    """
    return max(FRESH_BITS_PER_ROUND, 2 + round(math.sqrt(m * info)))


def payload_bits(s: int, rounds, c: int):
    """Hash bits Alice has revealed after rounds >= 1 rounds of c fresh bits.

    The Braverman-Rao schedule: an (s + c - 3)-bit first block, then c
    fresh bits in each later round.
    """
    return s - 3 + c * rounds


def rounds_within(s: int, bits, c: int):
    """The most rounds whose payload_bits fit in bits, 0 if not even the first does."""
    return np.maximum((bits - s + 3) // c, 0)


def _index_cells(log2_cells) -> np.ndarray:
    """2^log2_cells index positions, exact up to 2^INDEX_CELL_BITS and capped there."""
    return np.rint(np.exp2(np.minimum(log2_cells, INDEX_CELL_BITS)))


def _false_matches(mu: JointDistribution, xs: np.ndarray, q: Distribution, m: int, s: int,
                   c: int, alice_index: np.ndarray, last_round: int, rng: np.random.Generator):
    """False matches of row i in Bob's set by round last_round: (row, entry, last, list).

    The product universe has N = d^m points, and row i's Alice candidate sits
    at 0-based index floor(alice_index[i] * N).  A candidate (index, value v,
    level u) is in Bob's set at round t once its index is below N 2^(t-1),
    u < min(1, 2^(b t) Q(v)) with b = c - 2, and it matched all H(t) =
    payload_bits(s, t, c) = s - 3 + c t hash bits revealed so far.  A match
    stays each further round with probability 2^-c, the chance of matching
    that round's c fresh bits, so it stays a Geometric(1 - 2^-c) - 1 number
    of further rounds.  Candidates before Alice's are conditioned on u >=
    P(v), so their density is N/(N-1) times the others'.

    The proposal drops the min(1, .) and the conditioning: at round t a
    uniform index below N 2^(t-1), v ~ Q^m and u uniform below 2^(b t) Q(v),
    N 2^(t-1) 2^(b t) / N candidates on average, times 2^-H(t) for the hash
    bits and boost = N/(N-1) for the density.  That is a Poisson process of
    intensity
        boost 2^(t-1+bt) 2^-(s-3+ct) = boost 2^(2-s) r^t,  r = 2^(b+1-c) = 1/2,
    the same at every c.  Its total over t >= 1 is boost 2^(2-s), at most
    boost eps for s = hash_bits_per_round(eps), and a proposal's round is
    Geometric(1 - r).  Thinning keeps exactly the candidates that enter at
    round t: u < 1; not an index below N 2^(t-2) with u < 2^(b(t-1)) Q(v),
    which entered earlier; not Alice's index; before it, u >= P(v); after
    it, with probability (N-1)/N.
    """
    b = c - 2
    log2_size = m * math.log2(q.size)
    size = float(_index_cells(log2_size))
    # with N = 1 Alice's index is the only one, so nothing lies before it
    boost = size / max(size - 1.0, 1.0)
    row = np.repeat(np.arange(len(alice_index)),
                    rng.poisson(boost * 2.0 ** (2 - s), size=len(alice_index)))
    # most blocks propose no candidate, and then every draw below is empty
    if not len(row):
        return row, row, row, np.zeros((0, m), np.int64)
    entry = rng.geometric(0.5, size=len(row))
    last = entry + rng.geometric(1.0 - 2.0 ** -c, size=len(row)) - 1
    value = q.sample(rng, (len(row), m))
    offset, level, keep = rng.random((3, len(row)))
    log_p = mu.log2_conditional(xs[row, None], value).sum(axis=1)
    with np.errstate(divide="ignore"):
        log_level = b * entry + _log2_floored(q.probs)[value].sum(axis=1) + np.log2(level)
    cells = _index_cells(log2_size + entry - 1.0)
    cell = np.floor(offset * cells)
    alice = np.floor(np.ldexp(alice_index[row], 1 - entry) * cells)
    kept = ((entry <= last_round) & (log_level < 0.0)
            & ~((entry >= 2) & (offset < 0.5) & (level < 2.0 ** -b))
            & np.where(cell < alice, log_level >= log_p, (cell > alice) & (keep * boost < 1.0)))
    return row[kept], entry[kept], last[kept], value[kept]


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


def one_way_rows(mu: JointDistribution, xs: np.ndarray, q: Distribution, m: int, s: int,
                 c: int, limit: int, rng: np.random.Generator):
    """The one-way run once per x in xs at c fresh bits a round, every draw from rng.

    Row i's P is mu's conditional at xs[i] and Bob's Q is q; the product
    universe of N = d^m points is never built.  Alice's sample is a list of
    m i.i.d. draws from P, her log-ratio read at its points.  Her index is
    Geometric(1/N), floor(E / lam) + 1 for an exponential E and lam =
    -log1p(-1/N); with her acceptance level it gives the round her candidate
    enters Bob's set, whose acceptance grows 2^(c-2)x a round.
    _false_matches draws the other matches.  A row ends at the first round
    with one candidate in Bob's set, if its payload_bits fit in limit, and
    succeeds if that candidate's list is Alice's ordered tuple; else it pays
    the whole limit and Bob falls back to a list drawn from q.  Returns
    (alice, bob, payload_bits, success): len(xs) x m lists of y indices and
    per-row vectors.
    """
    last_round = int(rounds_within(s, limit, c))
    alice = mu.sample_lists(xs, m, rng)
    level = rng.random(len(xs))
    position = rng.standard_exponential(len(xs))
    # P-mass-0 cells are never drawn; a drawn Q-mass-0 cell keeps her out of Bob's set
    log_q = _log2_floored(q.probs)
    log_ratio = (mu.log2_conditional(xs[:, None], alice) - log_q[alice]).sum(axis=1)
    enters = (q.probs[alice] > 0).all(axis=1)
    size = _index_cells(m * math.log2(q.size))
    with np.errstate(divide="ignore"):
        log_level = np.log2(level)
        # Alice's index over N, E / (lam N): her 0-based index is floor(index * N)
        index = position / (-size * np.log1p(-1.0 / size))
    # the first round t whose acceptance 2^((c-2) t) Q(v) passes her level times P(v)
    accept = np.maximum(np.floor((log_level + log_ratio) / (c - 2)) + 1.0, 1.0)
    # the first round whose horizon N 2^(t-1) reaches past her index
    horizon = np.floor(np.log2(np.maximum(index, 0.5))) + 2.0
    entry = np.where(enters, np.maximum(accept, horizon), 0.0).astype(np.int64)
    ev_row, ev_entry, ev_last, ev_value = _false_matches(mu, xs, q, m, s, c, index, last_round,
                                                         rng)
    term = _termination_rounds(entry, ev_row, ev_entry, ev_last)
    terminated = (term > 0) & (term <= last_round)
    payload = np.where(terminated, payload_bits(s, term, c), limit)
    bob = alice.copy()
    # a false match in Bob's set at the termination round is the one candidate there
    lone = terminated[ev_row] & (ev_entry <= term[ev_row]) & (term[ev_row] <= ev_last)
    bob[ev_row[lone]] = ev_value[lone]
    unended = np.flatnonzero(~terminated)
    if len(unended):
        bob[unended] = q.sample(rng, (len(unended), m))
    success = terminated & (bob == alice).all(axis=1)
    return alice, bob, payload, success


def correlated_rows(p: Distribution, q: Distribution, eps: float, runs: int,
                    rng: np.random.Generator, max_candidates: int = DEFAULT_MAX_CANDIDATES):
    """runs interactive runs as m = 1 one_way_rows rows, every draw from rng.

    Returns (a, b, bits_alice, rounds, success) arrays, one entry per run;
    p is the conditional of a one-point x side, whose I(X;Y) = 0 gives c =
    FRESH_BITS_PER_ROUND fresh bits a round.  Round t looks at the first
    p.size 2^(t-1) candidates, so a run stops after the last round whose
    horizon fits in max_candidates and pays payload_bits for them.
    """
    if p.size != q.size:
        raise ValueError("distributions live on different universes")
    if not ((p.probs > 0) & (q.probs > 0)).any():
        raise ValueError("supports do not overlap")
    if max_candidates < p.size:
        raise ValueError("max_candidates must cover the first round's p.size candidates")
    if runs < 1:
        raise ValueError("need at least one run")
    s, c = hash_bits_per_round(eps), FRESH_BITS_PER_ROUND
    limit = payload_bits(s, (max_candidates // p.size).bit_length(), c)
    alice, bob, payload, success = one_way_rows(ProductJoint(Distribution([1.0]), p),
                                                np.zeros(runs, np.int64), q, 1, s, c, limit, rng)
    return alice[:, 0], bob[:, 0], payload, rounds_within(s, payload, c), success


def correlated_sample(p: Distribution, q: Distribution, eps: float, shared: SharedRandomness,
                      max_candidates: int = DEFAULT_MAX_CANDIDATES):
    """Interactive correlated sampling; returns (a, b, stats).

    The one-run case of correlated_rows on shared's output stream, plus
    Bob's reply bit each round.  Alice's a is exactly p-distributed; she pays
    s = hash_bits_per_round(eps) bits in round 1 and FRESH_BITS_PER_ROUND a
    round after it.  stats.success reports that Bob's set held exactly one
    candidate within the max_candidates cap and that its value b equals a; a
    run that never gets there is reported, and Bob falls back to a draw from q.
    """
    a, b, bits, rounds, success = correlated_rows(p, q, eps, 1, shared.stream(_TAG_OUTPUT),
                                                  max_candidates)
    stats = TranscriptStats(bits_alice=int(bits[0]), bits_bob=int(rounds[0]),
                            rounds=int(rounds[0]), success=bool(success[0]))
    return int(a[0]), int(b[0]), stats


def truncation_limit(mu: JointDistribution, m: int, eps: float,
                     info: float | None = None) -> int:
    """Hard cap, in bits, on the one-way sampling payload; info is mu's I(X;Y) if already read."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if m < 0:
        raise ValueError("m must be nonnegative")
    if info is None:
        info = mu.mutual_information()
    return math.ceil(TRUNCATION_C1 * (m * info / eps + math.log2(1.0 / eps) / eps))


def one_way_block(mu: JointDistribution, xs, m: int, eps: float, rng: np.random.Generator):
    """one_way_rows once per x in xs at failure budget eps, every draw from rng.

    Bob's Q is mu's y-marginal, s = hash_bits_per_round(eps / 2), and the
    cap truncation_limit(mu, m, eps) and c = fresh_bits_per_round(m, I) both
    come from one read of I = I(X;Y).
    """
    xs = _as_indices(xs, mu.size_x, "x")
    if m < 1:
        raise ValueError(f"need m >= 1 samples, got {m}")
    # after the cheap checks: I(X;Y) can build mu's whole table
    info = mu.mutual_information()
    limit = truncation_limit(mu, m, eps, info)
    return one_way_rows(mu, xs, mu.marginal_y(), m, hash_bits_per_round(eps / 2.0),
                        fresh_bits_per_round(m, info), limit, rng)


def one_way_correlated_sample(mu: JointDistribution, x: int, m: int, eps: float,
                              shared: SharedRandomness):
    """Sample m points from mu's conditional given x with one message from Alice.

    Alice holds the conditional and Bob the public marginal, so Alice
    simulates Bob's side and ships the hash bits it would consume, capped at
    truncation_limit bits.  Returns (alice, bob, stats): the one-row case of
    one_way_block, Alice's and Bob's lists of m y indices.  stats.success
    says whether the lists agree as ordered tuples; a failure is not hidden.
    """
    alice, bob, bits, ok = one_way_block(mu, [x], m, eps, shared.stream(_TAG_OUTPUT))
    return alice[0], bob[0], TranscriptStats(bits_alice=int(bits[0]), bits_bob=0, rounds=1,
                                             success=bool(ok[0]))
