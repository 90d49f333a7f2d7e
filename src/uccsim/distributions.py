"""Finite distributions over inputs: dense joints, products, and the noisy hypercube.

Everything is seedable and reproducible: randomness flows through
numpy Generators, and derive_rng builds independent streams from a master
seed plus integer tags so that parallel work stays deterministic.
"""

from __future__ import annotations

import math

import numpy as np

from .core import MAX_SIDE, BitString, _as_index, _as_indices

# NoisyHypercube only materializes a dense joint table up to this many bits.
MATERIALIZE_MAX_N = 7

_MASS_TOL = 1e-9


def derive_rng(master_seed: int, *tags: int) -> np.random.Generator:
    """An independent, reproducible stream for (master_seed, tags).

    The tags are the seed sequence's spawn key, so tag tuples that differ
    only in trailing zeros, the empty one included, give different streams.
    """
    return np.random.default_rng(np.random.SeedSequence(int(master_seed),
                                                        spawn_key=tuple(map(int, tags))))


def _check_bit_count(n: int) -> None:
    """ValueError unless n >= 1 and a side of 2^n points is within MAX_SIDE."""
    top = MAX_SIDE.bit_length() - 1
    if not 1 <= n <= top:
        raise ValueError(f"n = {n} is outside 1..{top}: sides are capped at MAX_SIDE = 2^{top}")


def _alias_table(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Walker's alias table (ACM TOMS 1977): column i keeps share own[i], alias[i] takes the rest.

    With s = size * probs, light cells (s < 1) are topped up by heavy ones
    (the rest, always with the heaviest).  Laying the light deficits 1 - s
    and the heavy surpluses s - 1 end to end in index order, a light cell
    goes to the heavy one whose surplus holds its deficit's start; a heavy
    cell whose surplus ends inside a deficit pays the rest from its own
    column, which the next heavy cell tops up.
    """
    own = probs * len(probs)
    light = own < 1.0
    light[own.argmax()] = False
    small, heavy = np.flatnonzero(light), np.flatnonzero(~light)
    deficit = np.concatenate(([0.0], np.cumsum(1.0 - own[small])))
    surplus = np.cumsum(own[heavy] - 1.0)
    alias = np.arange(len(probs))
    alias[small] = heavy[np.searchsorted(surplus[:-1], deficit[:-1], side="right")]
    alias[heavy[:-1]] = heavy[1:]
    own[heavy] = 1.0 - np.maximum(deficit[np.searchsorted(deficit[:-1], surplus)] - surplus, 0.0)
    return own, alias


def _log2_floored(masses) -> np.ndarray:
    """log2 of masses, each floored at the smallest normal float so that every log is finite."""
    return np.log2(np.maximum(masses, np.finfo(np.float64).tiny))


def popcount_table(n: int) -> np.ndarray:
    """Bit counts of 0..2^n-1 as a uint8 array."""
    table = np.zeros(1 << n, dtype=np.uint8)
    for j in range(n):
        table[1 << j: 1 << (j + 1)] = table[: 1 << j] + 1
    return table


class Distribution:
    """A probability vector over {0, ..., size-1}."""

    def __init__(self, probs):
        probs = np.asarray(probs, dtype=np.float64)
        if probs.ndim != 1:
            raise ValueError("probability vector must be 1-D")
        if (probs < 0).any():
            raise ValueError("negative probability")
        if abs(probs.sum() - 1.0) > _MASS_TOL:
            raise ValueError(f"probabilities sum to {probs.sum()}, not 1")
        self.probs = probs / probs.sum()
        self.size = len(probs)
        self._alias = None

    def sample(self, rng: np.random.Generator, size=None):
        """i.i.d. draws in numpy's size convention, O(1) each by an alias table built once."""
        if self._alias is None:
            self._alias = _alias_table(self.probs)
        u = np.asarray(rng.random(size)) * self.size
        cell = u.astype(np.int64)
        index = np.where(u - cell < self._alias[0][cell], cell, self._alias[1][cell])
        return int(index) if size is None else index

    @classmethod
    def uniform(cls, size: int) -> "Distribution":
        return cls(np.full(size, 1.0 / size))

    @classmethod
    def point_mass(cls, size: int, at: int) -> "Distribution":
        probs = np.zeros(size)
        probs[_as_index(at, size, "point")] = 1.0
        return cls(probs)


def kl_divergence(p: Distribution, q: Distribution) -> float:
    """D(P || Q) in bits; raises if P puts mass outside Q's support."""
    if p.size != q.size:
        raise ValueError("distributions live on different universes")
    support = p.probs > 0
    if (q.probs[support] <= 0).any():
        raise ValueError("P is not absolutely continuous with respect to Q")
    return float(np.sum(p.probs[support] * np.log2(p.probs[support] / q.probs[support])))


class JointDistribution:
    """A joint distribution over [0, size_x) x [0, size_y).

    Subclasses implement mass_array, the marginals and sample; the
    conditionals, sample lists, flat reads and dense table read through
    mass_array unless a subclass has a cheaper read.
    """

    size_x: int
    size_y: int

    def mass_array(self, xs, ys) -> np.ndarray:
        """Joint masses of aligned index arrays; IndexError for an index off the rectangle."""
        raise NotImplementedError

    def flat_masses(self, flat) -> np.ndarray:
        """Joint masses at flat indices x * size_y + y; IndexError off [0, size_x * size_y)."""
        flat = _as_indices(flat, self.size_x * self.size_y, "flat")
        xs = flat // self.size_y
        return self.mass_array(xs, flat - xs * self.size_y)

    def marginal_x(self) -> Distribution:
        raise NotImplementedError

    def marginal_y(self) -> Distribution:
        raise NotImplementedError

    def conditional_y_given_x(self, x: int) -> Distribution:
        return Distribution(self.conditional_rows([_as_index(x, self.size_x, "x")])[0])

    def conditional_rows(self, xs) -> np.ndarray:
        """The conditionals of y given each x in xs, one row per x, from one mass_array call."""
        rows = self.mass_array(np.asarray(xs)[:, None], np.arange(self.size_y))
        total = rows.sum(axis=1, keepdims=True)
        if (total <= 0).any():
            raise ValueError("conditional undefined: an x has zero mass")
        return rows / total

    def log2_conditional(self, xs, ys) -> np.ndarray:
        """Floored log2 mu(y | x) at broadcasting index arrays; ValueError at an x of mass 0."""
        mass, px = self.mass_array(xs, ys), self.marginal_x().probs[xs]
        if (px <= 0).any():
            raise ValueError("conditional undefined: an x has zero mass")
        return _log2_floored(mass / px)

    def sample_lists(self, xs, m: int, rng: np.random.Generator) -> np.ndarray:
        """m i.i.d. draws of y from mu(. | x) per x in xs, a len(xs) x m array.

        The rows of each distinct x, in increasing order of x, come from one
        sample call of its conditional.
        """
        xs = _as_indices(xs, self.size_x, "x")
        lists = np.empty((len(xs), m), np.int64)
        for x in np.unique(xs):
            rows = xs == x
            lists[rows] = self.conditional_y_given_x(x).sample(rng, (rows.sum(), m))
        return lists

    def sample(self, rng: np.random.Generator, size=None):
        """One (x, y) pair of ints, or with numpy's size convention two arrays of that shape."""
        raise NotImplementedError

    def mutual_information(self) -> float:
        """I(X;Y) in bits, the divergence of the joint from the product of marginals."""
        table = self.to_table()
        outer = np.outer(self.marginal_x().probs, self.marginal_y().probs)
        pos = table > 0
        return max(float(np.sum(table[pos] * np.log2(table[pos] / outer[pos]))), 0.0)

    def to_table(self) -> np.ndarray:
        return self.mass_array(np.arange(self.size_x)[:, None], np.arange(self.size_y))


class TableJoint(JointDistribution):
    """A joint distribution backed by a dense mass matrix."""

    def __init__(self, table):
        table = np.asarray(table, dtype=np.float64)
        if table.ndim != 2:
            raise ValueError("mass table must be 2-D")
        if (table < 0).any():
            raise ValueError("negative mass")
        if abs(table.sum() - 1.0) > _MASS_TOL:
            raise ValueError(f"masses sum to {table.sum()}, not 1")
        self.table = table / table.sum()
        self.size_x, self.size_y = table.shape
        self._flat = None

    def mass_array(self, xs, ys) -> np.ndarray:
        return self.table[_as_indices(xs, self.size_x, "x"), _as_indices(ys, self.size_y, "y")]

    def marginal_x(self) -> Distribution:
        return Distribution(self.table.sum(axis=1))

    def marginal_y(self) -> Distribution:
        return Distribution(self.table.sum(axis=0))

    def sample(self, rng: np.random.Generator, size=None):
        """(x, y) by divmod of a flat cell x * size_y + y, drawn from the whole table's law."""
        if self._flat is None:
            self._flat = Distribution(self.table.reshape(-1))
        return divmod(self._flat.sample(rng, size), self.size_y)


class ProductJoint(JointDistribution):
    """Independent coordinates: mass(x, y) = px(x) * py(y)."""

    def __init__(self, px: Distribution, py: Distribution):
        self.px = px
        self.py = py
        self.size_x = px.size
        self.size_y = py.size

    @classmethod
    def uniform_bits(cls, n: int) -> "ProductJoint":
        _check_bit_count(n)
        return cls(Distribution.uniform(1 << n), Distribution.uniform(1 << n))

    def mass_array(self, xs, ys) -> np.ndarray:
        return (self.px.probs[_as_indices(xs, self.size_x, "x")]
                * self.py.probs[_as_indices(ys, self.size_y, "y")])

    def marginal_x(self) -> Distribution:
        return self.px

    def marginal_y(self) -> Distribution:
        return self.py

    def sample(self, rng: np.random.Generator, size=None):
        return self.px.sample(rng, size), self.py.sample(rng, size)

    def sample_lists(self, xs, m: int, rng: np.random.Generator) -> np.ndarray:
        return self.py.sample(rng, (len(_as_indices(xs, self.size_x, "x")), m))

    def mutual_information(self) -> float:
        return 0.0


class NoisyHypercube(JointDistribution):
    """x uniform on {0,1}^n and y a p-noisy copy: each bit of x flips independently.

    Kept implicit: masses come from the closed form
    2^-n * p^d * (1-p)^(n-d) with d the Hamming distance, so n well beyond
    dense-table range stays usable.
    """

    def __init__(self, n: int, p: float):
        _check_bit_count(n)
        if not 0.0 <= p <= 1.0:
            raise ValueError("flip probability must lie in [0, 1]")
        self.n = n
        self.p = p
        self.size_x = self.size_y = 1 << n
        self._pc = popcount_table(n)
        d = np.arange(n + 1, dtype=np.float64)
        self._cond_by_distance = (p ** d) * ((1.0 - p) ** (n - d))
        # the mass of (x, x ^ z) by flip pattern z, one lookup a point
        self._mass_by_flips = self._cond_by_distance[self._pc] / self.size_x
        # x is uniform, and flipping uniform bits leaves y uniform too.
        self._uniform = Distribution.uniform(self.size_x)
        # y = x ^ z, with one law of the flip pattern z for every x
        self._flips = Distribution(self._cond_by_distance[self._pc])
        self._log2_by_distance = _log2_floored(self._cond_by_distance)

    def mass_array(self, xs, ys) -> np.ndarray:
        return self._mass_by_flips.take(_as_indices(xs, self.size_x, "x")
                                        ^ _as_indices(ys, self.size_y, "y"))

    def flat_masses(self, flat) -> np.ndarray:
        """x = flat >> n and y = the low n bits differ by ((flat >> n) ^ flat) & (2^n - 1)."""
        flat = _as_indices(flat, self.size_x * self.size_y, "flat")
        flips = flat >> self.n
        flips ^= flat
        flips &= self.size_y - 1
        return self._mass_by_flips.take(flips)

    def marginal_x(self) -> Distribution:
        return self._uniform

    def marginal_y(self) -> Distribution:
        return self._uniform

    def sample(self, rng: np.random.Generator, size=None):
        """x, then y = x ^ z for a flip pattern z drawn from its law."""
        x = rng.integers(self.size_x, size=size)
        y = x ^ self._flips.sample(rng, size)
        return (int(x), int(y)) if size is None else (x, y)

    def sample_lists(self, xs, m: int, rng: np.random.Generator) -> np.ndarray:
        return _as_indices(xs, self.size_x, "x")[:, None] ^ self._flips.sample(rng, (len(xs), m))

    def log2_conditional(self, xs, ys) -> np.ndarray:
        d = self._pc[_as_indices(xs, self.size_x, "x") ^ _as_indices(ys, self.size_y, "y")]
        return self._log2_by_distance[d]

    def mutual_information(self) -> float:
        return self.n * (1.0 - binary_entropy(self.p))

    def to_table(self) -> np.ndarray:
        if self.n > MATERIALIZE_MAX_N:
            raise ValueError(f"dense table only materialized for n <= {MATERIALIZE_MAX_N}")
        return super().to_table()


def binary_entropy(x: float) -> float:
    """h(x) in bits, with h(0) = h(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("argument must lie in [0, 1]")
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def uniform_bits(n: int, rng: np.random.Generator) -> int:
    """A uniform n-bit integer drawn in 62-bit chunks from the low end.

    For n <= 62 this is the single draw rng.integers(1 << n).
    """
    value = 0
    for start in range(0, n, 62):
        value |= int(rng.integers(1 << min(62, n - start))) << start
    return value


def flip_mask(n: int, p: float, rng: np.random.Generator) -> int:
    """An n-bit integer whose bits are set independently with probability p."""
    flips = rng.random(n) < p
    return int.from_bytes(np.packbits(flips, bitorder="little").tobytes(), "little")


def sample_noisy_copy(x: BitString, p: float, rng: np.random.Generator) -> BitString:
    """Flip each bit of x independently with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("flip probability must lie in [0, 1]")
    return BitString(x.value ^ flip_mask(x.n, p, rng), x.n)
