"""Finite distributions over inputs: dense joints, products, and the noisy hypercube.

Everything is seedable and reproducible: randomness flows through
numpy Generators, and derive_rng builds independent streams from a master
seed plus integer tags so that parallel work stays deterministic.
"""

from __future__ import annotations

import math

import numpy as np

from .core import BitString, _as_index, _as_indices

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
        self._cdf = None

    def sample(self, rng: np.random.Generator, size=None):
        """Exactly rng.choice(self.size, size=size, p=self.probs), with the cdf built once.

        The same normalised cumsum, the same rng.random(size) draw and the
        same side="right" lookup, without choice's per-call checks of probs.
        """
        if self._cdf is None:
            cdf = np.cumsum(self.probs)
            cdf /= cdf[-1]
            self._cdf = cdf
        index = self._cdf.searchsorted(rng.random(size), side="right")
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
    """A joint distribution over [0, size_x) x [0, size_y)."""

    size_x: int
    size_y: int

    def mass(self, x: int, y: int) -> float:
        return float(self.row_masses(x)[_as_index(y, self.size_y, "y")])

    def mass_array(self, xs, ys) -> np.ndarray:
        """Joint masses of aligned index arrays; IndexError for an index off the rectangle."""
        raise NotImplementedError

    def row_masses(self, x: int) -> np.ndarray:
        """Joint masses of (x, y) for all y, as a vector over y."""
        raise NotImplementedError

    def marginal_x(self) -> Distribution:
        raise NotImplementedError

    def marginal_y(self) -> Distribution:
        raise NotImplementedError

    def conditional_y_given_x(self, x: int) -> Distribution:
        row = self.row_masses(x)
        total = row.sum()
        if total <= 0:
            raise ValueError(f"conditional undefined: x={x} has zero mass")
        return Distribution(row / total)

    def conditional_rows(self, xs) -> np.ndarray:
        """The conditionals of y given each x in xs, one row per x, from one mass_array call."""
        rows = self.mass_array(np.asarray(xs)[:, None], np.arange(self.size_y))
        total = rows.sum(axis=1, keepdims=True)
        if (total <= 0).any():
            raise ValueError("conditional undefined: an x has zero mass")
        return rows / total

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
        return np.stack([self.row_masses(x) for x in range(self.size_x)])


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

    def row_masses(self, x: int) -> np.ndarray:
        return self.table[_as_index(x, self.size_x, "x")]

    def mass_array(self, xs, ys) -> np.ndarray:
        return self.table[_as_indices(xs, self.size_x, "x"), _as_indices(ys, self.size_y, "y")]

    def marginal_x(self) -> Distribution:
        return Distribution(self.table.sum(axis=1))

    def marginal_y(self) -> Distribution:
        return Distribution(self.table.sum(axis=0))

    def sample(self, rng: np.random.Generator, size=None):
        flat = rng.choice(self.table.size, size=size, p=self.table.reshape(-1))
        if size is None:
            return int(flat) // self.size_y, int(flat) % self.size_y
        return np.divmod(flat, self.size_y)

    def to_table(self) -> np.ndarray:
        return self.table


class ProductJoint(JointDistribution):
    """Independent coordinates: mass(x, y) = px(x) * py(y)."""

    def __init__(self, px: Distribution, py: Distribution):
        self.px = px
        self.py = py
        self.size_x = px.size
        self.size_y = py.size

    @classmethod
    def uniform_bits(cls, n: int) -> "ProductJoint":
        return cls(Distribution.uniform(1 << n), Distribution.uniform(1 << n))

    def row_masses(self, x: int) -> np.ndarray:
        return self.px.probs[_as_index(x, self.size_x, "x")] * self.py.probs

    def mass_array(self, xs, ys) -> np.ndarray:
        return (self.px.probs[_as_indices(xs, self.size_x, "x")]
                * self.py.probs[_as_indices(ys, self.size_y, "y")])

    def marginal_x(self) -> Distribution:
        return self.px

    def marginal_y(self) -> Distribution:
        return self.py

    def conditional_y_given_x(self, x: int) -> Distribution:
        if self.px.probs[_as_index(x, self.size_x, "x")] <= 0:
            raise ValueError(f"conditional undefined: x={x} has zero mass")
        return self.py

    def sample(self, rng: np.random.Generator, size=None):
        return self.px.sample(rng, size), self.py.sample(rng, size)

    def mutual_information(self) -> float:
        return 0.0


class NoisyHypercube(JointDistribution):
    """x uniform on {0,1}^n and y a p-noisy copy: each bit of x flips independently.

    Kept implicit: row masses and conditionals come from the closed form
    2^-n * p^d * (1-p)^(n-d) with d the Hamming distance, so n well beyond
    dense-table range stays usable.
    """

    def __init__(self, n: int, p: float):
        if not 1 <= n <= 14:
            raise ValueError("n must be in 1..14")
        if not 0.0 <= p <= 1.0:
            raise ValueError("flip probability must lie in [0, 1]")
        self.n = n
        self.p = p
        self.size_x = self.size_y = 1 << n
        self._pc = popcount_table(n)
        d = np.arange(n + 1, dtype=np.float64)
        self._cond_by_distance = (p ** d) * ((1.0 - p) ** (n - d))
        # x is uniform, and flipping uniform bits leaves y uniform too.
        self._uniform = Distribution.uniform(self.size_x)

    def mass(self, x: int, y: int) -> float:
        d = (_as_index(x, self.size_x, "x") ^ _as_index(y, self.size_y, "y")).bit_count()
        return float(self._cond_by_distance[d]) / self.size_x

    def row_masses(self, x: int) -> np.ndarray:
        d = self._pc[np.arange(self.size_y) ^ _as_index(x, self.size_x, "x")]
        return self._cond_by_distance[d] / self.size_x

    def mass_array(self, xs, ys) -> np.ndarray:
        d = self._pc[_as_indices(xs, self.size_x, "x") ^ _as_indices(ys, self.size_y, "y")]
        return self._cond_by_distance[d] / self.size_x

    def marginal_x(self) -> Distribution:
        return self._uniform

    def marginal_y(self) -> Distribution:
        return self._uniform

    def conditional_y_given_x(self, x: int) -> Distribution:
        d = self._pc[np.arange(self.size_y) ^ _as_index(x, self.size_x, "x")]
        return Distribution(self._cond_by_distance[d])

    def sample(self, rng: np.random.Generator, size=None):
        """x, then n flip bits per x drawn as flip_mask draws them."""
        x = rng.integers(self.size_x, size=size)
        flips = rng.random(np.shape(x) + (self.n,)) < self.p
        y = x ^ (flips @ (1 << np.arange(self.n)))
        return (int(x), int(y)) if size is None else (x, y)

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
