"""Core types for two-party boolean functions over finite rectangles.

Inputs live on an integer rectangle [0, size_x) x [0, size_y).  Hypercube
domains {0,1}^n are handled through BitString, which maps a length-n bit
vector to its integer encoding (bit 1 is the least significant).  All
distances are weighted by a joint input distribution.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

# Dense truth tables are capped at 2^14 per side.
MAX_SIDE = 1 << 14
# distance() compares rows about this many cells at a time
DISTANCE_ROW_CELLS = 1 << 20
# and reads masses this many points at a time, so that its temporaries stay in cache
DISTANCE_BLOCK = 1 << 14


@dataclass(frozen=True)
class BitString:
    """An n-bit vector stored as an integer; bit i (1-based) has weight 2**(i-1)."""

    value: int
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("length must be nonnegative")
        if not 0 <= self.value < (1 << self.n):
            raise ValueError(f"value {self.value} out of range for {self.n} bits")

    def __str__(self) -> str:
        return "".join(str((self.value >> i) & 1) for i in range(self.n - 1, -1, -1))


def _as_bits(values, what: str) -> np.ndarray:
    """values as a uint8 array, or ValueError unless every entry is 0 or 1."""
    try:
        values = np.asarray(values, dtype=np.uint8)
    except OverflowError:
        raise ValueError(f"{what} entries must be 0/1") from None
    if values.max(initial=0) > 1:
        raise ValueError(f"{what} entries must be 0/1")
    return values


def _as_index(x, size: int, side: str) -> int:
    """Accept an integer (numpy's too) or a BitString and return a checked index.

    A float, string or other non-integer raises TypeError, not truncation.
    """
    if isinstance(x, BitString):
        if (1 << x.n) != size:
            raise ValueError(f"{side} bitstring length {x.n} does not match domain size {size}")
        x = x.value
    x = operator.index(x)
    if not 0 <= x < size:
        raise IndexError(f"{side} index {x} out of range [0, {size})")
    return x


def _as_indices(values, size: int, side: str) -> np.ndarray:
    """values as an index array, or IndexError unless every entry lies in [0, size)."""
    values = np.asarray(values)
    if values.min(initial=0) < 0 or values.max(initial=0) >= size:
        raise IndexError(f"{side} index out of range [0, {size})")
    return values


class BoolFunction:
    """A total 0/1-valued function on [0, size_x) x [0, size_y).

    Subclasses implement values(xs, ys), the uint8 values at index arrays
    that broadcast together.  rows(xs), the fresh len(xs) x size_y rows at
    x's in any order, repeats allowed, reads through it unless a subclass
    has a cheaper read.  Both raise IndexError for an index off the rectangle.
    """

    size_x: int
    size_y: int

    def values(self, xs, ys) -> np.ndarray:
        raise NotImplementedError

    def rows(self, xs: np.ndarray) -> np.ndarray:
        return self.values(np.asarray(xs)[:, None], np.arange(self.size_y))

    def __call__(self, x, y) -> int:
        return int(self.values(_as_index(x, self.size_x, "x"), _as_index(y, self.size_y, "y")))

    def to_table(self) -> np.ndarray:
        return self.rows(np.arange(self.size_x))


class TableFunction(BoolFunction):
    """A boolean function backed by a dense uint8 truth table."""

    def __init__(self, table):
        table = _as_bits(table, "table")
        if table.ndim != 2:
            raise ValueError("table must be 2-D")
        if table.shape[0] > MAX_SIDE or table.shape[1] > MAX_SIDE:
            raise ValueError(f"table sides capped at {MAX_SIDE}")
        self.table = table
        self.size_x, self.size_y = table.shape

    def rows(self, xs: np.ndarray) -> np.ndarray:
        return self.table[_as_indices(xs, self.size_x, "x")]

    def values(self, xs, ys) -> np.ndarray:
        return self.table[_as_indices(xs, self.size_x, "x"), _as_indices(ys, self.size_y, "y")]

    @classmethod
    def constant(cls, size_x: int, size_y: int, bit: int) -> "TableFunction":
        return cls(np.full((size_x, size_y), bit, dtype=np.uint8))


class OneWayProtocol(BoolFunction):
    """A single-message protocol: Alice sends a part index, Bob decides from it.

    assignment maps each x to one of message_count parts (0-based); deciders
    holds one 0/1 row per part.  Communication cost is ceil(log2(parts)) bits.
    As a function, its value at (x, y) is Bob's decision.
    """

    def __init__(self, assignment, deciders):
        assignment = np.asarray(assignment, dtype=np.int64)
        deciders = _as_bits(deciders, "decider")
        if assignment.ndim != 1 or deciders.ndim != 2:
            raise ValueError("assignment must be 1-D and deciders 2-D")
        if deciders.shape[0] < 1:
            raise ValueError("need at least one decider")
        if assignment.min(initial=0) < 0 or assignment.max(initial=0) >= deciders.shape[0]:
            raise ValueError("assignment targets an unknown decider")
        self.assignment = assignment
        self.deciders = deciders
        self.message_count = deciders.shape[0]
        self.size_x = assignment.shape[0]
        self.size_y = deciders.shape[1]

    def rows(self, xs: np.ndarray) -> np.ndarray:
        return self.deciders[self.assignment[_as_indices(xs, self.size_x, "x")]]

    def values(self, xs, ys) -> np.ndarray:
        return self.deciders[self.assignment[_as_indices(xs, self.size_x, "x")],
                             _as_indices(ys, self.size_y, "y")]

    def message(self, x) -> int:
        return int(self.assignment[_as_index(x, self.size_x, "x")])

    def evaluate(self, x, y) -> int:
        return self(x, y)

    def cost_bits(self) -> int:
        return math.ceil(math.log2(self.message_count)) if self.message_count > 1 else 0


class FlippedFunction(BoolFunction):
    """base with its value flipped at points, sorted flat indices x * size_y + y.

    Row x's points are points[_starts[x]:_starts[x + 1]], offsets found once,
    so a row read finds every row's flips in a fixed number of array calls.
    """

    def __init__(self, base: BoolFunction, points):
        points = np.asarray(points, dtype=np.int64)
        if points.ndim != 1:
            raise ValueError("points must be 1-D")
        if len(points) and (points[0] < 0 or points[-1] >= base.size_x * base.size_y
                            or (points[1:] <= points[:-1]).any()):
            raise ValueError("points must be strictly increasing flat indices of the rectangle")
        self.base = base
        self.points = points
        self.size_x, self.size_y = base.size_x, base.size_y
        self._starts = np.searchsorted(points, np.arange(self.size_x + 1) * self.size_y)

    def rows(self, xs: np.ndarray) -> np.ndarray:
        out = self.base.rows(xs)
        if not len(self.points):
            return out
        # contiguous, so the flat view below writes through to out
        out = np.ascontiguousarray(out)
        xs = np.asarray(xs)
        lo = self._starts[xs]
        counts = self._starts[xs + 1] - lo
        # the flips of output row i are points[lo[i]:lo[i] + counts[i]], listed row by row;
        # point x * size_y + y of row i lands at i * size_y + y of out
        ids = np.arange(len(xs))
        row = np.repeat(ids, counts)
        at = np.arange(len(row)) + (lo + counts - np.cumsum(counts))[row]
        out.reshape(-1)[self.points[at] + ((ids - xs) * self.size_y)[row]] ^= 1
        return out

    def values(self, xs, ys) -> np.ndarray:
        out = self.base.values(xs, ys)
        if len(self.points):
            flat = np.multiply(xs, self.size_y) + ys
            # an index past the last point clips to it, which flat then exceeds
            out = out ^ (self.points.take(np.searchsorted(self.points, flat), mode="clip") == flat)
        return out


def _check_same_rectangle(f, g, mu) -> None:
    if (f.size_x, f.size_y) != (g.size_x, g.size_y):
        raise ValueError("functions live on different rectangles")
    if (mu.size_x, mu.size_y) != (f.size_x, f.size_y):
        raise ValueError("distribution rectangle does not match the functions")


def _disagreements(f: BoolFunction, g: BoolFunction):
    """Flat indices x * size_y + y where f and g differ, in increasing order.

    When one is a FlippedFunction of the other they differ exactly at its
    points, so no row is read; every other pair is compared row block by row
    block, about DISTANCE_ROW_CELLS cells at a time.
    """
    if isinstance(g, FlippedFunction) and g.base is f:
        f, g = g, f
    if isinstance(f, FlippedFunction) and f.base is g:
        yield f.points
        return
    block = max(1, DISTANCE_ROW_CELLS // f.size_y)
    for lo in range(0, f.size_x, block):
        xs = np.arange(lo, min(lo + block, f.size_x))
        yield lo * f.size_y + np.flatnonzero(f.rows(xs) != g.rows(xs))


def distance(f: BoolFunction, g: BoolFunction, mu) -> float:
    """Mass, under mu, of the inputs where f and g disagree: DISTANCE_BLOCK points a read."""
    _check_same_rectangle(f, g, mu)
    total = 0.0
    for flat in _disagreements(f, g):
        for lo in range(0, len(flat), DISTANCE_BLOCK):
            total += float(mu.flat_masses(flat[lo:lo + DISTANCE_BLOCK]).sum())
    return total


def protocol_error(protocol: OneWayProtocol, g: BoolFunction, mu) -> float:
    """Distance between the function a protocol computes and a target g."""
    return distance(protocol, g, mu)
