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
# distance() compares about this many entries at a time
DISTANCE_BLOCK = 1 << 20


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

    Subclasses implement row(x); __call__, rows and to_table derive from it,
    and subclasses that hold a table override rows with a block read.
    """

    size_x: int
    size_y: int

    def row(self, x: int) -> np.ndarray:
        raise NotImplementedError

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """The rows x in [lo, hi) stacked into one (hi - lo) x size_y array."""
        return np.stack([self.row(x) for x in range(lo, hi)])

    def __call__(self, x, y) -> int:
        xi = _as_index(x, self.size_x, "x")
        yi = _as_index(y, self.size_y, "y")
        return int(self.row(xi)[yi])

    def to_table(self) -> np.ndarray:
        return self.rows(0, self.size_x)


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

    def row(self, x: int) -> np.ndarray:
        return self.table[x]

    def rows(self, lo: int, hi: int) -> np.ndarray:
        return self.table[lo:hi]

    @classmethod
    def constant(cls, size_x: int, size_y: int, bit: int) -> "TableFunction":
        return cls(np.full((size_x, size_y), bit, dtype=np.uint8))


class OneWayProtocol:
    """A single-message protocol: Alice sends a part index, Bob decides from it.

    assignment maps each x to one of message_count parts (0-based); deciders
    holds one 0/1 row per part.  Communication cost is ceil(log2(parts)) bits.
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

    def message(self, x) -> int:
        return int(self.assignment[_as_index(x, self.size_x, "x")])

    def evaluate(self, x, y) -> int:
        yi = _as_index(y, self.size_y, "y")
        return int(self.deciders[self.message(x), yi])

    def cost_bits(self) -> int:
        return math.ceil(math.log2(self.message_count)) if self.message_count > 1 else 0

    def as_function(self) -> "ProtocolFunction":
        return ProtocolFunction(self)


class ProtocolFunction(BoolFunction):
    """The boolean function computed by a one-way protocol."""

    def __init__(self, protocol: OneWayProtocol):
        self.protocol = protocol
        self.size_x = protocol.size_x
        self.size_y = protocol.size_y

    def row(self, x: int) -> np.ndarray:
        return self.protocol.deciders[self.protocol.assignment[x]]

    def rows(self, lo: int, hi: int) -> np.ndarray:
        return self.protocol.deciders[self.protocol.assignment[lo:hi]]


def _check_same_rectangle(f, g, mu) -> None:
    if (f.size_x, f.size_y) != (g.size_x, g.size_y):
        raise ValueError("functions live on different rectangles")
    if (mu.size_x, mu.size_y) != (f.size_x, f.size_y):
        raise ValueError("distribution rectangle does not match the functions")


def distance(f: BoolFunction, g: BoolFunction, mu) -> float:
    """Mass, under mu, of the inputs where f and g disagree."""
    _check_same_rectangle(f, g, mu)
    block = max(1, DISTANCE_BLOCK // f.size_y)
    total = 0.0
    for lo in range(0, f.size_x, block):
        hi = min(lo + block, f.size_x)
        diff = f.rows(lo, hi) != g.rows(lo, hi)
        dx, dy = np.divmod(np.flatnonzero(diff), f.size_y)
        if len(dx):
            total += float(mu.mass_array(lo + dx, dy).sum())
    return total


def protocol_error(protocol: OneWayProtocol, g: BoolFunction, mu) -> float:
    """Distance between the function a protocol computes and a target g."""
    return distance(protocol.as_function(), g, mu)
