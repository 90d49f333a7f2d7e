"""Masked parities of XORed inputs: the canonical cheap-to-communicate family.

A mask S picks coordinates; the function value is the parity of x xor y on
those coordinates.  Pairs of nearby masks give pairs of functions that are
close under the noisy-hypercube input distribution, which makes this family
the standard stress test for protocols that only know the target function
approximately.
"""

from __future__ import annotations

import numpy as np

from .core import BitString, BoolFunction, OneWayProtocol, _as_indices
from .distributions import popcount_table, sample_noisy_copy, uniform_bits


def _mask_value(mask, n: int) -> int:
    if isinstance(mask, BitString):
        if mask.n != n:
            raise ValueError("mask length does not match n")
        return mask.value
    mask = int(mask)
    if not 0 <= mask < (1 << n):
        raise ValueError("mask out of range")
    return mask


class ParityFunction(BoolFunction):
    """f(x, y) = parity of (x xor y) restricted to the mask's coordinates."""

    def __init__(self, mask, n: int):
        self.n = n
        self.mask = _mask_value(mask, n)
        self.size_x = self.size_y = 1 << n
        self._pc = popcount_table(n)

    def values(self, xs, ys) -> np.ndarray:
        xs, ys = _as_indices(xs, self.size_x, "x"), _as_indices(ys, self.size_y, "y")
        return self._pc[np.bitwise_xor(xs, ys) & self.mask] & 1


def parity_eval(mask: BitString, x: BitString, y: BitString) -> int:
    """Parity of x xor y on the mask's coordinates."""
    if not mask.n == x.n == y.n:
        raise ValueError("mask and inputs must share a length")
    return (mask.value & (x.value ^ y.value)).bit_count() & 1


def parity_protocol(mask, n: int) -> OneWayProtocol:
    """The two-message protocol: Alice sends her masked parity, Bob adds his.

    Always uses two parts, so the cost is one bit even for the empty mask.
    """
    m = _mask_value(mask, n)
    size = 1 << n
    pc = popcount_table(n)
    parity = (pc[np.arange(size) & m] & 1).astype(np.uint8)
    return OneWayProtocol(parity, np.stack([parity, parity ^ 1]))


def parity_distance(mask_a, mask_b, p: float, n: int | None = None) -> float:
    """Exact disagreement mass of two masked parities under the p-noisy hypercube.

    Only the symmetric difference d of the masks matters: the value is
    (1 - (1-2p)^d) / 2, at most p*d.
    """
    if isinstance(mask_a, BitString) and isinstance(mask_b, BitString):
        if mask_a.n != mask_b.n:
            raise ValueError("masks must share a length")
        n = mask_a.n
    elif n is None:
        raise ValueError("n is required for integer masks")
    a = _mask_value(mask_a, n)
    b = _mask_value(mask_b, n)
    if not 0.0 <= p <= 1.0:
        raise ValueError("flip probability must lie in [0, 1]")
    d = (a ^ b).bit_count()
    return (1.0 - (1.0 - 2.0 * p) ** d) / 2.0


def sample_close_masks(n: int, q: float, rng: np.random.Generator) -> tuple[BitString, BitString]:
    """Draw a uniform mask and a (q/2)-noisy copy of it."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    s = BitString(uniform_bits(n, rng), n)
    t = sample_noisy_copy(s, q / 2.0, rng)
    return s, t


def sample_game_instance(n: int, p: float, q: float, rng: np.random.Generator):
    """Draw ((S, x), (T, y)): close masks, plus noisy-hypercube inputs."""
    s, t = sample_close_masks(n, q, rng)
    x = BitString(uniform_bits(n, rng), n)
    y = sample_noisy_copy(x, p, rng)
    return (s, x), (t, y)
