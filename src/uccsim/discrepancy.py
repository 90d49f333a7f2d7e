"""Spectral discrepancy machinery for lower-bounding communication cost.

The signed mass matrix of the masked-parity game under noisy-hypercube
inputs factors into an n-fold tensor power of a single 4x4 coordinate
block.  Its spectral norm therefore controls the discrepancy of every
rectangle, which in turn lower-bounds distributional communication.
"""

from __future__ import annotations

import math

import numpy as np

from .distributions import popcount_table

# tensor_power refuses to build anything wider than this.
MAX_TENSOR_DIM = 4096


def coordinate_block(a: float) -> np.ndarray:
    """The 4x4 per-coordinate block; index 2*mask_bit + input_bit, a in (0, 1)."""
    if not 0.0 < a < 1.0:
        raise ValueError("a must lie in (0, 1)")
    a2 = a * a
    return np.array([
        [1.0, a, a, -a2],
        [a, 1.0, -a2, a],
        [a, a2, 1.0, -a],
        [a2, a, -a, 1.0],
    ])


def block_eigenvalues(a: float) -> tuple[float, float]:
    """Closed-form eigenvalues of block^T block, each with multiplicity two."""
    if not 0.0 < a < 1.0:
        raise ValueError("a must lie in (0, 1)")
    root = 2.0 * a * math.sqrt(2.0 * (a ** 4 + 1.0))
    base = 2.0 * a * a + a ** 4 + 1.0
    return base + root, base - root


def block_eigenvectors(a: float) -> np.ndarray:
    """Closed-form eigenvectors of block^T block as rows, two per eigenvalue."""
    if not 0.0 < a < 1.0:
        raise ValueError("a must lie in (0, 1)")
    r = math.sqrt(2.0 * (a ** 4 + 1.0))
    s = a * a + 1.0
    d = 1.0 - a * a
    return np.array([
        [r / d, s / d, 1.0, 0.0],
        [s / d, r / d, 0.0, 1.0],
        [-r / d, s / d, 1.0, 0.0],
        [s / d, -r / d, 0.0, 1.0],
    ])


def block_norm_bound(a: float) -> float:
    """Closed-form upper bound 1 + sqrt(2)a + a^2 + a^4/2 + a^5/sqrt(2) on the block norm."""
    if not 0.0 < a < 1.0:
        raise ValueError("a must lie in (0, 1)")
    return 1.0 + math.sqrt(2.0) * a + a * a + a ** 4 / 2.0 + a ** 5 / math.sqrt(2.0)


def spectral_norm(matrix) -> float:
    """Largest singular value of a square matrix with finite entries."""
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return float(np.linalg.norm(a, 2))


def tensor_power(matrix, t: int) -> np.ndarray:
    """t-fold Kronecker power, refused once the result would exceed MAX_TENSOR_DIM."""
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("matrix must be 2-D")
    if t < 1:
        raise ValueError("power must be >= 1")
    if max(a.shape) ** t > MAX_TENSOR_DIM:
        raise ValueError(f"tensor power dimension exceeds {MAX_TENSOR_DIM}")
    out = a
    for _ in range(t - 1):
        out = np.kron(out, a)
    return out


def _decode_mask_input(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Split indices sum_j (2*mask_j + input_j) * 4^j into mask and input parts."""
    r = np.arange(4 ** n)
    mask = np.zeros_like(r)
    inp = np.zeros_like(r)
    for j in range(n):
        digit = (r >> (2 * j)) & 3
        mask |= (digit >> 1) << j
        inp |= (digit & 1) << j
    return mask, inp


def signed_mass_matrix(n: int, p: float) -> np.ndarray:
    """Game values signed into the joint input masses, as a 4^n x 4^n matrix.

    Entry ((S,x),(T,y)) is mass(S,x,T,y) * (-1)^(game value); the mask pair
    is drawn uniform-times-maximally-noisy so the mass closed form is
    4^-n * (1-p)^(2n) * a^(|S xor T| + |x xor y|) with a = p/(1-p).
    """
    if not 1 <= n <= 5:
        raise ValueError("n must be in 1..5")
    if not 0.0 < p < 0.5:
        raise ValueError("p must lie in (0, 1/2)")
    a = p / (1.0 - p)
    pc = popcount_table(n)
    masks, inputs = _decode_mask_input(n)
    mask_dist = pc[masks[:, None] ^ masks[None, :]].astype(np.int64)
    input_xor = inputs[:, None] ^ inputs[None, :]
    input_dist = pc[input_xor].astype(np.int64)
    sign = 1.0 - 2.0 * (pc[masks[None, :] & input_xor] & 1)
    scale = (1.0 - p) ** (2 * n) / 4.0 ** n
    return scale * sign * a ** (mask_dist + input_dist)


def discrepancy_exact(n: int, p: float) -> float:
    """Exact discrepancy of the n=1 signed mass matrix by rectangle enumeration.

    For each row subset the best column subset takes all positive (or all
    negative) column sums, so only the 2^4 row subsets need enumerating.
    """
    if n != 1:
        raise ValueError("exact enumeration only implemented for n = 1")
    m = signed_mass_matrix(1, p)
    best = 0.0
    for rows in range(16):
        picked = [r for r in range(4) if rows >> r & 1]
        if not picked:
            continue
        v = m[picked].sum(axis=0)
        best = max(best, v[v > 0].sum(), -v[v < 0].sum())
    return float(best)


def discrepancy_spectral_bound(n: int, p: float) -> float:
    """Spectral upper bound (1-p)^(2n) * ||block||^n on the game's discrepancy."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 < p < 0.5:
        raise ValueError("p must lie in (0, 1/2)")
    return (1.0 - p) ** (2 * n) * spectral_norm(coordinate_block(p / (1.0 - p))) ** n


def cc_lower_bound(disc: float, eps: float) -> float:
    """Bits forced on any protocol with advantage eps given discrepancy disc."""
    if disc <= 0.0:
        raise ValueError("discrepancy must be positive")
    if not 0.0 < eps <= 0.5:
        raise ValueError("eps must lie in (0, 1/2]")
    return max(0.0, math.log2(2.0 * eps / disc))
