"""Tests for the signed-mass matrices, spectral norms, and discrepancy bounds."""

import math

import numpy as np
import pytest

from uccsim.discrepancy import (
    block_eigenvalues,
    block_eigenvectors,
    block_norm_bound,
    cc_lower_bound,
    coordinate_block,
    discrepancy_exact,
    discrepancy_spectral_bound,
    signed_mass_matrix,
    spectral_norm,
    tensor_power,
)

SQRT2 = math.sqrt(2.0)


def test_coordinate_block_entries():
    a = 0.5
    got = coordinate_block(a)
    expect = np.array([
        [1, a, a, -a * a],
        [a, 1, -a * a, a],
        [a, a * a, 1, -a],
        [a * a, a, -a, 1],
    ])
    assert np.allclose(got, expect, atol=0)
    assert got[0, 1] == a
    assert got[0, 3] == -a * a


def test_coordinate_block_small_a_near_identity():
    got = coordinate_block(1e-8)
    assert np.max(np.abs(got - np.eye(4))) <= 2e-8


def test_coordinate_block_validation():
    for a in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            coordinate_block(a)


def test_spectral_norm_diagonal_cases():
    assert spectral_norm(np.eye(6)) == pytest.approx(1.0, abs=1e-10)
    assert spectral_norm(np.diag([3.0, -5.0])) == pytest.approx(5.0, rel=1e-10)


def test_spectral_norm_against_gram_eigenvalues():
    rng = np.random.default_rng(81)
    for _ in range(10):
        a = rng.normal(size=(6, 6))
        expect = math.sqrt(np.linalg.eigvalsh(a.T @ a).max())
        assert spectral_norm(a) == pytest.approx(expect, rel=1e-9)


def test_spectral_norm_rejects_bad_input():
    with pytest.raises(ValueError):
        spectral_norm(np.ones((2, 3)))
    with pytest.raises(ValueError):
        spectral_norm(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_block_norm_matches_closed_form():
    for a in np.linspace(0.05, 0.95, 19):
        lam1, lam2 = block_eigenvalues(a)
        assert lam1 >= lam2 > 0
        assert spectral_norm(coordinate_block(a)) == pytest.approx(
            math.sqrt(lam1), abs=1e-12)


def test_block_norm_frozen_value():
    lam1, lam2 = block_eigenvalues(0.5)
    assert lam1 == pytest.approx(3.020237973711325, abs=1e-12)
    assert lam2 == pytest.approx(0.10476202628867481, abs=1e-12)
    assert math.sqrt(lam1) == pytest.approx(1.7378831875909626, abs=1e-12)
    assert spectral_norm(coordinate_block(0.5)) == pytest.approx(1.7378831875909626,
                                                                 abs=1e-12)


def test_block_eigenvector_residuals():
    for a in np.linspace(0.1, 0.9, 9):
        n = coordinate_block(a)
        gram = n.T @ n
        lam1, lam2 = block_eigenvalues(a)
        vecs = block_eigenvectors(a)
        for v, lam in zip(vecs, (lam1, lam1, lam2, lam2)):
            assert np.linalg.norm(gram @ v - lam * v) <= 1e-9


def test_block_eigenvalue_multiplicity():
    for a in (0.2, 0.5, 0.8):
        gram = coordinate_block(a).T @ coordinate_block(a)
        numeric = np.sort(np.linalg.eigvalsh(gram))
        lam1, lam2 = block_eigenvalues(a)
        assert np.allclose(numeric, [lam2, lam2, lam1, lam1], atol=1e-8)


def test_block_eigenvalue_product_identity():
    for a in np.linspace(0.05, 0.9, 18):
        lam1, lam2 = block_eigenvalues(a)
        expect = (1 + 2 * a * a + a ** 4) ** 2 - 8 * a * a * (a ** 4 + 1)
        assert lam1 * lam2 == pytest.approx(expect, rel=1e-10)


def test_block_norm_bound_values():
    assert block_norm_bound(0.5) == pytest.approx(2.0105, abs=1e-4)
    assert math.sqrt(block_eigenvalues(0.5)[0]) <= block_norm_bound(0.5)
    assert block_norm_bound(1e-9) == pytest.approx(1.0, abs=1e-8)


def test_block_norm_bound_linear_coefficient_below_two():
    # The first-order term must beat the trivial 2a growth of the norm bound.
    for a in (0.01, 0.1, 0.5):
        rest = 1 + a * a + a ** 4 / 2 + a ** 5 / SQRT2
        coeff = (block_norm_bound(a) - rest) / a
        assert coeff == pytest.approx(SQRT2, rel=1e-12)
        assert coeff < 2


def test_tensor_power_basics():
    a = np.arange(4.0).reshape(2, 2)
    assert np.array_equal(tensor_power(a, 1), a)
    assert np.array_equal(tensor_power(np.eye(2), 3), np.eye(8))
    with pytest.raises(ValueError):
        tensor_power(np.eye(64), 3)
    with pytest.raises(ValueError):
        tensor_power(a, 0)


def test_tensor_power_norm_multiplicative():
    n = coordinate_block(0.3)
    lhs = spectral_norm(tensor_power(n, 3))
    rhs = spectral_norm(n) ** 3
    assert lhs == pytest.approx(rhs, abs=1e-8)


def test_signed_mass_matrix_mass_accounting():
    for n in (1, 2):
        for p in (0.1, 0.25):
            m = signed_mass_matrix(n, p)
            assert np.abs(m).sum() == pytest.approx(1.0, abs=1e-12)
            # Every row and column holds the uniform marginal mass of its index.
            assert np.allclose(np.abs(m).sum(axis=1), 4.0 ** -n, atol=1e-12)
            assert np.allclose(np.abs(m).sum(axis=0), 4.0 ** -n, atol=1e-12)


def test_signed_mass_matrix_corner_entry():
    m = signed_mass_matrix(1, 0.25)
    assert m[0, 0] == pytest.approx(0.25 * 0.75 ** 2, abs=1e-15)


def test_signed_mass_matrix_tensor_identity():
    for n in (1, 2, 3):
        for p in (0.1, 0.25, 0.4):
            a = p / (1 - p)
            scale = (1 - p) ** (2 * n) / 4.0 ** n
            expect = scale * tensor_power(coordinate_block(a), n)
            got = signed_mass_matrix(n, p)
            assert np.max(np.abs(got - expect)) <= 1e-12


def test_signed_mass_matrix_validation():
    with pytest.raises(ValueError):
        signed_mass_matrix(6, 0.25)
    with pytest.raises(ValueError):
        signed_mass_matrix(2, 0.5)


def test_discrepancy_exact_against_rectangle_enumeration():
    for p in (0.05, 0.2, 0.45):
        m = signed_mass_matrix(1, p)
        best = 0.0
        for c in range(1 << 4):
            rows = [i for i in range(4) if (c >> i) & 1]
            for d in range(1 << 4):
                cols = [j for j in range(4) if (d >> j) & 1]
                value = abs(sum(m[i, j] for i in rows for j in cols))
                best = max(best, value)
        assert discrepancy_exact(1, p) == pytest.approx(best, abs=1e-15)


def test_discrepancy_exact_dominates_full_rectangle():
    for p in (0.05, 0.15, 0.25, 0.35, 0.45):
        m = signed_mass_matrix(1, p)
        assert discrepancy_exact(1, p) >= abs(m.sum()) - 1e-15


def test_discrepancy_exact_below_spectral_bound():
    for p in (0.05, 0.15, 0.25, 0.35, 0.45):
        assert discrepancy_exact(1, p) <= discrepancy_spectral_bound(1, p) + 1e-12


def test_discrepancy_exact_only_single_coordinate():
    with pytest.raises(ValueError):
        discrepancy_exact(2, 0.2)


def test_spectral_bound_scaling():
    for p in (0.1, 0.3):
        assert discrepancy_spectral_bound(4, p) == pytest.approx(
            discrepancy_spectral_bound(2, p) ** 2, rel=1e-12)


def test_cc_lower_bound_values():
    disc = discrepancy_spectral_bound(50, 0.1)
    assert cc_lower_bound(disc, disc / 2) == 0.0
    assert cc_lower_bound(disc, 0.25) == pytest.approx(
        math.log2(0.5 / disc), rel=1e-12)
    assert cc_lower_bound(0.9, 0.25) == 0.0
    with pytest.raises(ValueError):
        cc_lower_bound(0.0, 0.25)
    with pytest.raises(ValueError):
        cc_lower_bound(disc, 0.75)


def test_contraction_rate_positive_and_stable():
    rates = []
    for p in (0.01, 0.05, 0.1):
        rate = -math.log2(discrepancy_spectral_bound(100, p)) / (p * 100)
        assert rate > 0
        rates.append(rate)
    center = sum(rates) / len(rates)
    assert all(abs(r - center) <= 0.1 * center for r in rates)
