"""Rotation-group machinery: Wigner-d/D, coefficient space, norms."""

import math

import numpy as np
import pytest

from so3filter import SphericalCoeffs

from helpers import so3_quadrature, so3_quadrature_analyze, so3_quadrature_inner, wigner_d_sum
from so3_reference import (
    Rotation,
    WignerCoeffs,
    rotate_coeffs,
    so3_norm_sq,
    so3_synthesize,
    wigner_D,
    wigner_d_matrix,
    wigner_d_stack,
)


class TestRotationType:
    def test_ranges_normalised(self):
        rho = Rotation(-1.0, -0.5, 7.0)
        assert 0.0 <= rho.alpha < 2 * math.pi
        assert 0.0 <= rho.beta <= math.pi
        assert 0.0 <= rho.gamma < 2 * math.pi

    def test_negative_beta_equivalent(self):
        # the normalised triple must represent the same rotation
        coeffs = SphericalCoeffs(4, np.arange(16) + 1.0j)
        raw = (-1.2, -0.7, 2.5)
        a = rotate_coeffs(coeffs, Rotation(*raw))
        flipped = Rotation(raw[0] + math.pi, 0.7, raw[2] - math.pi)
        b = rotate_coeffs(coeffs, flipped)
        assert np.abs(a.data - b.data).max() < 1e-12

    def test_inverse_composes_to_identity(self):
        rho = Rotation(0.8, 1.9, 3.3)
        coeffs = SphericalCoeffs(5, np.linspace(0, 1, 25) + 0.5j)
        back = rotate_coeffs(rotate_coeffs(coeffs, rho), rho.inverse())
        assert np.abs(back.data - coeffs.data).max() < 1e-12


class TestWignerD:
    def test_beta_zero_is_identity(self):
        for ell in (0, 1, 5):
            assert np.allclose(wigner_d_matrix(ell, 0.0), np.eye(2 * ell + 1))

    def test_degree_one_closed_form(self):
        beta = 0.83
        d = wigner_d_matrix(1, beta)
        assert d[1, 1] == pytest.approx(math.cos(beta))
        assert d[2, 1] == pytest.approx(-math.sin(beta) / math.sqrt(2))
        assert d[2, 0] == pytest.approx((1 - math.cos(beta)) / 2)

    @pytest.mark.parametrize("ell", [1, 2, 4, 8, 16, 64])
    def test_orthogonality(self, ell):
        d = wigner_d_matrix(ell, 1.123)
        assert np.abs(d @ d.T - np.eye(2 * ell + 1)).max() < 1e-10

    def test_orthogonality_beyond_100(self):
        d = wigner_d_matrix(128, 2.9)
        assert np.abs(d @ d.T - np.eye(257)).max() < 1e-10

    @pytest.mark.parametrize("beta", [0.1, 0.9, 1.5707, 2.6, 3.0])
    def test_matches_explicit_sum(self, beta):
        for ell in range(9):
            d = wigner_d_matrix(ell, beta)
            for m in range(-ell, ell + 1):
                for mp in range(-ell, ell + 1):
                    assert d[m + ell, mp + ell] == pytest.approx(
                        wigner_d_sum(ell, m, mp, beta), abs=1e-12
                    )

    def test_transpose_symmetry(self):
        d = wigner_d_matrix(6, 0.777)
        for m in range(-6, 7):
            for mp in range(-6, 7):
                sign = -1.0 if (m - mp) % 2 else 1.0
                assert d[m + 6, mp + 6] == pytest.approx(sign * d[mp + 6, m + 6])

    def test_beta_pi(self):
        # d^l_{m,m'}(pi) = (-1)^(l+m) on the anti-diagonal m' = -m
        for ell, d in enumerate(wigner_d_stack(80, math.pi)):
            m = np.arange(-ell, ell + 1)
            expected = np.zeros((2 * ell + 1, 2 * ell + 1))
            expected[m + ell, -m + ell] = np.where((ell + m) % 2, -1.0, 1.0)
            assert np.abs(d - expected).max() < 1e-12

    def test_d000_is_one(self):
        rho = Rotation(2.0, 1.0, 0.5)
        assert wigner_D(0, 0, 0, rho) == pytest.approx(1.0)

    def test_identity_rotation_kronecker(self):
        rho = Rotation(0.0, 0.0, 0.0)
        for m in range(-2, 3):
            for mp in range(-2, 3):
                expected = 1.0 if m == mp else 0.0
                assert wigner_D(2, m, mp, rho) == pytest.approx(expected)

    def test_composition_with_inverse(self):
        rho = Rotation(0.4, 1.3, 2.7)
        inv = rho.inverse()
        ell = 3
        D = np.array(
            [[wigner_D(ell, m, mp, rho) for mp in range(-ell, ell + 1)] for m in range(-ell, ell + 1)]
        )
        Dinv = np.array(
            [[wigner_D(ell, m, mp, inv) for mp in range(-ell, ell + 1)] for m in range(-ell, ell + 1)]
        )
        assert np.abs(Dinv @ D - np.eye(2 * ell + 1)).max() < 1e-10

    def test_orthogonality_integral_by_quadrature(self):
        # integral |D^l_{m,mp}|^2 drho = 8 pi^2 / (2l+1)
        rots, w = so3_quadrature(5)
        for ell, m, mp in [(0, 0, 0), (1, 1, 0), (2, -1, 2), (4, 3, -2)]:
            vals = np.array([wigner_D(ell, m, mp, r) for r in rots])
            integral = float(np.sum(w * np.abs(vals) ** 2))
            target = 8.0 * math.pi**2 / (2 * ell + 1)
            assert abs(integral - target) < 1e-8 * target

    def test_consistent_with_rotate_coeffs(self):
        # a delta coefficient at (l, mp) must rotate into column mp of D^l
        rho = Rotation(1.1, 0.9, 0.3)
        ell, mp = 3, -2
        data = np.zeros(25, dtype=complex)
        data[ell * (ell + 1) + mp] = 1.0
        rotated = rotate_coeffs(SphericalCoeffs(5, data), rho)
        col = np.array([wigner_D(ell, m, mp, rho) for m in range(-ell, ell + 1)])
        assert np.abs(rotated.degree_slice(ell) - col).max() < 1e-12


class TestWignerCoeffsType:
    def test_count_formula(self):
        g = WignerCoeffs.zeros(5)
        assert g.coefficient_count == 5 * 9 * 11 // 3
        total = sum((2 * l + 1) ** 2 for l in range(5))
        assert g.coefficient_count == total

    def test_rejects_padding_violation(self):
        data = np.zeros((2, 3, 3), dtype=complex)
        data[0, 0, 0] = 1.0  # outside |m| <= l for l = 0
        with pytest.raises(ValueError):
            WignerCoeffs(2, data)

    def test_shape_enforced(self):
        with pytest.raises(ValueError):
            WignerCoeffs(2, np.zeros((2, 3, 4), dtype=complex))


class TestSo3Norm:
    def test_zero(self):
        assert so3_norm_sq(WignerCoeffs.zeros(3)) == 0.0

    def test_single_degree_two_entry(self):
        data = np.zeros((3, 5, 5), dtype=complex)
        data[2, 2 + 1, 2 - 2] = 1.0  # (l, m, mp) = (2, 1, -2)
        assert so3_norm_sq(WignerCoeffs(3, data)) == pytest.approx(8.0 * math.pi**2 / 5.0)

    def test_matches_quadrature(self, rng):
        L = 3
        data = np.zeros((L, 2 * L - 1, 2 * L - 1), dtype=complex)
        off = L - 1
        for l in range(L):
            blk = rng.standard_normal((2 * l + 1, 2 * l + 1)) + 1j * rng.standard_normal(
                (2 * l + 1, 2 * l + 1)
            )
            data[l, off - l : off + l + 1, off - l : off + l + 1] = blk
        g = WignerCoeffs(L, data)
        quad = so3_quadrature_inner(g, g).real
        assert abs(quad - so3_norm_sq(g)) < 1e-8 * so3_norm_sq(g)


class TestSynthesis:
    def test_zero(self):
        assert so3_synthesize(WignerCoeffs.zeros(2), Rotation(1, 1, 1)) == 0.0

    def test_unit_monopole_everywhere_one(self):
        data = np.zeros((2, 3, 3), dtype=complex)
        data[0, 1, 1] = 1.0
        g = WignerCoeffs(2, data)
        for rho in (Rotation(0, 0, 0), Rotation(1.0, 2.0, 3.0)):
            assert so3_synthesize(g, rho) == pytest.approx(1.0)

    def test_quadrature_analysis_roundtrip(self, rng):
        L = 3
        data = np.zeros((L, 2 * L - 1, 2 * L - 1), dtype=complex)
        off = L - 1
        for l in range(L):
            blk = rng.standard_normal((2 * l + 1, 2 * l + 1)) + 1j * rng.standard_normal(
                (2 * l + 1, 2 * l + 1)
            )
            data[l, off - l : off + l + 1, off - l : off + l + 1] = blk
        g = WignerCoeffs(L, data)
        back = so3_quadrature_analyze(g)
        assert np.abs(back.data - g.data).max() < 1e-9
