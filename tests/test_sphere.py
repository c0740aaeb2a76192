"""Sphere-domain basics: harmonics, grids, transforms, rotations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from so3filter import SphericalCoeffs, synthesize
from so3filter.sphere import _lm_index

from helpers import random_coeffs
from so3_reference import Rotation, rotate_coeffs
from sphere_reference import (
    SphereGrid,
    degree_and_order,
    eval_ylm,
    flat_index,
    forward_sht,
    inverse_sht,
    unit_coeffs,
)


@given(st.integers(min_value=0, max_value=100_000))
def test_index_roundtrip(n):
    ell, m = degree_and_order(n)
    assert abs(m) <= ell
    assert flat_index(ell, m) == n


def test_layout_index_is_read_only_and_matches_flat_index():
    ls, ms = _lm_index(5)
    assert [flat_index(int(ell), int(m)) for ell, m in zip(ls, ms)] == list(range(25))
    with pytest.raises(ValueError):
        ms[0] = 1


class TestEvalYlm:
    def test_monopole_constant(self):
        val = eval_ylm(0, 0, 1.234, 5.0)
        assert val == pytest.approx(1.0 / math.sqrt(4.0 * math.pi))

    def test_y10_closed_form(self):
        # Y_1^0 = sqrt(3/4pi) cos(theta)
        assert eval_ylm(1, 0, 0.0, 0.0) == pytest.approx(math.sqrt(3.0 / (4.0 * math.pi)))
        theta = 0.77
        assert eval_ylm(1, 0, theta, 1.0) == pytest.approx(
            math.sqrt(3.0 / (4.0 * math.pi)) * math.cos(theta)
        )

    def test_y11_closed_form(self):
        theta, phi = 0.9, 2.1
        expected = -math.sqrt(3.0 / (8.0 * math.pi)) * math.sin(theta) * np.exp(1j * phi)
        assert eval_ylm(1, 1, theta, phi) == pytest.approx(expected)

    @given(
        st.floats(min_value=0.0, max_value=math.pi),
        st.floats(min_value=0.0, max_value=2.0 * math.pi),
    )
    @settings(max_examples=25, deadline=None)
    def test_conjugate_symmetry(self, theta, phi):
        assert np.conj(eval_ylm(2, 1, theta, phi)) + eval_ylm(2, -1, theta, phi) == pytest.approx(0.0, abs=1e-14)

    def test_matches_scipy(self):
        # Every order below the desk preset's signal bandlimit 16.
        sph_harm_y = pytest.importorskip("scipy.special").sph_harm_y
        thetas = np.linspace(0.05, math.pi - 0.05, 7)
        phis = np.linspace(0.0, 2 * math.pi, 7, endpoint=False)
        for ell in range(16):
            for m in range(-ell, ell + 1):
                ours = eval_ylm(ell, m, thetas, phis)
                ref = sph_harm_y(ell, m, thetas, phis)
                np.testing.assert_allclose(ours, ref, atol=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            eval_ylm(1, 0, -0.5, 0.0)
        # Outside [0, pi] cos(theta) names a point on another meridian.
        for theta in (-0.5, math.pi + 0.5, math.nan):
            with pytest.raises(ValueError, match="colatitude"):
                synthesize(unit_coeffs(2, 1), theta, 0.0)
        for phi in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="longitude"):
                synthesize(unit_coeffs(2, 1), 0.5, phi)
        with pytest.raises(ValueError, match="longitude"):
            eval_ylm(2, 1, 0.5, np.array([0.0, math.inf]))


class TestGrid:
    @pytest.mark.parametrize("L", [2, 3, 8, 16])
    def test_quadrature_exact_below_design_degree(self, L):
        grid = SphereGrid.for_bandlimit(L)
        worst = 0.0
        for ell in range(2 * L):
            for m in range(-ell, ell + 1):
                vals = eval_ylm(ell, m, grid.thetas[:, None], grid.phis[None, :])
                target = math.sqrt(4.0 * math.pi) if ell == 0 else 0.0
                worst = max(worst, abs(grid.integrate(vals) - target))
        assert worst < 1e-10

    def test_total_weight_is_sphere_area(self):
        grid = SphereGrid.for_bandlimit(9)
        assert grid.integrate(np.ones(grid.shape)) == pytest.approx(4.0 * math.pi)

    def test_orthonormality_inner_products(self, grid16):
        L = 16
        nodes_t = grid16.thetas[:, None]
        nodes_p = grid16.phis[None, :]
        w = grid16.node_weights()
        Y = np.empty((L * L,) + grid16.shape, dtype=np.complex128)
        for n in range(L * L):
            ell, m = degree_and_order(n)
            Y[n] = eval_ylm(ell, m, nodes_t, nodes_p)
        mat = np.einsum("ajk,jk,bjk->ab", Y, w, np.conj(Y))
        assert np.abs(mat - np.eye(L * L)).max() < 1e-10


class TestTransforms:
    def test_constant_map_forward(self, grid16):
        c = 2.5 - 1.0j
        coeffs = forward_sht(np.full(grid16.shape, c), grid16)
        assert coeffs.data[0] == pytest.approx(c * math.sqrt(4.0 * math.pi))
        assert np.abs(coeffs.data[1:]).max() < 1e-12

    def test_single_harmonic_forward(self, grid16):
        samples = eval_ylm(3, 2, grid16.thetas[:, None], grid16.phis[None, :])
        coeffs = forward_sht(samples, grid16)
        n = flat_index(3, 2)
        assert coeffs.data[n] == pytest.approx(1.0)
        rest = np.delete(coeffs.data, n)
        assert np.abs(rest).max() < 1e-10

    def test_unit_monopole_inverse(self, grid16):
        samples = inverse_sht(unit_coeffs(1, 0), grid16)
        assert np.allclose(samples, 1.0 / math.sqrt(4.0 * math.pi))

    def test_zero_inverse(self, grid16):
        assert np.all(inverse_sht(SphericalCoeffs.zeros(4), grid16) == 0)

    def test_roundtrip(self, grid16):
        coeffs = random_coeffs(16, 7)
        back = forward_sht(inverse_sht(coeffs, grid16), grid16)
        assert np.abs(back.data - coeffs.data).max() < 1e-10

    def test_parseval(self, grid16):
        coeffs = random_coeffs(16, 8)
        samples = inverse_sht(coeffs, grid16)
        quad = grid16.integrate(np.abs(samples) ** 2).real
        spec = float(np.sum(np.abs(coeffs.data) ** 2))
        assert abs(quad - spec) < 1e-9 * spec

    def test_synthesize_matches_inverse(self, grid16):
        coeffs = random_coeffs(16, 9)
        samples = inverse_sht(coeffs, grid16)
        direct = synthesize(coeffs, grid16.thetas[:, None], grid16.phis[None, :])
        assert np.abs(samples - direct).max() < 1e-11


class TestRotation:
    def test_identity_rotation(self):
        coeffs = random_coeffs(6, 1)
        out = rotate_coeffs(coeffs, Rotation(0.0, 0.0, 0.0))
        assert np.abs(out.data - coeffs.data).max() < 1e-14

    def test_monopole_isotropy(self):
        coeffs = unit_coeffs(1, 0)
        out = rotate_coeffs(coeffs, Rotation(1.0, 2.0, 3.0))
        assert out.data[0] == pytest.approx(1.0)

    def test_norm_preserved_per_degree(self):
        coeffs = random_coeffs(10, 2)
        out = rotate_coeffs(coeffs, Rotation(0.4, 1.1, 5.2))
        for ell in range(10):
            a = np.linalg.norm(coeffs.degree_slice(ell))
            b = np.linalg.norm(out.degree_slice(ell))
            assert abs(a - b) < 1e-10

    def test_inverse_rotation_roundtrip(self):
        coeffs = random_coeffs(9, 3)
        rho = Rotation(0.7, 2.2, 4.0)
        back = rotate_coeffs(
            rotate_coeffs(coeffs, rho), Rotation(-rho.gamma, -rho.beta, -rho.alpha)
        )
        assert np.abs(back.data - coeffs.data).max() < 1e-10

    def test_rotation_matches_spatial_rotation(self, grid16):
        # Rotating coefficients must equal sampling at inversely rotated points.
        coeffs = random_coeffs(5, 4)
        rho = Rotation(0.9, 0.6, 1.7)
        rotated = rotate_coeffs(coeffs, rho)
        thetas = np.array([0.3, 1.1, 2.0, 2.8])
        phis = np.array([0.1, 2.5, 4.0, 5.5])
        vals = synthesize(rotated, thetas, phis)
        # pull points back through the rotation zyz(alpha, beta, gamma)
        ca, sa = math.cos(rho.alpha), math.sin(rho.alpha)
        cb, sb = math.cos(rho.beta), math.sin(rho.beta)
        cg, sg = math.cos(rho.gamma), math.sin(rho.gamma)
        Rz_a = np.array([[ca, -sa, 0], [sa, ca, 0], [0, 0, 1]])
        Ry_b = np.array([[cb, 0, sb], [0, 1, 0], [-sb, 0, cb]])
        Rz_g = np.array([[cg, -sg, 0], [sg, cg, 0], [0, 0, 1]])
        R = Rz_a @ Ry_b @ Rz_g
        xyz = np.stack(
            [np.sin(thetas) * np.cos(phis), np.sin(thetas) * np.sin(phis), np.cos(thetas)]
        )
        back = R.T @ xyz
        t2 = np.arccos(np.clip(back[2], -1, 1))
        p2 = np.arctan2(back[1], back[0])
        expected = synthesize(coeffs, t2, p2)
        assert np.abs(vals - expected).max() < 1e-12


class TestCoeffsType:
    def test_length_enforced(self):
        with pytest.raises(ValueError):
            SphericalCoeffs(3, np.zeros(8, dtype=complex))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, complex(0.0, math.nan)])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            SphericalCoeffs(2, [bad, 0, 0, 0])

    def test_data_read_only(self):
        coeffs = SphericalCoeffs.zeros(2)
        with pytest.raises(ValueError):
            coeffs.data[0] = 1.0

    @pytest.mark.parametrize("ell", [-1, 3, 4])
    def test_degree_slice_rejects_a_degree_out_of_range(self, ell):
        with pytest.raises(ValueError, match="outside"):
            SphericalCoeffs.zeros(3).degree_slice(ell)
