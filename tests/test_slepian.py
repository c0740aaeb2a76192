"""Concentration regions, kernels and Slepian windows."""

import math

import numpy as np
import pytest

from so3filter import (
    PolarCap,
    SphericalEllipse,
    concentration_kernel,
    slepian_window,
)

DEG = math.pi / 180.0


class TestRegions:
    def test_cap_membership(self):
        cap = PolarCap(15 * DEG)
        assert cap.contains(10 * DEG, 1.0)
        assert not cap.contains(20 * DEG, 1.0)

    def test_cap_validation(self):
        with pytest.raises(ValueError):
            PolarCap(0.0)
        with pytest.raises(ValueError):
            PolarCap(3.2)

    def test_ellipse_center_inside(self):
        ell = SphericalEllipse(15 * DEG, 16 * DEG)
        assert ell.contains(0.0, 0.0)

    def test_ellipse_major_minor_extent(self):
        ell = SphericalEllipse(15 * DEG, 16 * DEG)
        # boundary along the major axis sits at semi_major
        assert ell.contains(15.9 * DEG, 0.0)
        assert not ell.contains(16.1 * DEG, 0.0)
        # along the minor axis the region is narrower
        assert not ell.contains(15.9 * DEG, 0.5 * math.pi)

    def test_ellipse_validation(self):
        with pytest.raises(ValueError):
            SphericalEllipse(0.3, 0.2)
        with pytest.raises(ValueError):
            SphericalEllipse(0.2, 1.7)

    def test_ellipse_boundary_consistent_with_membership(self):
        ell = SphericalEllipse(10 * DEG, 14 * DEG)
        phis = np.linspace(0, 2 * math.pi, 17)
        r = ell.boundary_colatitude(phis)
        assert np.all(ell.contains(r - 1e-6, phis))
        assert not np.any(ell.contains(r + 1e-6, phis))

    def test_ellipse_foci_on_major_axis(self):
        # distance sum at the focus itself equals focus-to-focus + 0 <= 2a
        ell = SphericalEllipse(15 * DEG, 16 * DEG)
        assert ell.contains(15 * DEG, 0.0)
        assert ell.contains(15 * DEG, math.pi)


class TestKernel:
    def test_full_sphere_identity(self):
        K = concentration_kernel(PolarCap(math.pi), 4)
        assert np.abs(K - np.eye(16)).max() < 1e-10

    def test_hermitian(self):
        K = concentration_kernel(SphericalEllipse(15 * DEG, 16 * DEG), 6)
        assert np.abs(K - K.conj().T).max() < 1e-12

    def test_cap_trace_matches_area(self):
        cap = PolarCap(15 * DEG)
        K = concentration_kernel(cap, 8)
        target = 64 * cap.area() / (4 * math.pi)
        assert abs(np.trace(K).real - target) < 1e-3 * target

    def test_positive_semidefinite(self):
        K = concentration_kernel(PolarCap(25 * DEG), 6)
        evals = np.linalg.eigvalsh(K)
        assert evals.min() >= -1e-9

    def test_cap_kernel_block_diagonal_in_order(self):
        # harmonics of different order are orthogonal over any axisymmetric region
        from so3filter import degree_and_order

        K = concentration_kernel(PolarCap(20 * DEG), 6)
        for a in range(36):
            for b in range(36):
                _, ma = degree_and_order(a)
                _, mb = degree_and_order(b)
                if ma != mb:
                    assert abs(K[a, b]) < 1e-10

    def test_degenerate_region_rejected(self):
        cap = PolarCap(1e-12)
        # force an all-zero quadrature by collapsing the radial rule
        with pytest.raises(ValueError):
            PolarCap(0.0)
        K = concentration_kernel(cap, 2)
        assert np.isfinite(K).all()


class TestWindow:
    def test_full_sphere_all_eigenvalues_one(self):
        res = slepian_window(PolarCap(math.pi), 3)
        assert np.abs(res.eigenvalues - 1.0).max() < 1e-10

    def test_eigenvalues_in_unit_interval(self):
        res = slepian_window(PolarCap(15 * DEG), 8)
        assert res.eigenvalues.max() <= 1.0 + 1e-9
        assert res.eigenvalues.min() >= -1e-9
        assert np.all(np.diff(res.eigenvalues) <= 1e-12)

    def test_window_unit_norm(self):
        res = slepian_window(SphericalEllipse(15 * DEG, 16 * DEG), 6)
        assert res.window().norm() == pytest.approx(1.0)

    def test_eigenvectors_orthonormal(self):
        res = slepian_window(PolarCap(15 * DEG), 8)
        V = res.vectors
        assert np.abs(V.conj().T @ V - np.eye(64)).max() < 1e-9

    def test_shannon_number(self):
        cap = PolarCap(15 * DEG)
        res = slepian_window(cap, 8)
        target = 64 * cap.area() / (4 * math.pi)
        assert abs(res.eigenvalues.sum() - target) < 1e-6 * target

    def test_leading_eigenvalue_stable_across_resolutions(self):
        cap = PolarCap(15 * DEG)
        coarse = slepian_window(cap, 20)
        fine = slepian_window(cap, 20, n_phi=640, n_radial=112)
        assert abs(coarse.eigenvalues[0] - fine.eigenvalues[0]) < 1e-6

    def test_leading_eigenvalue_grows_with_cap(self):
        lams = []
        for theta0 in (10, 15, 20, 25, 30):
            lams.append(slepian_window(PolarCap(theta0 * DEG), 6).eigenvalues[0])
        assert np.all(np.diff(lams) >= -1e-12)

    def test_sign_convention_deterministic(self):
        res = slepian_window(PolarCap(15 * DEG), 8)
        w = res.window()
        pivot = w.data[np.argmax(np.abs(w.data))]
        assert pivot.real > 0
        assert abs(pivot.imag) < 1e-9 * abs(pivot)

    def test_window_concentrated_in_region(self):
        # most of the window's energy must sit inside the cap
        from so3filter import SphereGrid, inverse_sht

        cap = PolarCap(30 * DEG)
        res = slepian_window(cap, 8)
        grid = SphereGrid.for_bandlimit(8)
        vals = np.abs(inverse_sht(res.window(), grid)) ** 2
        inside = cap.contains(grid.thetas[:, None], grid.phis[None, :])
        w = grid.node_weights()
        ratio = float(np.sum(vals * w * inside) / np.sum(vals * w))
        assert ratio > 0.9
        assert ratio == pytest.approx(res.eigenvalues[0], abs=1e-3)
