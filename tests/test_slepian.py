"""Concentration regions, kernels and Slepian windows."""

import math
import sys
import warnings

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

    def test_cap_rejects_an_underflowing_size(self):
        # sin^2(theta0 / 2) underflows to 0, so every quadrature weight would be 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="degenerate") as exc:
                PolarCap(1e-170)
        assert "\n" not in str(exc.value)
        assert PolarCap(1e-150).theta0 == 1e-150

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

    def test_ellipse_rejects_zero_area(self):
        # focus == semi-major is a segment of zero area, not a region
        with pytest.raises(ValueError, match="focus colatitude < semi-major") as exc:
            SphericalEllipse(0.2, 0.2)
        assert "\n" not in str(exc.value)

    def test_ellipse_rejects_an_underflowing_size(self):
        # the semi-major radius squared underflows, so the boundary would be 0/0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="too small") as exc:
                SphericalEllipse(1e-170, 2e-170)
        assert "\n" not in str(exc.value)

    @pytest.mark.parametrize(
        "focus_deg, semi_deg",
        [(15, 16), (1, 20), (10, 40), (30, 31), (0.001, 5), (44, 89)],
    )
    def test_ellipse_boundary_solves_focal_sum(self, focus_deg, semi_deg):
        ell = SphericalEllipse(focus_deg * DEG, semi_deg * DEG)
        phis = 2 * math.pi * np.arange(4097) / 4097
        r = ell.boundary_colatitude(phis)
        assert np.abs(ell._distance_sum(r, phis) - 2 * ell.semi_major).max() < 1e-13

    @pytest.mark.parametrize("semi_deg", [1, 16, 45, 80])
    def test_thin_ellipse_boundary(self, semi_deg):
        # a - c = 1e-7: the major axis ends at a, and the semi-minor b obeys
        # the spherical Pythagoras relation cos a = cos b cos c
        a = semi_deg * DEG
        ell = SphericalEllipse(a - 1e-7, a)
        r0, b = ell.boundary_colatitude([0.0, 0.5 * math.pi])
        assert abs(r0 - a) < 1e-14
        assert abs(math.cos(a) - math.cos(b) * math.cos(ell.focus_colatitude)) < 1e-14

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

    @pytest.mark.parametrize("focus_deg, semi_deg", [(15, 16), (10, 40), (1, 20)])
    def test_ellipse_trace_matches_area(self, focus_deg, semi_deg):
        # trace K = L^2 A / (4 pi), with the area from the boundary's
        # spectrally convergent longitude rule A = 2 pi mean(1 - cos r)
        ell = SphericalEllipse(focus_deg * DEG, semi_deg * DEG)
        r = ell.boundary_colatitude(2 * math.pi * np.arange(4096) / 4096)
        area = 2 * math.pi * np.mean(1 - np.cos(r))
        for L in (4, 8, 12):
            target = L * L * area / (4 * math.pi)
            trace = np.trace(concentration_kernel(ell, L)).real
            assert abs(trace - target) <= 1e-12 * target

    def test_positive_semidefinite(self):
        K = concentration_kernel(PolarCap(25 * DEG), 6)
        evals = np.linalg.eigvalsh(K)
        assert evals.min() >= -1e-9

    def test_cap_kernel_block_diagonal_in_order(self):
        # harmonics of different order are orthogonal over any axisymmetric region
        from sphere_reference import degree_and_order

        K = concentration_kernel(PolarCap(20 * DEG), 6)
        for a in range(36):
            for b in range(36):
                _, ma = degree_and_order(a)
                _, mb = degree_and_order(b)
                if ma != mb:
                    assert abs(K[a, b]) < 1e-10

    @pytest.mark.parametrize(
        "theta0",
        [1e-12, 5 * DEG, 15 * DEG, 45 * DEG, 90 * DEG, 135 * DEG, math.pi],
        ids=["1e-12rad", "5deg", "15deg", "45deg", "90deg", "135deg", "180deg"],
    )
    def test_cap_kernel_matches_generic_quadrature(self, theta0):
        # the exact per-order rule against the longitude-radial node rule
        from so3filter.slepian import _quadrature_kernel

        cap = PolarCap(theta0)
        for L in (2, 3, 7, 12, 16):
            ref = _quadrature_kernel(cap, L, max(16 * L, 128), max(2 * L + 16, 48))
            K = concentration_kernel(cap, L)
            assert np.abs(K - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_gauss_legendre_rule_is_cached_read_only(self):
        from so3filter.slepian import _gauss_legendre

        nodes, weights = _gauss_legendre(5)
        assert _gauss_legendre(5)[0] is nodes
        assert not nodes.flags.writeable and not weights.flags.writeable
        ref = np.polynomial.legendre.leggauss(5)
        assert np.array_equal(nodes, ref[0]) and np.array_equal(weights, ref[1])

    def test_degenerate_region_rejected(self):
        with pytest.raises(ValueError):
            PolarCap(0.0)
        # regions whose quadrature weights would all underflow to zero are
        # rejected where they are built
        with pytest.raises(ValueError, match="degenerate"):
            PolarCap(1e-170)  # sin^2(theta0 / 2) is 0
        with pytest.raises(ValueError, match="too small"):
            SphericalEllipse(1.5e-162, 3e-162)  # sin(a - c) sin(a + c) is still 5e-324
        # a tiny cap whose weights stay positive gives a finite kernel
        assert np.isfinite(concentration_kernel(PolarCap(1e-12), 2)).all()

    @pytest.mark.parametrize("lh", [1, 8, 20])
    @pytest.mark.parametrize("focus_share", [0.5, "next below"])
    def test_smallest_accepted_ellipse_solves(self, lh, focus_share):
        semi = math.sqrt(sys.float_info.min)  # 2^-511: its square is the smallest normal
        assert semi * semi == sys.float_info.min
        # half the radius, or the float just below it: sin(a - c) sin(a + c) is 5e-324
        focus = 0.5 * semi if focus_share == 0.5 else math.nextafter(semi, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = slepian_window(SphericalEllipse(focus, semi), lh)
        assert np.isfinite(res.vectors).all() and np.isfinite(res.eigenvalues).all()
        assert res.eigenvalues[0] > 0.0
        assert res.window().norm() == pytest.approx(1.0)
        with pytest.raises(ValueError, match="too small"):
            SphericalEllipse(0.5 * semi, math.nextafter(semi, 0.0))


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

    @pytest.mark.parametrize(
        "region",
        [PolarCap(15 * DEG), SphericalEllipse(15 * DEG, 16 * DEG)],
        ids=["cap", "ellipse"],
    )
    def test_leading_eigenvalue_stable_across_resolutions(self, region):
        from so3filter.slepian import _quadrature_kernel

        coarse = slepian_window(region, 12)
        fine = np.linalg.eigvalsh(_quadrature_kernel(region, 12, 640, 112))[-1]
        assert abs(coarse.eigenvalues[0] - fine) < 1e-6

    def test_leading_eigenvalue_grows_with_cap(self):
        lams = []
        for theta0 in (10, 15, 20, 25, 30):
            lams.append(slepian_window(PolarCap(theta0 * DEG), 6).eigenvalues[0])
        assert np.all(np.diff(lams) >= -1e-12)

    def test_window_index_must_name_a_column(self):
        res = slepian_window(PolarCap(15 * DEG), 3)
        for k in (-1, 9):
            with pytest.raises(ValueError, match=r"outside \[0, 9\)"):
                res.window(k)
        assert np.array_equal(res.window(8).data, res.vectors[:, 8])

    def test_zero_bandlimit_rejected(self):
        with pytest.raises(ValueError, match="bandlimit"):
            slepian_window(PolarCap(15 * DEG), 0)

    def test_sign_convention_deterministic(self):
        res = slepian_window(PolarCap(15 * DEG), 8)
        w = res.window()
        pivot = w.data[np.argmax(np.abs(w.data))]
        assert pivot.real > 0
        assert abs(pivot.imag) < 1e-9 * abs(pivot)

    def test_window_concentrated_in_region(self):
        # most of the window's energy must sit inside the cap
        from sphere_reference import SphereGrid, inverse_sht

        cap = PolarCap(30 * DEG)
        res = slepian_window(cap, 8)
        grid = SphereGrid.for_bandlimit(8)
        vals = np.abs(inverse_sht(res.window(), grid)) ** 2
        inside = cap.contains(grid.thetas[:, None], grid.phis[None, :])
        w = grid.node_weights()
        ratio = float(np.sum(vals * w * inside) / np.sum(vals * w))
        assert ratio > 0.9
        assert ratio == pytest.approx(res.eigenvalues[0], abs=1e-3)


class TestCapOrders:
    """The cap is solved one order at a time."""

    def test_each_vector_lies_on_one_order(self):
        from so3filter.sphere import _lm_index

        res = slepian_window(PolarCap(15 * DEG), 8)
        _, ms = _lm_index(8)
        orders = []
        for j in range(64):
            (m,) = np.unique(ms[res.vectors[:, j] != 0])
            orders.append(m)
        assert sorted(orders) == sorted(ms)
        # each -m column follows its +m twin: same eigenvalue, same coefficients
        for j, m in enumerate(orders):
            if m < 0:
                assert orders[j - 1] == -m
                assert res.eigenvalues[j - 1] == res.eigenvalues[j]
                assert np.array_equal(res.vectors[ms == -m, j - 1], res.vectors[ms == m, j])

    @pytest.mark.parametrize("theta0_deg", [5, 15, 45, 135])
    @pytest.mark.parametrize("L", [1, 2, 8, 12, 20])
    def test_matches_dense_eigh(self, theta0_deg, L):
        cap = PolarCap(theta0_deg * DEG)
        K = concentration_kernel(cap, L)
        evals, vecs = np.linalg.eigh(K)
        res = slepian_window(cap, L)
        V, lam = res.vectors, res.eigenvalues
        assert np.abs(lam - evals[::-1]).max() <= 1e-13
        assert np.abs(K @ V - V * lam).max() <= 1e-13
        assert np.abs(V.conj().T @ V - np.eye(L * L)).max() <= 1e-13
        # dense eigh's leading vector is accurate to about eps / gap, so it is
        # checked against the span of the eigenvalues within 1e-2 of the top
        dense = vecs[:, -1]
        near = V[:, lam[0] - lam <= 1e-2]
        assert np.linalg.norm(dense - near @ (near.conj().T @ dense)) <= 1e-13
        if near.shape[1] == 1:
            pivot = dense[np.argmax(np.abs(dense))]
            dense = dense * np.conj(pivot) / abs(pivot)
            assert np.abs(res.window().data - dense).max() <= 1e-13
