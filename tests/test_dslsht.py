"""Directional windowed transform: analysis functions, forward path, oracle."""

import math

import numpy as np
import pytest

from so3filter import SphericalCoeffs, forward_dslsht
from so3filter.coupling import triple_product_rows
from so3filter.dslsht import forward_component, window_blocks

from coupling_reference import triple_product
from helpers import random_coeffs
from so3_reference import (
    Rotation,
    WignerCoeffs,
    dslsht_direct,
    psi_coeffs,
    so3_inner,
    so3_synthesize,
    wigner_D,
)
from sphere_reference import SphereGrid, degree_and_order, flat_index, inverse_sht


def unit_window(lh=1):
    data = np.zeros(lh * lh, dtype=complex)
    data[0] = 1.0
    return SphericalCoeffs(lh, data)


class TestPsi:
    def test_monopole_window_single_entry(self):
        h = unit_window()
        for u in range(4):
            for n in range(4):
                psi = psi_coeffs(u, n, h)
                expected = 1.0 / (2.0 * math.sqrt(math.pi)) if n == u else 0.0
                assert psi.data[0, 0, 0] == pytest.approx(expected)

    def test_selection_rule_zeroes(self):
        h = random_coeffs(3, 5)
        # n = (1, 1) and u = (0, 0): q would need to be -1.. fine; check an
        # incompatible pair where |w - m| exceeds every available order.
        psi = psi_coeffs(8, flat_index(2, -2), h)  # m = -2, w = -2+... u=8 -> (2,0)
        _, w = degree_and_order(8)
        _, m = degree_and_order(flat_index(2, -2))
        q = w - m  # = 2, allowed only at p = 2 which exceeds lh-1
        assert abs(q) > h.bandlimit - 1
        assert np.all(psi.data == 0)

    def test_coefficients_match_formula(self):
        h = random_coeffs(3, 6)
        u, n = 7, 5
        psi = psi_coeffs(u, n, h)
        off = h.bandlimit - 1
        for p in range(h.bandlimit):
            for q in range(-p, p + 1):
                for qp in range(-p, p + 1):
                    expected = h.data[flat_index(p, qp)] * triple_product(n, p, q, u)
                    assert psi.data[p, off + q, off + qp] == pytest.approx(expected, abs=1e-13)

    def test_pointwise_matches_direct_sum(self):
        # psi(rho) = sum D^p_{q,q'}(rho) (h)_p^{q'} T(n; p, q; u)
        h = random_coeffs(3, 7)
        u, n = 10, 3
        psi = psi_coeffs(u, n, h)
        rho = Rotation(0.7, 1.9, 4.1)
        direct = 0.0 + 0.0j
        for p in range(3):
            for q in range(-p, p + 1):
                for qp in range(-p, p + 1):
                    direct += (
                        wigner_D(p, q, qp, rho)
                        * h.data[flat_index(p, qp)]
                        * triple_product(n, p, q, u)
                    )
        assert so3_synthesize(psi, rho) == pytest.approx(direct, abs=1e-10)


class TestForward:
    def test_zero_signal(self):
        rep = forward_dslsht(SphericalCoeffs.zeros(3), random_coeffs(2, 1))
        assert np.all(rep.data == 0)
        assert rep.data.shape[0] == rep.lg**2

    def test_monopole_signal_monopole_window(self):
        f = SphericalCoeffs(1, np.array([2.0 + 1.0j]))
        rep = forward_dslsht(f, unit_window())
        assert rep.lg == 1
        assert WignerCoeffs(rep.lh, rep.data[0]).data[0, 0, 0] == pytest.approx(
            (2.0 + 1.0j) / (2.0 * math.sqrt(math.pi))
        )

    def test_zero_window_rejected(self):
        with pytest.raises(ValueError):
            forward_dslsht(random_coeffs(3, 2), SphericalCoeffs.zeros(2))

    def test_linearity(self):
        h = random_coeffs(3, 8)
        f1 = random_coeffs(4, 9)
        f2 = random_coeffs(4, 10)
        alpha = 1.7 - 0.3j
        combo = SphericalCoeffs(4, alpha * f1.data + f2.data)
        rep = forward_dslsht(combo, h)
        expected = alpha * forward_dslsht(f1, h).data + forward_dslsht(f2, h).data
        assert np.abs(rep.data - expected).max() < 1e-12

    def test_coefficient_formula(self):
        f = random_coeffs(3, 11)
        h = random_coeffs(2, 12)
        rep = forward_dslsht(f, h)
        off = h.bandlimit - 1
        for u in range(rep.lg**2):
            for p in range(2):
                for q in range(-p, p + 1):
                    for qp in range(-p, p + 1):
                        expected = sum(
                            f.data[n]
                            * h.data[flat_index(p, qp)]
                            * triple_product(n, p, q, u)
                            for n in range(9)
                        )
                        got = rep.data[u, p, off + q, off + qp]
                        assert got == pytest.approx(expected, abs=1e-12)

    def test_cubes_are_tau_times_window(self):
        # every component is rank one in q': tau(u) (x) hb, with tau the
        # window-free sum over the triple-product rows
        lf, lh = 6, 4
        f = random_coeffs(lf, 15)
        h = random_coeffs(lh, 16)
        rep = forward_dslsht(f, h)
        hb = window_blocks(h)
        off = lh - 1
        for u in range(rep.lg**2):
            tau = forward_component(u, f, lh)
            assert tau.shape == (lh, 2 * lh - 1)
            assert np.array_equal(rep.data[u], tau[:, :, None] * hb[:, None, :])
            for p in range(lh):
                for q in range(-lh + 1, lh):
                    if abs(q) > p:
                        assert tau[p, off + q] == 0.0
                        continue
                    nn, tv = triple_product_rows(p, q, u, lf)
                    want = np.dot(tv, f.data[nn])
                    assert abs(tau[p, off + q] - want) <= 1e-14 * max(1.0, abs(want))

    def test_components_bandlimited_in_u(self):
        # triple products vanish for v >= lf + lh - 1: top-degree components
        # of an lg-extended analysis must be zero
        f = random_coeffs(3, 13)
        h = random_coeffs(2, 14)
        for p in range(h.bandlimit):
            for q in range(-p, p + 1):
                for v in range(4, 6):
                    for w in range(-v, v + 1):
                        u = v * (v + 1) + w
                        for n in range(9):
                            assert triple_product(n, p, q, u) == 0.0


class TestSpatialOracle:
    def test_zero_signal(self):
        grid = SphereGrid.for_bandlimit(12)
        h = random_coeffs(3, 15)
        val = dslsht_direct(np.zeros(grid.shape), grid, h, Rotation(1, 1, 1), 5)
        assert val == 0.0

    def test_identity_rotation_specialisation(self):
        # rho = identity, u = 0: integral f h / (2 sqrt(pi))
        lf, lh = 3, 2
        grid = SphereGrid.for_bandlimit(lf + lh)
        f = random_coeffs(lf, 16)
        h = random_coeffs(lh, 17)
        fs = inverse_sht(f, grid)
        hs = inverse_sht(h, grid)
        expected = grid.integrate(fs * hs) / (2.0 * math.sqrt(math.pi))
        got = dslsht_direct(fs, grid, h, Rotation(0, 0, 0), 0)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_grid_too_coarse_rejected(self):
        grid = SphereGrid.for_bandlimit(3)
        h = random_coeffs(4, 18)
        with pytest.raises(ValueError):
            dslsht_direct(np.zeros(grid.shape), grid, h, Rotation(0, 0, 0), 24)

    def test_matches_spectral_path(self):
        # primary cross-check: quadrature of the defining integral against
        # synthesis of the coefficient-space forward transform
        lf, lh = 4, 3
        lg = lf + lh - 1
        grid = SphereGrid.for_bandlimit(lf + lh + lg)
        f = random_coeffs(lf, 19)
        h = random_coeffs(lh, 20)
        fs = inverse_sht(f, grid)
        rep = forward_dslsht(f, h)
        rng = np.random.default_rng(21)
        for u in (0, 3, 11, 20, 35):
            for _ in range(2):
                rho = Rotation(
                    rng.uniform(0, 2 * math.pi),
                    rng.uniform(0, math.pi),
                    rng.uniform(0, 2 * math.pi),
                )
                direct = dslsht_direct(fs, grid, h, rho, u)
                spectral = so3_synthesize(WignerCoeffs(rep.lh, rep.data[u]), rho)
                assert direct == pytest.approx(spectral, abs=1e-9)


class TestFrameIdentity:
    def test_small_scale(self):
        lf, lh = 5, 3
        h = random_coeffs(lh, 22)
        h = SphericalCoeffs(lh, h.data / h.norm())
        lg = lf + lh - 1
        gram = np.zeros((lf * lf, lf * lf), dtype=complex)
        psis = [[psi_coeffs(u, n, h) for n in range(lf * lf)] for u in range(lg * lg)]
        for n in range(lf * lf):
            for npr in range(lf * lf):
                gram[n, npr] = sum(
                    so3_inner(psis[u][npr], psis[u][n]) for u in range(lg * lg)
                )
        target = 2.0 * math.pi * np.eye(lf * lf)
        assert np.abs(gram - target).max() < 1e-8 * 2.0 * math.pi
