"""Least-squares recovery from filtered representations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from so3filter import (
    SphericalCoeffs,
    SpectralCovariance,
    apply_filter,
    design_filter,
    estimate_from_representation,
    forward_dslsht,
)
from so3filter.coupling import triple_product_rows
from so3filter.dslsht import component_rows
from so3filter.estimator import accumulate_component

from helpers import random_coeffs, random_psd
from sphere_reference import unit_coeffs


def _unit(h):
    return SphericalCoeffs(h.bandlimit, h.data / h.norm())


class TestRepresentationEstimate:
    def test_zero_representation(self):
        h = random_coeffs(3, 1)
        rep = forward_dslsht(SphericalCoeffs.zeros(4), h)
        out = estimate_from_representation(rep, h)
        assert np.all(out.data == 0)

    def test_zero_window_rejected(self):
        h = random_coeffs(3, 2)
        rep = forward_dslsht(random_coeffs(4, 3), h)
        with pytest.raises(ValueError):
            estimate_from_representation(rep, SphericalCoeffs.zeros(3))

    def test_frame_inverse_on_admissible_representations(self):
        # analysing any bandlimited signal then estimating recovers it
        d = random_coeffs(8, 4)
        h = _unit(random_coeffs(4, 5))
        rep = forward_dslsht(d, h)
        out = estimate_from_representation(rep, h)
        rel = np.linalg.norm(out.data - d.data) / np.linalg.norm(d.data)
        assert rel < 1e-8

    def test_identity_filter_recovers_the_signal(self):
        # filtering with the identity then estimating is the identity map
        from so3filter.filtering import FilterDiagnostics, JointFilter

        lf, lh = 4, 2
        lg = lf + lh - 1
        off = lh - 1
        zeta = np.zeros((lg * lg, lh, 2 * lh - 1, 2 * lh - 1), dtype=complex)
        for p in range(lh):
            sl = slice(off - p, off + p + 1)
            zeta[:, p, sl, sl] = np.eye(2 * p + 1)
        filt = JointFilter(lh, lg, zeta, FilterDiagnostics.zeros(lg, lh))
        h = _unit(random_coeffs(lh, 10))
        for n in range(lf * lf):
            basis = unit_coeffs(lf, n)
            out = estimate_from_representation(apply_filter(forward_dslsht(basis, h), filt), h)
            assert np.abs(out.data - basis.data).max() < 1e-8

    def test_frame_identity_holds_degree_by_degree(self):
        # E_p = (1/2pi) sum_u (8 pi^2 / (2p+1)) P_pu^T P_pu is the identity for
        # every window degree p, with P_pu the degree-p rows T(.; p, q; u)
        lf, lh = 8, 4
        e = np.zeros((lh, lf * lf, lf * lf))
        for u in range((lf + lh - 1) ** 2):
            nn, tv, slot = component_rows(u, lf, lh)
            rows = np.zeros((lh * (2 * lh - 1), lf * lf))
            rows[slot, nn] = tv
            for p, pu in enumerate(rows.reshape(lh, 2 * lh - 1, lf * lf)):
                e[p] += (8.0 * math.pi**2 / (2 * p + 1)) * pu.T @ pu
        e /= 2.0 * math.pi
        for p in range(lh):
            assert np.abs(e[p] - np.eye(lf * lf)).max() <= 1e-13

    def test_monopole_only_signal(self):
        h = random_coeffs(3, 6)
        f = unit_coeffs(4, 0)
        out = estimate_from_representation(forward_dslsht(f, h), h)
        assert out.data[0] == pytest.approx(1.0, abs=1e-10)
        assert np.abs(out.data[1:]).max() < 1e-10

    def test_window_normalisation_cancels(self):
        d = random_coeffs(5, 7)
        h = random_coeffs(3, 8)
        scaled = SphericalCoeffs(3, 3.7 * h.data)
        a = estimate_from_representation(forward_dslsht(d, h), h)
        b = estimate_from_representation(forward_dslsht(d, scaled), scaled)
        assert np.abs(a.data - b.data).max() < 1e-9


class TestAccumulate:
    @settings(max_examples=40, deadline=None)
    @given(u=st.integers(0, 80), seed=st.integers(0, 2**32 - 1))
    def test_scatter_matches_row_loop(self, u, seed):
        # one bincount scatter over every row of u equals adding the rows one
        # at a time; entries of nh with |q| > p are ignored
        lf, lh = 6, 4  # lg = 9, so u < 81
        off = lh - 1
        rng = np.random.default_rng(seed)
        nh = rng.standard_normal((lh, 2 * lh - 1)) + 1j * rng.standard_normal((lh, 2 * lh - 1))
        acc = rng.standard_normal(lf * lf) + 1j * rng.standard_normal(lf * lf)
        want = acc.copy()
        for p in range(lh):
            w = 8.0 * math.pi**2 / (2 * p + 1)
            for q in range(-p, p + 1):
                nn, tv = triple_product_rows(p, q, u, lf)
                want[nn] += w * nh[p, off + q] * tv
        accumulate_component(acc, u, nh, lf, lh)
        assert np.abs(acc - want).max() <= 1e-13 * np.abs(want).max()


class TestOptimality:
    def test_squared_error_gradient_vanishes(self):
        # central finite differences of the joint-domain squared error around
        # the returned estimate
        lf, lh = 3, 2
        f = random_coeffs(lf, 21)
        h = _unit(random_coeffs(lh, 22))
        cs = SpectralCovariance(lf, random_psd(lf * lf, 23))
        cz = SpectralCovariance(lf, random_psd(lf * lf, 24))
        filt = design_filter(cs, cz, lh)
        nu = apply_filter(forward_dslsht(f, h), filt)
        est = estimate_from_representation(nu, h)

        def squared_error(coeffs):
            diff = forward_dslsht(coeffs, h).data - nu.data
            total = 0.0
            for p in range(lh):
                w = 8.0 * math.pi**2 / (2 * p + 1)
                total += w * float(np.sum(np.abs(diff[:, p]) ** 2))
            return total

        step = 1e-6
        for n in range(lf * lf):
            for direction in (1.0, 1.0j):
                plus = est.data.copy()
                minus = est.data.copy()
                plus[n] += step * direction
                minus[n] -= step * direction
                grad = (
                    squared_error(SphericalCoeffs(lf, plus))
                    - squared_error(SphericalCoeffs(lf, minus))
                ) / (2 * step)
                assert abs(grad) < 1e-6
