"""Least-squares recovery from filtered representations."""

import math

import numpy as np
import pytest

from so3filter import (
    DslshtRep,
    SphericalCoeffs,
    SpectralCovariance,
    apply_filter,
    design_filter,
    estimate,
    estimate_from_representation,
    forward_dslsht,
    recovery_matrix,
    so3_norm_sq,
)
from so3filter.dslsht import window_blocks

from helpers import random_coeffs, random_psd


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

    def test_monopole_only_signal(self):
        h = random_coeffs(3, 6)
        f = SphericalCoeffs.unit(4, 0)
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


class TestRecoveryMatrix:
    def test_zero_filter(self):
        h = _unit(random_coeffs(2, 9))
        filt = design_filter(SpectralCovariance.zeros(4), SpectralCovariance.zeros(4), 2)
        rec = recovery_matrix(filt, h, 4)
        assert np.all(rec.matrix == 0)

    def test_identity_filter_gives_identity(self):
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
        rec = recovery_matrix(filt, h, lf)
        assert np.abs(rec.matrix - np.eye(lf * lf)).max() < 1e-8

    def test_columns_match_composition_oracle(self):
        lf, lh = 4, 2
        cs = SpectralCovariance(lf, random_psd(lf * lf, 11))
        cz = SpectralCovariance(lf, random_psd(lf * lf, 12))
        filt = design_filter(cs, cz, lh)
        h = _unit(random_coeffs(lh, 13))
        rec = recovery_matrix(filt, h, lf)
        for n in range(lf * lf):
            basis = SphericalCoeffs.unit(lf, n)
            composed = estimate_from_representation(
                apply_filter(forward_dslsht(basis, h), filt), h
            )
            assert np.abs(rec.matrix[:, n] - composed.data).max() < 1e-10

    def test_estimate_is_matrix_vector_product(self):
        lf, lh = 4, 2
        cs = SpectralCovariance(lf, random_psd(lf * lf, 14))
        cz = SpectralCovariance(lf, random_psd(lf * lf, 15))
        filt = design_filter(cs, cz, lh)
        h = _unit(random_coeffs(lh, 16))
        rec = recovery_matrix(filt, h, lf)
        f = random_coeffs(lf, 17)
        via_matrix = estimate(rec, f)
        via_pipeline = estimate_from_representation(
            apply_filter(forward_dslsht(f, h), filt), h
        )
        assert np.abs(via_matrix.data - via_pipeline.data).max() < 1e-10

    def test_estimate_linear(self):
        rec_mat = np.eye(16) * (0.5 + 0.1j)
        from so3filter import RecoveryMatrix

        rec = RecoveryMatrix(4, rec_mat)
        f1 = random_coeffs(4, 18)
        f2 = random_coeffs(4, 19)
        combo = SphericalCoeffs(4, 2.0 * f1.data - 1j * f2.data)
        out = estimate(rec, combo)
        expected = 2.0 * estimate(rec, f1).data - 1j * estimate(rec, f2).data
        assert np.abs(out.data - expected).max() < 1e-13

    def test_dimension_mismatch_rejected(self):
        from so3filter import RecoveryMatrix

        rec = RecoveryMatrix(4, np.eye(16, dtype=complex))
        with pytest.raises(ValueError):
            estimate(rec, random_coeffs(3, 20))


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
