"""Noise synthesis, SNR calibration, denoising and the benchmark harness."""

import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from so3filter import (
    ExperimentConfig,
    NoiseModel,
    PolarCap,
    SpectralCovariance,
    SphericalCoeffs,
    SphericalEllipse,
    apply_filter,
    benchmark,
    build_signal_covariance,
    calibrate_snr,
    denoise,
    denoise_with_diagnostics,
    design_filter,
    estimate_from_representation,
    forward_dslsht,
    make_test_signal,
    slepian_window,
    snr,
    synth_noise,
)

from so3filter import coupling, pipeline

from helpers import random_coeffs, random_psd
from so3_reference import Rotation, rotate_coeffs
from sphere_reference import unit_coeffs


class TestSignalCovariance:
    @pytest.mark.parametrize("lf", [16, 32])
    def test_rank_one_covariance_passes_the_psd_check(self, lf):
        s = make_test_signal(lf, 1)
        cov = build_signal_covariance(s)
        assert np.abs(cov.matrix - np.outer(s.data, np.conj(s.data))).max() < 1e-15

    def test_monopole_source(self):
        cov = build_signal_covariance(unit_coeffs(2, 0))
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.abs(cov.matrix - expected).max() == 0.0

    def test_trace_is_norm_squared(self):
        s = random_coeffs(4, 1)
        cov = build_signal_covariance(s)
        assert np.trace(cov.matrix).real == pytest.approx(s.norm() ** 2)

    def test_psd_quadratic_form(self, rng):
        s = random_coeffs(4, 2)
        cov = build_signal_covariance(s)
        for _ in range(5):
            x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            val = np.vdot(x, cov.matrix @ x).real
            assert val >= -1e-12
            assert val == pytest.approx(abs(np.vdot(s.data, x)) ** 2, rel=1e-10)

    def test_zero_source_rejected(self):
        with pytest.raises(ValueError):
            build_signal_covariance(SphericalCoeffs.zeros(2))


class TestNoise:
    def test_zero_scale(self):
        model = NoiseModel.random(3, 5, scale=0.0)
        z = synth_noise(model, 7)
        assert np.all(z.data == 0)

    def test_deterministic(self):
        model = NoiseModel.random(3, 5)
        a = synth_noise(model, 42)
        b = synth_noise(model, 42)
        assert np.array_equal(a.data, b.data)
        c = synth_noise(model, 43)
        assert not np.array_equal(a.data, c.data)

    def test_mixing_entries_uniform(self):
        model = NoiseModel.random(6, 9)
        re = model.mixing.real.ravel()
        im = model.mixing.imag.ravel()
        assert re.min() >= -1.0 and re.max() <= 1.0
        assert im.min() >= -1.0 and im.max() <= 1.0
        assert abs(re.mean()) < 0.05

    def test_identity_mixing_monte_carlo_covariance(self):
        # empirical covariance over 10^4 draws close to the identity
        lf = 2
        model = NoiseModel(np.eye(lf * lf, dtype=complex))
        draws = np.stack([synth_noise(model, 1000 + i).data for i in range(10_000)])
        emp = draws.T.conj() @ draws / draws.shape[0]
        emp = emp.T  # E z z^H
        assert np.abs(emp - np.eye(lf * lf)).max() < 5e-2
        assert np.abs(draws.mean(axis=0)).max() < 5e-2

    @pytest.mark.parametrize("scale", [math.nan, math.inf])
    def test_non_finite_scale_rejected(self, scale):
        with pytest.raises(ValueError, match="scale"):
            NoiseModel.random(2, 5, scale=scale)

    @pytest.mark.parametrize("lf", [0, -3])
    def test_nonpositive_bandlimit_rejected(self, lf):
        # lf * lf would turn -3 into a bandlimit-3 model
        with pytest.raises(ValueError, match="bandlimit"):
            NoiseModel.random(lf, 5)

    def test_covariance_matches_model(self):
        model = NoiseModel.random(3, 11, scale=0.5)
        cov = model.covariance()
        expected = 0.25 * model.mixing @ model.mixing.conj().T
        assert np.abs(cov.matrix - expected).max() < 1e-12


class TestSnr:
    def test_equal_signals_infinite(self):
        s = random_coeffs(3, 1)
        assert snr(s, s) == math.inf

    def test_zero_db_when_error_norm_matches(self):
        s = unit_coeffs(2, 1)
        d = SphericalCoeffs(2, s.data + np.array([1.0, 0, 0, 0], dtype=complex))
        assert snr(d, s) == pytest.approx(0.0)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            snr(random_coeffs(2, 2), SphericalCoeffs.zeros(2))

    @given(st.floats(min_value=-30.0, max_value=30.0))
    @settings(max_examples=20, deadline=None)
    def test_calibration_hits_target(self, target):
        s = random_coeffs(4, 3)
        z = random_coeffs(4, 4)
        scaled, alpha = calibrate_snr(s, z, target)
        f = SphericalCoeffs(4, s.data + scaled.data)
        assert snr(f, s) == pytest.approx(target, abs=1e-9)
        assert alpha > 0

    def test_zero_db_norm_equality(self):
        s = random_coeffs(4, 5)
        z = random_coeffs(4, 6)
        scaled, _ = calibrate_snr(s, z, 0.0)
        assert scaled.norm() == pytest.approx(s.norm())

    def test_plus_twenty_db_tenth_norm(self):
        s = random_coeffs(4, 7)
        z = random_coeffs(4, 8)
        scaled, _ = calibrate_snr(s, z, 20.0)
        assert scaled.norm() == pytest.approx(s.norm() / 10.0)

    def test_zero_noise_rejected(self):
        with pytest.raises(ValueError):
            calibrate_snr(random_coeffs(2, 9), SphericalCoeffs.zeros(2), 0.0)

    @pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf])
    def test_non_finite_target_rejected(self, target):
        with pytest.raises(ValueError, match="SNR target"):
            calibrate_snr(random_coeffs(2, 9), random_coeffs(2, 10), target)

    @pytest.mark.parametrize("target", [-7000.0, 6500.0, 7000.0])
    def test_out_of_range_target_rejected(self, target):
        # the noise scale 10^(-target/20) overflows or underflows to zero
        with pytest.raises(ValueError, match="SNR target"):
            calibrate_snr(random_coeffs(2, 9), random_coeffs(2, 10), target)


class TestDenoise:
    def test_noiseless_recovers_source(self):
        s = make_test_signal(6, 31)
        h = slepian_window(PolarCap(math.radians(40)), 3).window()
        cs = build_signal_covariance(s)
        cz = SpectralCovariance.zeros(6)
        est = denoise(SphericalCoeffs(6, s.data.copy()), cs, cz, h)
        rel = np.linalg.norm(est.data - s.data) / np.linalg.norm(s.data)
        assert rel < 1e-6

    def test_non_psd_noise_covariance_is_rejected_before_denoise(self, monkeypatch):
        # Unchecked, a Cz shifted this far below zero once denoised with 85% of
        # slots flagged and a gain of -25.6 dB.
        lf, lh = 8, 4
        s = make_test_signal(lf, 1)
        model = NoiseModel.random(lf, 2)
        z, alpha = calibrate_snr(s, synth_noise(model, 3), 0.0)
        base = alpha**2 * model.covariance().matrix
        shifted = base - (np.linalg.eigvalsh(base)[0] + 0.043) * np.eye(lf * lf)
        f = SphericalCoeffs(lf, s.data + z.data)
        h = slepian_window(PolarCap(math.radians(15)), lh).window()
        monkeypatch.setattr(pipeline, "design_component", None)  # a denoise would fail on it
        with pytest.raises(ValueError, match=r"not positive semidefinite \(min eigenvalue -0.043\)") as exc:
            denoise(f, build_signal_covariance(s), SpectralCovariance(lf, shifted), h)
        assert "\n" not in str(exc.value)

    def test_zero_signal_covariance_gives_zero(self):
        f = random_coeffs(4, 32)
        h = random_coeffs(2, 33)
        cz = build_signal_covariance(random_coeffs(4, 34))
        est = denoise(f, SpectralCovariance.zeros(4), cz, h)
        assert np.all(est.data == 0)

    def test_streaming_equals_modular_path(self):
        lf, lh = 5, 3
        s = make_test_signal(lf, 35)
        model = NoiseModel.random(lf, 36)
        z, alpha = calibrate_snr(s, synth_noise(model, 37), 0.0)
        f = SphericalCoeffs(lf, s.data + z.data)
        cs = build_signal_covariance(s)
        cz = SpectralCovariance(lf, alpha**2 * model.covariance().matrix)
        streamed = denoise(f, cs, cz, h := slepian_window(PolarCap(0.9), lh).window())
        filt = design_filter(cs, cz, lh)
        modular = estimate_from_representation(
            apply_filter(forward_dslsht(f, h), filt), h
        )
        assert np.abs(streamed.data - modular.data).max() < 1e-12

    def test_streaming_full_rank_cs_matches_materialised_chain(self):
        # the rank-one stream (tau, zeta tau, window power) against the cube
        # chain, with full-rank covariances and some blocks on a partial core
        lf, lh = 6, 4
        cs = SpectralCovariance(lf, random_psd(lf * lf, 43))
        cz = SpectralCovariance(lf, 0.5 * random_psd(lf * lf, 44))
        f = random_coeffs(lf, 45)
        h = slepian_window(PolarCap(0.9), lh).window()
        streamed, diag = denoise_with_diagnostics(f, cs, cz, h)
        filt = design_filter(cs, cz, lh)
        modular = estimate_from_representation(apply_filter(forward_dslsht(f, h), filt), h)
        assert np.abs(streamed.data - modular.data).max() <= 1e-12 * np.abs(modular.data).max()
        assert np.array_equal(diag.rank, filt.diagnostics.rank)
        partial = [
            (u, p)
            for u in range((lf + lh - 1) ** 2)
            for p in range(lh)
            if 0 < coupling.triple_product_block(p, u, lf)[1].any(axis=0).sum() < 2 * p + 1
        ]
        assert partial
        assert all(diag.rank[u, p] > 0 for u, p in partial)

    def test_estimate_depends_on_the_window_only_through_its_degree_power(self):
        # rotating the window keeps sum_q' |h_p^q'|^2 for every degree p
        lf, lh = 8, 5
        cs = SpectralCovariance(lf, random_psd(lf * lf, 51))
        cz = SpectralCovariance(lf, 0.5 * random_psd(lf * lf, 52))
        f = random_coeffs(lf, 53)
        h = slepian_window(SphericalEllipse(math.radians(20), math.radians(25)), lh).window()
        want = denoise(f, cs, cz, h).data
        for rho in (Rotation(0.3, 1.1, -0.7), Rotation(2.0, 0.4, 1.3)):
            got = denoise(f, cs, cz, rotate_coeffs(h, rho)).data
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_improves_snr_at_zero_db(self):
        lf, lh = 8, 4
        s = make_test_signal(lf, 38)
        h = slepian_window(PolarCap(math.radians(30)), lh).window()
        model = NoiseModel.random(lf, 39)
        z, alpha = calibrate_snr(s, synth_noise(model, 40), 0.0)
        f = SphericalCoeffs(lf, s.data + z.data)
        cs = build_signal_covariance(s)
        cz = SpectralCovariance(lf, alpha**2 * model.covariance().matrix)
        est = denoise(f, cs, cz, h)
        assert snr(est, s) > snr(f, s)

    def test_logs_cache_statistics_when_verbose(self, caplog):
        f = random_coeffs(3, 44)
        h = random_coeffs(2, 45)
        cs = build_signal_covariance(random_coeffs(3, 46))
        cz = SpectralCovariance.zeros(3)
        with caplog.at_level(logging.WARNING, logger="so3filter"):
            denoise(f, cs, cz, h)
        assert not caplog.records
        with caplog.at_level(logging.INFO, logger="so3filter"):
            _, diag = denoise_with_diagnostics(f, cs, cz, h)
        (record,) = [r for r in caplog.records if r.name == "so3filter.pipeline"]
        pairs, families = coupling.cache_info()
        assert (
            f"degree-pair records {pairs.hits} hits {pairs.misses} misses "
            f"{pairs.currsize}/{pairs.maxsize} held"
        ) in record.getMessage()
        assert f"{families} 3j families evaluated" in record.getMessage()
        empty, truncated, solved = diag.block_counts
        assert empty + truncated + solved == 4 * 4 * 2  # lg**2 * lh blocks
        assert empty > 0 and solved > 0
        assert f"blocks {empty} empty {truncated} truncated {solved} solved" in record.getMessage()
        # w_p = hpow[p] / sum(hpow), hpow[p] = sum_q' |h_p^q'|^2 over the l = p slice of h
        hpow = np.array([np.sum(np.abs(h.data[p * p : (p + 1) ** 2]) ** 2) for p in range(2)])
        weights = " ".join(f"{w:.4g}" for w in hpow / hpow.sum())
        assert record.getMessage().endswith(f"; window degree weights w_p {weights}")

    def test_estimate_norm_bounded_by_operator_norm(self):
        lf, lh = 4, 2
        s = make_test_signal(lf, 41)
        model = NoiseModel.random(lf, 42)
        z, alpha = calibrate_snr(s, synth_noise(model, 43), 5.0)
        f = SphericalCoeffs(lf, s.data + z.data)
        cs = build_signal_covariance(s)
        cz = SpectralCovariance(lf, alpha**2 * model.covariance().matrix)
        est = denoise(f, cs, cz, h := slepian_window(PolarCap(1.0), lh).window())
        # the filter-then-recover operator, one column per basis vector
        filt = design_filter(cs, cz, lh)
        op = np.column_stack([
            estimate_from_representation(
                apply_filter(forward_dslsht(unit_coeffs(lf, n), h), filt), h
            ).data
            for n in range(lf * lf)
        ])
        # the denoise is that linear map applied to the observation
        assert np.abs(est.data - op @ f.data).max() <= 1e-12 * np.abs(est.data).max()
        assert est.norm() <= np.linalg.norm(op, 2) * f.norm() + 1e-9


class TestBenchmark:
    def _config(self, **kw):
        base = dict(
            lf=5,
            lh=3,
            region=PolarCap(math.radians(40)),
            snr_targets_db=(0.0, 10.0),
            realizations=2,
            seed=777,
        )
        base.update(kw)
        return ExperimentConfig(**base)

    def test_deterministic_csv(self):
        cfg = self._config()
        s = make_test_signal(cfg.lf, cfg.seed)
        h = slepian_window(cfg.region, cfg.lh).window()
        a = benchmark(cfg, s, h)
        b = benchmark(cfg, s, h)
        assert a.rows_csv() == b.rows_csv()
        assert a.summary_csv() == b.summary_csv()

    def test_row_schema(self):
        cfg = self._config(realizations=1, snr_targets_db=(5.0,))
        s = make_test_signal(cfg.lf, cfg.seed)
        h = slepian_window(cfg.region, cfg.lh).window()
        res = benchmark(cfg, s, h)
        lines = res.rows_csv().strip().splitlines()
        assert lines[0] == "target_db,realization,input_db,output_db"
        assert len(lines) == 2

    def test_input_snr_hits_target(self):
        cfg = self._config(realizations=2, snr_targets_db=(-3.0, 7.0))
        s = make_test_signal(cfg.lf, cfg.seed)
        h = slepian_window(cfg.region, cfg.lh).window()
        res = benchmark(cfg, s, h)
        for target, _, snr_in, _ in res.rows:
            assert snr_in == pytest.approx(target, abs=1e-9)

    def test_near_noiseless_output_tracks_input(self):
        cfg = self._config(realizations=1, snr_targets_db=(80.0,))
        s = make_test_signal(cfg.lf, cfg.seed)
        h = slepian_window(cfg.region, cfg.lh).window()
        res = benchmark(cfg, s, h)
        _, _, snr_in, snr_out = res.rows[0]
        assert snr_out >= snr_in - 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            self._config(realizations=0)
        with pytest.raises(ValueError):
            self._config(snr_targets_db=())

    @pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf])
    def test_non_finite_target_rejected(self, target):
        with pytest.raises(ValueError, match="SNR targets"):
            self._config(snr_targets_db=(0.0, target))


class TestTestSignal:
    def test_unit_norm_and_deterministic(self):
        a = make_test_signal(8, 3)
        b = make_test_signal(8, 3)
        assert a.norm() == pytest.approx(1.0)
        assert np.array_equal(a.data, b.data)

    def test_spectrum_decays(self):
        s = make_test_signal(16, 4)
        low = np.mean(np.abs(s.degree_slice(1)) ** 2)
        high = np.mean(np.abs(s.degree_slice(15)) ** 2)
        assert high < low


@pytest.mark.parametrize(
    "draw",
    [
        lambda seed: make_test_signal(2, seed),
        lambda seed: NoiseModel.random(2, seed),
        lambda seed: synth_noise(NoiseModel.random(2, 0), seed),
    ],
    ids=["make_test_signal", "NoiseModel.random", "synth_noise"],
)
def test_negative_seed_rejected_with_its_value(draw):
    with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
        draw(-1)
