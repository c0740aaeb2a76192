"""Memory the denoiser allocates or holds, at desk scale (lf = 16, lh = 8).

Most tests measure a ``tracemalloc`` peak in units of one ``n x n`` complex
matrix (``n = lf**2``): the arrays a step allocates, its result included.  At
the full scale (``lf = 64``) one unit is 268 MB.  These cover the covariances
on the way into the filter, a warm denoise and a warm SNR sweep.  The
triple-product records, which a denoise keeps cached between calls, are
bounded by what they hold after every row has been read.
"""

import math
import tracemalloc

import numpy as np

from so3filter import (
    ExperimentConfig,
    NoiseModel,
    PolarCap,
    SpectralCovariance,
    SphericalCoeffs,
    benchmark,
    build_signal_covariance,
    calibrate_snr,
    denoise,
    make_test_signal,
    slepian_window,
    synth_noise,
    triple_product_rows,
)
from so3filter import coupling
from so3filter.io import read_covariance, write_covariance

from helpers import random_psd

LF = 16
LH = 8


def _peak_in_matrices(fn, n: int = LF * LF) -> float:
    """Peak traced allocation while ``fn()`` runs, in ``n x n`` complex matrices."""
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (16 * n * n)


def test_spectral_covariance_allocates_only_its_matrix():
    mat = random_psd(LF * LF, 1)
    assert _peak_in_matrices(lambda: SpectralCovariance(LF, mat)) <= 1.5


def test_scaled_allocates_only_its_product():
    cov = NoiseModel.random(LF, 3).covariance()
    assert _peak_in_matrices(lambda: cov.scaled(0.5)) <= 1.25


def test_noise_model_covariance_stays_within_four_matrices():
    assert _peak_in_matrices(lambda: NoiseModel.random(LF, 3).covariance()) <= 4.0


def test_warm_desk_denoise_allocates_under_one_and_a_quarter_matrices():
    s = make_test_signal(LF, 1)
    h = slepian_window(PolarCap(math.radians(15.0)), 8).window()
    model = NoiseModel.random(LF, 2)
    z, alpha = calibrate_snr(s, synth_noise(model, 3), 0.0)
    cs = build_signal_covariance(s)
    cz = SpectralCovariance(LF, alpha**2 * model.covariance().matrix)
    f = SphericalCoeffs(LF, s.data + z.data)
    denoise(f, cs, cz, h)  # fill the triple-product cache
    assert _peak_in_matrices(lambda: denoise(f, cs, cz, h)) <= 1.25


def test_cap_window_allocates_little_beyond_its_vectors():
    # one real eigensolve per order: the L^2 x L^2 vectors are the only large array
    cap = PolarCap(math.radians(15.0))
    assert _peak_in_matrices(lambda: slepian_window(cap, 20), n=400) <= 1.25


def test_read_covariance_streams_the_file(tmp_path):
    path = tmp_path / "desk.cov"
    write_covariance(path, NoiseModel.random(LF, 3).covariance())
    # the parsed table becomes the covariance: 1.19 measured, 2.19 with a copy
    assert _peak_in_matrices(lambda: read_covariance(path)) <= 1.25
    assert np.array_equal(read_covariance(path).matrix, NoiseModel.random(LF, 3).covariance().matrix)


def test_desk_records_hold_each_value_once():
    # every desk row, read in the order a denoise reads them, from a cold cache
    tracemalloc.start()
    try:
        coupling._pair_record.cache_clear()
        for u in range((LF + LH - 1) ** 2):
            for p in range(LH):
                for q in range(-p, p + 1):
                    triple_product_rows(p, q, u, LF)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert coupling._pair_record.cache_info().currsize == (LF + LH - 1) * LH
    assert held <= 1.75 * 2**20


def test_warm_desk_sweep_releases_the_mixing_matrix():
    cap = PolarCap(math.radians(15.0))
    s = make_test_signal(LF, 1)
    h = slepian_window(cap, LH).window()
    cfg = ExperimentConfig(LF, LH, cap, (0.0,), 1, 5)
    benchmark(cfg, s, h)  # fill the triple-product cache
    assert _peak_in_matrices(lambda: benchmark(cfg, s, h)) <= 5.0
