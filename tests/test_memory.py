"""Covariance-sized memory on the way into the filter, at desk scale (lf = 16).

Each test measures a ``tracemalloc`` peak in units of one ``n x n`` complex
matrix (``n = lf**2``): the arrays a step allocates, its result included.  At
the full scale (``lf = 64``) one unit is 268 MB.
"""

import math
import tracemalloc

import numpy as np

from so3filter import (
    NoiseModel,
    PolarCap,
    SpectralCovariance,
    SphericalCoeffs,
    build_signal_covariance,
    calibrate_snr,
    denoise,
    make_test_signal,
    slepian_window,
    synth_noise,
)
from so3filter.io import read_covariance, write_covariance

from helpers import random_psd

LF = 16


def _peak_in_matrices(fn) -> float:
    """Peak traced allocation while ``fn()`` runs, in ``LF**2 x LF**2`` complex matrices."""
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (16 * LF**4)


def test_spectral_covariance_allocates_only_its_matrix():
    mat = random_psd(LF * LF, 1)
    assert _peak_in_matrices(lambda: SpectralCovariance(LF, mat)) <= 1.5


def test_noise_model_covariance_stays_within_four_matrices():
    assert _peak_in_matrices(lambda: NoiseModel.random(LF, 3).covariance()) <= 4.0


def test_warm_desk_denoise_adds_only_the_stacked_pair():
    s = make_test_signal(LF, 1)
    h = slepian_window(PolarCap(math.radians(15.0)), 8).window()
    model = NoiseModel.random(LF, 2)
    z, alpha = calibrate_snr(s, synth_noise(model, 3), 0.0)
    cs = build_signal_covariance(s)
    cz = SpectralCovariance(LF, alpha**2 * model.covariance().matrix)
    f = SphericalCoeffs(LF, s.data + z.data)
    denoise(f, cs, cz, h)  # fill the triple-product cache
    assert _peak_in_matrices(lambda: denoise(f, cs, cz, h)) <= 2.75


def test_read_covariance_streams_the_file(tmp_path):
    path = tmp_path / "desk.cov"
    write_covariance(path, NoiseModel.random(LF, 3).covariance())
    assert _peak_in_matrices(lambda: read_covariance(path)) <= 3.0
    assert np.array_equal(read_covariance(path).matrix, NoiseModel.random(LF, 3).covariance().matrix)
