"""File formats: headers, round-trips, rejection of malformed input."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from so3filter import SpectralCovariance
from so3filter.io import (
    PSD_TOL,
    read_coeffs,
    read_covariance,
    write_coeffs,
    write_covariance,
    write_pgm,
)

from helpers import random_coeffs, random_psd


class TestCoeffFiles:
    def test_roundtrip(self, tmp_path):
        coeffs = random_coeffs(5, 1)
        path = tmp_path / "sig.slm"
        write_coeffs(path, coeffs)
        back = read_coeffs(path)
        assert back.bandlimit == 5
        np.testing.assert_array_equal(back.data, coeffs.data)

    def test_header_format(self, tmp_path):
        path = tmp_path / "sig.slm"
        write_coeffs(path, random_coeffs(3, 2))
        first = path.read_text().splitlines()[0]
        assert first == "slm v1 L=3"

    def test_rejects_length_mismatch(self, tmp_path):
        path = tmp_path / "bad.slm"
        lines = ["slm v1 L=2", "0 1 0", "1 0 0", "2 0 0"]  # one line short
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            read_coeffs(path)

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.slm"
        path.write_text("nope v1 L=2\n" + "0 0 0\n" * 4)
        with pytest.raises(ValueError):
            read_coeffs(path)

    def test_rejects_out_of_order_lines(self, tmp_path):
        path = tmp_path / "bad.slm"
        path.write_text("slm v1 L=1\n3 0 0\n")
        with pytest.raises(ValueError):
            read_coeffs(path)


class TestCovarianceFiles:
    def test_roundtrip(self, tmp_path):
        cov = SpectralCovariance(3, random_psd(9, 3))
        path = tmp_path / "c.cov"
        write_covariance(path, cov)
        back = read_covariance(path)
        np.testing.assert_array_equal(back.matrix, cov.matrix)
        assert path.read_text().splitlines()[0] == "cov v1 L=3"

    def test_rejects_row_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.cov"
        path.write_text("cov v1 L=2\n" + "0 0 " * 4 + "\n")
        with pytest.raises(ValueError):
            read_covariance(path)

    def test_rejects_row_width_mismatch(self, tmp_path):
        path = tmp_path / "bad.cov"
        rows = ["1 0 0 0", "0 0 1 0"]
        path.write_text("cov v1 L=1\n" + "\n".join(rows) + "\n")
        with pytest.raises(ValueError):
            read_covariance(path)

    @given(st.integers(1, 3), st.data())
    @settings(max_examples=40, deadline=None)
    def test_psd_roundtrip_is_bit_exact(self, L, data):
        n = L * L
        rank = data.draw(st.integers(1, n))
        seed = data.draw(st.integers(0, 2**32 - 1))
        scale = data.draw(st.floats(1e-6, 1e6))
        rng = np.random.default_rng(seed)
        A = scale * (rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank)))
        cov = SpectralCovariance(L, A @ A.conj().T)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.cov"
            write_covariance(path, cov)
            back = read_covariance(path)
        np.testing.assert_array_equal(back.matrix, cov.matrix)

    @given(st.integers(1, 3), st.integers(0, 2**32 - 1), st.floats(1e3 * PSD_TOL, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_negative_eigenvalue_rejected(self, L, seed, depth):
        n = L * L
        rng = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        w = rng.uniform(1.0, 10.0, n)
        w[0] = -depth * w.max()
        cov = SpectralCovariance(L, (Q * w) @ Q.conj().T)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.cov"
            write_covariance(path, cov)
            with pytest.raises(ValueError, match="c.cov: covariance is not positive semidefinite"):
                read_covariance(path)


class TestPgm:
    def test_header_and_payload(self, tmp_path):
        path = tmp_path / "img.pgm"
        write_pgm(path, np.linspace(0, 1, 12).reshape(3, 4))
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n4 3\n255\n")
        assert len(raw) == len(b"P5\n4 3\n255\n") + 12

    def test_constant_image(self, tmp_path):
        path = tmp_path / "img.pgm"
        write_pgm(path, np.full((2, 2), 3.3))
        payload = path.read_bytes()[-4:]
        assert payload == bytes(4)
