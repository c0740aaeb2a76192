"""File formats: headers, round-trips, rejection of malformed input."""

import numpy as np
import pytest

from so3filter import SpectralCovariance, design_filter
from so3filter.io import (
    read_coeffs,
    read_covariance,
    read_filter,
    write_coeffs,
    write_covariance,
    write_filter,
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


class TestFilterFiles:
    def test_bit_exact_roundtrip(self, tmp_path):
        cs = SpectralCovariance(3, random_psd(9, 4, rank=1))
        cz = SpectralCovariance(3, 0.3 * random_psd(9, 5))
        filt = design_filter(cs, cz, 2)
        path = tmp_path / "f.jfilt"
        write_filter(path, filt)
        back = read_filter(path)
        assert back.lh == filt.lh and back.lg == filt.lg
        assert np.array_equal(back.zeta, filt.zeta)
        assert np.array_equal(back.pinv_flag, filt.pinv_flag)
        assert np.array_equal(back.rank, filt.rank)
        assert np.array_equal(back.cond, filt.cond)
        # byte-for-byte stable across rewrites
        path2 = tmp_path / "g.jfilt"
        write_filter(path2, back)
        assert path.read_bytes() == path2.read_bytes()

    def test_rejects_truncation(self, tmp_path):
        cs = SpectralCovariance(2, random_psd(4, 6))
        filt = design_filter(cs, SpectralCovariance.zeros(2), 2)
        path = tmp_path / "f.jfilt"
        write_filter(path, filt)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ValueError):
            read_filter(path)


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
