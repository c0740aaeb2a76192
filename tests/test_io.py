"""File formats: headers, round-trips, rejection of malformed input."""

import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from so3filter import SpectralCovariance, SphericalCoeffs
from so3filter.filtering import PSD_TOL
from so3filter.io import (
    read_coeffs,
    read_covariance,
    write_coeffs,
    write_covariance,
    write_pgm,
)

from helpers import random_coeffs, random_psd


@pytest.mark.parametrize("bandlimit", ["x", "0", "-2", "+4", "1_6", "\u0664"])
@pytest.mark.parametrize("tag", ["slm", "cov"])
def test_rejects_bad_header_bandlimit(tmp_path, tag, bandlimit):
    path = tmp_path / f"bad.{tag}"
    path.write_text(f"{tag} v1 L={bandlimit}\n0 0 0\n")
    reader = {"slm": read_coeffs, "cov": read_covariance}[tag]
    with pytest.raises(ValueError, match="not a positive integer") as exc:
        reader(path)
    assert str(path) in str(exc.value)


@pytest.mark.parametrize(
    "bad_line, detail",
    [("1 abc 0", "could not convert"), ("x 0 0", "could not convert"), ("1 nan 0", "non-finite")],
)
def test_malformed_coefficient_names_file_and_line(tmp_path, bad_line, detail):
    path = tmp_path / "bad.slm"
    path.write_text("\n".join(["slm v1 L=2", "0 1 0", "", bad_line, "2 0 0", "3 0 0"]) + "\n")
    with pytest.raises(ValueError, match=detail) as exc:
        read_coeffs(path)
    assert str(exc.value).startswith(f"{path}: line 4: ")


@pytest.mark.parametrize("bad, detail", [("abc", "could not convert"), ("inf", "non-finite")])
def test_malformed_covariance_names_file_and_line(tmp_path, bad, detail):
    path = tmp_path / "bad.cov"
    path.write_text(f"cov v1 L=1\n\n1 {bad}\n")
    with pytest.raises(ValueError, match=detail) as exc:
        read_covariance(path)
    assert str(exc.value).startswith(f"{path}: line 3: ")


READERS = {"slm": (read_coeffs, "coefficient"), "cov": (read_covariance, "covariance")}


@pytest.mark.parametrize("tag, row", [("slm", "0 abc 0"), ("cov", "1 abc")])
def test_row_count_is_reported_before_a_malformed_row(tmp_path, tag, row):
    path = tmp_path / f"bad.{tag}"
    path.write_text(f"{tag} v1 L=1\n" + f"{row}\n" * 3)
    reader, kind = READERS[tag]
    with pytest.raises(ValueError) as exc:
        reader(path)
    assert str(exc.value) == f"{path}: expected 1 {kind} rows, found 3"


@pytest.mark.parametrize(
    "tag, row", [("slm", "0 1"), ("slm", "0 abc"), ("cov", "1 0"), ("cov", "1 abc")]
)
def test_oversized_header_is_rejected_without_allocating(tmp_path, tag, row):
    # L = 1000 would need a 14.6 TiB matrix or a 24 MB table; the file holds one short row
    path = tmp_path / f"bad.{tag}"
    path.write_text(f"{tag} v1 L=1000\n{row}\n")
    reader, kind = READERS[tag]
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as exc:
            reader(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == f"{path}: expected 1000000 {kind} rows, found 1"
    assert peak < 2**20


@pytest.mark.parametrize(
    "tag, text",
    [
        ("slm", "slm v1 L=1\n0 0.33333333333333331 -2.5e-300\n"),
        ("cov", "cov v1 L=1\n0.33333333333333331 0\n"),
    ],
)
def test_writers_are_byte_exact_at_bandlimit_one(tmp_path, tag, text):
    path = tmp_path / f"one.{tag}"
    if tag == "slm":
        write_coeffs(path, SphericalCoeffs(1, np.array([1 / 3 - 2.5e-300j])))
    else:
        write_covariance(path, SpectralCovariance(1, np.array([[1 / 3]])))
    assert path.read_bytes() == text.encode("ascii")


@pytest.mark.parametrize("tag", ["slm", "cov"])
def test_roundtrip_skips_blank_lines_between_rows(tmp_path, tag):
    path = tmp_path / f"gaps.{tag}"
    if tag == "slm":
        value = random_coeffs(2, 7)
        write_coeffs(path, value)
        expected = value.data
    else:
        value = SpectralCovariance(2, random_psd(4, 7))
        write_covariance(path, value)
        expected = value.matrix
    head, *rows = path.read_text().splitlines()
    path.write_text(head + "\n\n" + "\n \t\n".join(rows) + "\n\n")
    back = READERS[tag][0](path)
    np.testing.assert_array_equal(back.data if tag == "slm" else back.matrix, expected)


def _cov_text(mat: np.ndarray) -> str:
    """A ``.cov`` file's text for any square matrix, written without ``SpectralCovariance``."""
    n = mat.shape[0]
    pairs = np.stack([mat.real, mat.imag], axis=-1).reshape(n, 2 * n)
    rows = (" ".join(f"{v:.17g}" for v in row) for row in pairs)
    return f"cov v1 L={math.isqrt(n)}\n" + "\n".join(rows) + "\n"


@pytest.mark.parametrize("entry, detail", [((0, 1), "not Hermitian"), ((0, 0), "not positive semidefinite")])
def test_rejected_covariance_names_its_file(tmp_path, entry, detail):
    mat = np.eye(4, dtype=complex)
    mat[entry] = -1.0
    path = tmp_path / "bad.cov"
    path.write_text(_cov_text(mat))
    with pytest.raises(ValueError, match=detail) as exc:
        read_covariance(path)
    assert str(exc.value).startswith(f"{path}: ")
    assert "\n" not in str(exc.value)


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
        path.write_text("slm v1 L=2\n0 0 0\n\n3 0 0\n1 0 0\n2 0 0\n")
        with pytest.raises(ValueError) as exc:
            read_coeffs(path)
        assert str(exc.value) == f"{path}: coefficient row 1 has index 3, expected 1"

    def test_index_is_compared_by_value(self, tmp_path):
        path = tmp_path / "c.slm"
        path.write_text("slm v1 L=1\n0.0 1 2\n")
        np.testing.assert_array_equal(read_coeffs(path).data, [1 + 2j])


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

    def test_shortest_valid_file_is_read(self, tmp_path):
        # one-character values, single separators, no final newline: the
        # 4 n^2 - 1 body bytes that the size check takes as its floor
        L, n = 2, 4
        path = tmp_path / "c.cov"
        rows = [" ".join("1" if k == 2 * i else "0" for k in range(2 * n)) for i in range(n)]
        path.write_text(f"cov v1 L={L}\n" + "\n".join(rows))
        assert path.stat().st_size == len(f"cov v1 L={L}\n") + 4 * n * n - 1
        np.testing.assert_array_equal(read_covariance(path).matrix, np.eye(n))

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
        # The type refuses the matrix, so the file is written from the text.
        n = L * L
        rng = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        w = rng.uniform(1.0, 10.0, n)
        w[0] = -depth * w.max()
        mat = (Q * w) @ Q.conj().T
        detail = "covariance matrix is not positive semidefinite"
        with pytest.raises(ValueError, match=detail):
            SpectralCovariance(L, mat)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.cov"
            path.write_text(_cov_text(mat))
            with pytest.raises(ValueError, match=f"c.cov: {detail}"):
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
