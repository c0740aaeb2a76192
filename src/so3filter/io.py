"""File formats: coefficient vectors, covariances, raster output.

* Coefficients: header ``slm v1 L=<int>`` then ``L**2`` lines ``n re im`` in
  increasing ``n``.
* Covariance: header ``cov v1 L=<int>`` then ``L**2`` rows of ``2*L**2``
  floats (``re im`` pairs, row-major).  The matrix must be Hermitian positive
  semidefinite: eigenvalues below ``-PSD_TOL`` times the largest magnitude
  are rejected.
* Rasters: binary 8-bit PGM.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .filtering import SpectralCovariance
from .sphere import SphericalCoeffs

# Relative tolerance of the positive-semidefinite check on covariance files.
PSD_TOL = 1e-10


def _header_bandlimit(path, lines: list[str], tag: str, kind: str) -> int:
    """Bandlimit ``L`` of a ``<tag> v1 L=<int>`` header; errors name ``path``."""
    if not lines:
        raise ValueError(f"{path}: empty {kind} file")
    head = lines[0].split()
    if len(head) != 3 or head[0] != tag or head[1] != "v1" or not head[2].startswith("L="):
        raise ValueError(f"{path}: bad {kind} header {lines[0]!r}")
    try:
        L = int(head[2][2:])
    except ValueError:
        L = 0
    if L < 1:
        raise ValueError(f"{path}: {kind} header bandlimit {head[2]!r} is not a positive integer")
    return L


def write_coeffs(path, coeffs: SphericalCoeffs) -> None:
    L = coeffs.bandlimit
    lines = [f"slm v1 L={L}"]
    for n, c in enumerate(coeffs.data):
        lines.append(f"{n} {c.real:.17g} {c.imag:.17g}")
    Path(path).write_text("\n".join(lines) + "\n")


def _body(lines: list[str]) -> list[tuple[int, str]]:
    """Nonblank lines after the header, with their 1-based line numbers."""
    return [(num, ln) for num, ln in enumerate(lines[1:], start=2) if ln.strip()]


def read_coeffs(path) -> SphericalCoeffs:
    lines = Path(path).read_text().splitlines()
    L = _header_bandlimit(path, lines, "slm", "coefficient")
    body = _body(lines)
    if len(body) != L * L:
        raise ValueError(f"{path}: expected {L * L} coefficient lines, found {len(body)}")
    data = np.empty(L * L, dtype=np.complex128)
    for i, (num, ln) in enumerate(body):
        parts = ln.split()
        if len(parts) != 3:
            raise ValueError(f"{path}: line {num}: bad coefficient line {ln!r}")
        try:
            n, re, im = int(parts[0]), float(parts[1]), float(parts[2])
        except ValueError as exc:
            raise ValueError(f"{path}: line {num}: {exc}") from None
        if n != i:
            raise ValueError(f"{path}: line {num}: coefficient lines out of order at {ln!r}")
        if not (math.isfinite(re) and math.isfinite(im)):
            raise ValueError(f"{path}: line {num}: non-finite coefficient {ln!r}")
        data[i] = complex(re, im)
    return SphericalCoeffs(L, data)


def write_covariance(path, cov: SpectralCovariance) -> None:
    L = cov.bandlimit
    with open(path, "w") as fh:
        fh.write(f"cov v1 L={L}\n")
        for row in cov.matrix:
            fh.write(" ".join(f"{v.real:.17g} {v.imag:.17g}" for v in row))
            fh.write("\n")


def read_covariance(path) -> SpectralCovariance:
    lines = Path(path).read_text().splitlines()
    L = _header_bandlimit(path, lines, "cov", "covariance")
    n = L * L
    body = _body(lines)
    if len(body) != n:
        raise ValueError(f"{path}: expected {n} covariance rows, found {len(body)}")
    mat = np.empty((n, n), dtype=np.complex128)
    for i, (num, ln) in enumerate(body):
        try:
            vals = np.array(ln.split(), dtype=np.float64)
        except ValueError as exc:
            raise ValueError(f"{path}: line {num}: {exc}") from None
        if vals.size != 2 * n:
            raise ValueError(
                f"{path}: line {num}: covariance row {i} has {vals.size} values, expected {2 * n}"
            )
        if not np.isfinite(vals).all():
            raise ValueError(f"{path}: line {num}: covariance row {i} has non-finite entries")
        mat[i] = vals[0::2] + 1j * vals[1::2]
    cov = SpectralCovariance(L, mat)
    w = np.linalg.eigvalsh(cov.matrix)
    if w[0] < -PSD_TOL * np.abs(w).max():
        raise ValueError(f"{path}: covariance is not positive semidefinite (min eigenvalue {w[0]:.3g})")
    return cov


def write_pgm(path, values: np.ndarray) -> None:
    """8-bit binary PGM raster of a real 2-D array, min-max normalised."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError("raster values must be 2-D")
    lo = float(values.min())
    hi = float(values.max())
    if hi > lo:
        scaled = np.round((values - lo) / (hi - lo) * 255.0)
    else:
        scaled = np.zeros_like(values)
    data = scaled.astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{values.shape[1]} {values.shape[0]}\n255\n".encode("ascii"))
        fh.write(data.tobytes())
