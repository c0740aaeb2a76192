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

from pathlib import Path

import numpy as np

from .filtering import SpectralCovariance
from .sphere import SphericalCoeffs

# Relative tolerance of the positive-semidefinite check on covariance files.
PSD_TOL = 1e-10


def write_coeffs(path, coeffs: SphericalCoeffs) -> None:
    L = coeffs.bandlimit
    lines = [f"slm v1 L={L}"]
    for n, c in enumerate(coeffs.data):
        lines.append(f"{n} {c.real:.17g} {c.imag:.17g}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_coeffs(path) -> SphericalCoeffs:
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty coefficient file")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "slm" or head[1] != "v1" or not head[2].startswith("L="):
        raise ValueError(f"{path}: bad coefficient header {lines[0]!r}")
    L = int(head[2][2:])
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != L * L:
        raise ValueError(f"{path}: expected {L * L} coefficient lines, found {len(body)}")
    data = np.empty(L * L, dtype=np.complex128)
    for i, ln in enumerate(body):
        parts = ln.split()
        if len(parts) != 3:
            raise ValueError(f"{path}: bad coefficient line {ln!r}")
        n = int(parts[0])
        if n != i:
            raise ValueError(f"{path}: coefficient lines out of order at {ln!r}")
        data[i] = complex(float(parts[1]), float(parts[2]))
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
    if not lines:
        raise ValueError(f"{path}: empty covariance file")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "cov" or head[1] != "v1" or not head[2].startswith("L="):
        raise ValueError(f"{path}: bad covariance header {lines[0]!r}")
    L = int(head[2][2:])
    n = L * L
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != n:
        raise ValueError(f"{path}: expected {n} covariance rows, found {len(body)}")
    mat = np.empty((n, n), dtype=np.complex128)
    for i, ln in enumerate(body):
        vals = np.array(ln.split(), dtype=np.float64)
        if vals.size != 2 * n:
            raise ValueError(f"{path}: covariance row {i} has {vals.size} values, expected {2 * n}")
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
