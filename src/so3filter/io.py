"""File formats: coefficient vectors, covariances, raster output.

* Coefficients: header ``slm v1 L=<int>`` then ``L**2`` lines ``n re im`` in
  increasing ``n``.
* Covariance: header ``cov v1 L=<int>`` then ``L**2`` rows of ``2*L**2``
  floats (``re im`` pairs, row-major).  The matrix goes to
  ``SpectralCovariance``, which rejects one that is not Hermitian positive
  semidefinite; the reader adds only the file's path to its message.
* Rasters: binary 8-bit PGM.
"""

from __future__ import annotations

import math
import os
from pathlib import Path

import numpy as np

from .filtering import SpectralCovariance
from .sphere import SphericalCoeffs


def _header_bandlimit(path, head: str, tag: str, kind: str) -> int:
    """Bandlimit ``L`` of a ``<tag> v1 L=<int>`` first line; errors name ``path``.

    ``head`` is the line as ``readline`` returns it: empty at end of file.
    """
    if not head:
        raise ValueError(f"{path}: empty {kind} file")
    head = head.rstrip("\n")
    fields = head.split()
    if len(fields) != 3 or fields[0] != tag or fields[1] != "v1" or not fields[2].startswith("L="):
        raise ValueError(f"{path}: bad {kind} header {head!r}")
    digits = fields[2][2:]
    # int() would also take a sign, underscores and non-ASCII digits
    L = int(digits) if digits.isascii() and digits.isdigit() else 0
    if L < 1:
        raise ValueError(f"{path}: {kind} header bandlimit {fields[2]!r} is not a positive integer")
    return L


def write_coeffs(path, coeffs: SphericalCoeffs) -> None:
    L = coeffs.bandlimit
    lines = [f"slm v1 L={L}"]
    for n, c in enumerate(coeffs.data):
        lines.append(f"{n} {c.real:.17g} {c.imag:.17g}")
    Path(path).write_text("\n".join(lines) + "\n")


def _body(fh):
    """Nonblank lines after the header, with their 1-based line numbers, read lazily."""
    return ((num, ln.rstrip("\n")) for num, ln in enumerate(fh, start=2) if ln.strip())


def read_coeffs(path) -> SphericalCoeffs:
    with open(path) as fh:
        L = _header_bandlimit(path, fh.readline(), "slm", "coefficient")
        body = list(_body(fh))
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


def _covariance_rows(path, body, n: int, size: int) -> np.ndarray:
    """The ``n x n`` matrix of a covariance file body, parsed one row at a time.

    Rows go straight into the matrix; the file's text is never held whole.
    A wrong row count is reported before any malformed row, as it would be
    if the rows were counted first.  ``n`` rows of ``2n`` values take at
    least ``4 n^2 - 1`` bytes, so a file of ``size`` bytes below that cannot
    hold the matrix: its rows are checked without allocating one.
    """
    if size >= 4 * n * n - 1:
        mat = np.empty((n, n), dtype=np.complex128)
        pairs = mat.view(np.float64)  # row i holds re, im pairs, as the file does
    else:
        mat = pairs = None
    found = 0
    bad = None  # the first malformed row's error, raised once the count is right
    for num, ln in body:
        i, found = found, found + 1
        if i >= n or bad is not None:
            continue
        try:
            vals = np.array(ln.split(), dtype=np.float64)
        except ValueError as exc:
            bad = f"line {num}: {exc}"
            continue
        if vals.size != 2 * n:
            bad = f"line {num}: covariance row {i} has {vals.size} values, expected {2 * n}"
        elif not np.isfinite(vals).all():
            bad = f"line {num}: covariance row {i} has non-finite entries"
        elif pairs is not None:
            pairs[i] = vals
    if found != n:
        raise ValueError(f"{path}: expected {n} covariance rows, found {found}")
    if bad is not None:
        raise ValueError(f"{path}: {bad}")
    return mat


def covariance_bandlimit(path) -> int:
    """Bandlimit of a covariance file, from its header alone."""
    with open(path) as fh:
        return _header_bandlimit(path, fh.readline(), "cov", "covariance")


def read_covariance(path) -> SpectralCovariance:
    with open(path) as fh:
        L = _header_bandlimit(path, fh.readline(), "cov", "covariance")
        size = os.fstat(fh.fileno()).st_size
        mat = _covariance_rows(path, _body(fh), L * L, size)
    try:
        return SpectralCovariance(L, mat)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


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
