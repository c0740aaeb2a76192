"""File formats: coefficient vectors, covariances, raster output.

Both text formats are a header ``<tag> v1 L=<int>`` then ``L**2`` rows of
finite floats, written in ``.17g`` by one writer and read by one reader.

* Coefficients (``slm``): rows ``n re im``, the index ``n`` equal in value
  to the row number.
* Covariance (``cov``): rows of ``2*L**2`` floats (``re im`` pairs,
  row-major).  The matrix goes to ``SpectralCovariance``, which rejects one
  that is not Hermitian positive semidefinite; the reader adds only the
  file's path to its message.
* Rasters: binary 8-bit PGM.
"""

from __future__ import annotations

import os

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


def _write_table(path, tag: str, L: int, table: np.ndarray) -> None:
    """A ``<tag> v1 L=<L>`` header, then one line per row of ``table`` in ``.17g``."""
    fmt = "{:.17g}".format
    with open(path, "w") as fh:
        fh.write(f"{tag} v1 L={L}\n")
        for row in table.tolist():
            fh.write(" ".join(map(fmt, row)) + "\n")


def _read_table(path, tag: str, kind: str, width) -> tuple[int, np.ndarray]:
    """``L`` and the ``(L**2, width(L**2))`` float rows of a ``<tag> v1 L=<int>`` file.

    Rows go straight into the table, and blank lines are skipped.  A wrong
    row count is reported before any malformed row, as it would be if the
    rows were counted first; a malformed row's error names its line.  ``n``
    rows of ``w`` values take at least ``2 n w - 1`` bytes, so a smaller file
    cannot hold the table: its rows are checked without allocating one.
    """
    with open(path) as fh:
        L = _header_bandlimit(path, fh.readline(), tag, kind)
        n = L * L
        w = width(n)
        table = np.empty((n, w)) if os.fstat(fh.fileno()).st_size >= 2 * n * w - 1 else None
        found = 0
        bad = None  # the first malformed row's error, raised once the count is right
        for num, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            i, found = found, found + 1
            if i >= n or bad is not None:
                continue
            try:
                vals = np.array(line.split(), dtype=np.float64)
            except ValueError as exc:
                bad = f"line {num}: {exc}"
                continue
            if vals.size != w:
                bad = f"line {num}: {kind} row {i} has {vals.size} values, expected {w}"
            elif not np.isfinite(vals).all():
                bad = f"line {num}: {kind} row {i} has non-finite entries"
            elif table is not None:
                table[i] = vals
    if found != n:
        raise ValueError(f"{path}: expected {n} {kind} rows, found {found}")
    if bad is not None:
        raise ValueError(f"{path}: {bad}")
    return L, table


def write_coeffs(path, coeffs: SphericalCoeffs) -> None:
    d = coeffs.data
    _write_table(path, "slm", coeffs.bandlimit, np.column_stack([np.arange(d.size), d.real, d.imag]))


def read_coeffs(path) -> SphericalCoeffs:
    """Rows ``n re im``; the index ``n`` is compared by value with the row number."""
    L, table = _read_table(path, "slm", "coefficient", lambda n: 3)
    wrong = np.flatnonzero(table[:, 0] != np.arange(L * L))
    if wrong.size:
        i = wrong[0]
        raise ValueError(f"{path}: coefficient row {i} has index {table[i, 0]:.17g}, expected {i}")
    return SphericalCoeffs(L, np.ascontiguousarray(table[:, 1:]).view(np.complex128)[:, 0])


def write_covariance(path, cov: SpectralCovariance) -> None:
    _write_table(path, "cov", cov.bandlimit, cov.matrix.view(np.float64))


def covariance_bandlimit(path) -> int:
    """Bandlimit of a covariance file, from its header alone."""
    with open(path) as fh:
        return _header_bandlimit(path, fh.readline(), "cov", "covariance")


def read_covariance(path) -> SpectralCovariance:
    L, table = _read_table(path, "cov", "covariance", lambda n: 2 * n)
    try:
        return SpectralCovariance(L, table.view(np.complex128))
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
