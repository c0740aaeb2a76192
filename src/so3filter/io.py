"""File formats: coefficient vectors, covariances, filters, raster output.

Text formats
------------
* Coefficients: header ``slm v1 L=<int>`` then ``L**2`` lines ``n re im`` in
  increasing ``n``.
* Covariance: header ``cov v1 L=<int>`` then ``L**2`` rows of ``2*L**2``
  floats (``re im`` pairs, row-major).

Binary formats
--------------
* Filter: ASCII header line ``jfilt v1 <lh> <lg>`` followed, for each
  ``(u, p)`` block in order, by rank (int32 LE), condition (float64 LE),
  pseudo-inverse flag (uint8) and the raw ``(2p+1)**2`` complex128 block.
  Round-trips are bit exact.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .filtering import FilterDiagnostics, JointFilter, SpectralCovariance
from .sphere import SphericalCoeffs


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
    return SpectralCovariance(L, mat)


def write_filter(path, filt: JointFilter) -> None:
    with open(path, "wb") as fh:
        fh.write(f"jfilt v1 {filt.lh} {filt.lg}\n".encode("ascii"))
        for u in range(filt.lg**2):
            for p in range(filt.lh):
                fh.write(struct.pack("<id B", int(filt.rank[u, p]), float(filt.cond[u, p]), int(filt.pinv_flag[u, p])))
                fh.write(np.ascontiguousarray(filt.block(u, p), dtype="<c16").tobytes())


def read_filter(path) -> JointFilter:
    with open(path, "rb") as fh:
        head = fh.readline().decode("ascii").split()
        if len(head) != 4 or head[0] != "jfilt" or head[1] != "v1":
            raise ValueError(f"{path}: bad filter header")
        lh, lg = int(head[2]), int(head[3])
        zeta = np.zeros((lg * lg, lh, 2 * lh - 1, 2 * lh - 1), dtype=np.complex128)
        filt = JointFilter(lh, lg, zeta, FilterDiagnostics.zeros(lg, lh))
        rec = struct.Struct("<id B")
        for u in range(lg * lg):
            for p in range(lh):
                raw = fh.read(rec.size)
                if len(raw) != rec.size:
                    raise ValueError(f"{path}: truncated filter file")
                filt.rank[u, p], filt.cond[u, p], filt.pinv_flag[u, p] = rec.unpack(raw)
                nbytes = (2 * p + 1) ** 2 * 16
                raw = fh.read(nbytes)
                if len(raw) != nbytes:
                    raise ValueError(f"{path}: truncated filter file")
                filt.block(u, p)[...] = np.frombuffer(raw, dtype="<c16").reshape(2 * p + 1, 2 * p + 1)
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes in filter file")
    return filt


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
