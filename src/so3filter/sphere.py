"""Spherical-harmonic coefficients and their synthesis at given angles.

The basis is the orthonormal complex spherical harmonics with the
Condon-Shortley phase, so ``conj(Y_l^m) = (-1)^m Y_l^{-m}``.  Coefficient
vectors are flat, ordered by ``n = l(l+1) + m``.  This module owns that
layout for the package: a cached read-only ``(l, m)`` index per bandlimit,
and a signed table ``P[n, i]`` with ``Y_n(theta_i, phi) = P[n, i] exp(i m phi)``,
the one place where an order ``-m`` takes its ``(-1)^m``.  Synthesis and the
Slepian kernels read the table row by row in flat order.

Pointwise synthesis at arbitrary angles serves raster rendering; it builds
one table column per distinct colatitude.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

_SQRT_4PI = math.sqrt(4.0 * math.pi)


@dataclass(frozen=True)
class SphericalCoeffs:
    """Harmonic coefficients of a signal bandlimited to ``bandlimit``.

    ``data`` is a complex vector of length ``bandlimit**2`` in ``n`` order.
    """

    bandlimit: int
    data: np.ndarray

    def __post_init__(self):
        if self.bandlimit < 1:
            raise ValueError("bandlimit must be positive")
        data = np.asarray(self.data, dtype=np.complex128)
        if data.shape != (self.bandlimit**2,):
            raise ValueError(
                f"expected {self.bandlimit**2} coefficients, got shape {data.shape}"
            )
        if not np.isfinite(data).all():
            raise ValueError("coefficients have non-finite entries")
        data = data.copy()
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    @classmethod
    def zeros(cls, bandlimit: int) -> "SphericalCoeffs":
        return cls(bandlimit, np.zeros(bandlimit**2, dtype=np.complex128))

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))

    def degree_slice(self, ell: int) -> np.ndarray:
        """Coefficients of degree ``ell``, orders ``-ell..ell``."""
        if not 0 <= ell < self.bandlimit:
            raise ValueError(f"degree {ell} is outside [0, {self.bandlimit})")
        return self.data[ell * ell : (ell + 1) * (ell + 1)]


@functools.lru_cache(maxsize=None)
def _lm_index(bandlimit: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only degree ``l`` and order ``m`` of every flat index ``n < bandlimit**2``."""
    ls = np.repeat(np.arange(bandlimit), 2 * np.arange(bandlimit) + 1)
    ms = np.arange(bandlimit * bandlimit) - ls * (ls + 1)
    for arr in (ls, ms):
        arr.setflags(write=False)
    return ls, ms


def _ylm_table(bandlimit: int, x: np.ndarray) -> np.ndarray:
    """Colatitude part of every harmonic below ``bandlimit`` at ``x = cos(theta)``.

    Returns ``P[n, i]`` in flat order with ``Y_n(theta_i, phi) = P[n, i] exp(i m phi)``,
    Condon-Shortley phase included.  The normalised three-term degree
    recursion fills the orders ``m >= 0`` one degree at a time; row
    ``l(l+1) - m`` is then ``(-1)^m`` times row ``l(l+1) + m``.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    s = np.sqrt(np.maximum(1.0 - x * x, 0.0))
    ls, ms = _lm_index(bandlimit)
    l2, m2 = ls * ls, ms * ms
    # Recursion weights of every row; only the rows with |m| <= l - 2 are read.
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.sqrt((4.0 * l2 - 1.0) / (l2 - m2))[:, None]
        b = np.sqrt(
            (2.0 * ls + 1.0) * ((ls - 1.0) ** 2 - m2) / ((2.0 * ls - 3.0) * (l2 - m2))
        )[:, None]
    sign = np.where(ms % 2, -1.0, 1.0)[:, None]
    P = np.empty((bandlimit * bandlimit, x.size))
    P[0] = 1.0 / _SQRT_4PI
    for ell in range(1, bandlimit):
        n = ell * (ell + 1)
        rows = slice(n, n + ell - 1)  # orders 0 .. ell - 2 from degrees ell - 1 and ell - 2
        prev, prev2 = P[n - 2 * ell : n - ell - 1], P[n - 4 * ell + 2 : n - 3 * ell + 1]
        P[rows] = a[rows] * x * prev - b[rows] * prev2
        P[n + ell - 1] = math.sqrt(2 * ell + 1) * x * P[n - ell - 1]
        P[n + ell] = -math.sqrt((2 * ell + 1) / (2.0 * ell)) * s * P[n - ell - 1]
        P[ell * ell : n] = sign[ell * ell : n] * P[n + ell : n : -1]  # orders -ell .. -1
    return P


def _order_profiles(coeffs: SphericalCoeffs, tbl: np.ndarray) -> np.ndarray:
    """``prof[m + L - 1, i] = sum_l (coeffs)_l^m P[l(l+1) + m, i]``, one degree slice at a time."""
    L = coeffs.bandlimit
    prof = np.zeros((2 * L - 1, tbl.shape[1]), dtype=np.complex128)
    for ell in range(L):
        rows = tbl[ell * ell : (ell + 1) ** 2]
        prof[L - 1 - ell : L + ell] += coeffs.degree_slice(ell)[:, None] * rows
    return prof


def synthesize(coeffs: SphericalCoeffs, theta, phi) -> np.ndarray:
    """Pointwise synthesis at arbitrary angles; broadcasts over inputs.

    Colatitudes must lie in ``[0, pi]``: outside it, ``cos(theta)`` names a
    point on another meridian.  Longitudes must be finite.
    """
    theta, phi = np.broadcast_arrays(
        np.asarray(theta, dtype=np.float64), np.asarray(phi, dtype=np.float64)
    )
    if not np.all((theta >= 0.0) & (theta <= math.pi)):
        raise ValueError("colatitude must lie in [0, pi]")
    if not np.all(np.isfinite(phi)):
        raise ValueError("longitude must be finite")
    L = coeffs.bandlimit
    # One table column per distinct colatitude: a raster row shares its column.
    cols, col = np.unique(theta, return_inverse=True)
    prof = _order_profiles(coeffs, _ylm_table(L, np.cos(cols)))
    phase = np.exp(1j * np.outer(np.arange(1 - L, L), phi.ravel()))
    out = np.einsum("mi,mi->i", prof[:, col.ravel()], phase).reshape(theta.shape)
    return complex(out[()]) if out.ndim == 0 else out
