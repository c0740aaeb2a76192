"""Spherical-harmonic analysis and synthesis on equiangular sampling grids.

The basis is the orthonormal complex spherical harmonics with the
Condon-Shortley phase, so ``conj(Y_l^m) = (-1)^m Y_l^{-m}``.  Coefficient
vectors are flat, ordered by ``n = l(l+1) + m``.  Sampling uses the
Driscoll-Healy equiangular grid of ``2L x 2L`` nodes whose closed-form ring
weights integrate every spherical harmonic of degree below ``2L`` exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .so3 import Rotation, wigner_d_stack

_SQRT_4PI = math.sqrt(4.0 * math.pi)


def flat_index(ell: int, m: int) -> int:
    """Flat coefficient index ``n = l(l+1) + m``."""
    if ell < 0 or abs(m) > ell:
        raise ValueError("need 0 <= |m| <= ell")
    return ell * (ell + 1) + m


def degree_and_order(n: int) -> tuple[int, int]:
    """Recover ``(l, m)`` from a flat index: ``l = floor(sqrt(n))``, ``m = n - l(l+1)``."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    ell = math.isqrt(n)
    return ell, n - ell * (ell + 1)


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

    @classmethod
    def unit(cls, bandlimit: int, n: int) -> "SphericalCoeffs":
        """Basis vector with a single unit entry at flat index ``n``."""
        data = np.zeros(bandlimit**2, dtype=np.complex128)
        data[n] = 1.0
        return cls(bandlimit, data)

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))

    def degree_slice(self, ell: int) -> np.ndarray:
        """Coefficients of degree ``ell``, orders ``-ell..ell``."""
        return self.data[ell * ell : (ell + 1) * (ell + 1)]


@dataclass(frozen=True)
class SphereGrid:
    """Equiangular quadrature grid exact for harmonics of degree < ``2*bandlimit``.

    ``thetas`` holds the ``2L`` ring colatitudes ``pi*j/(2L)`` and
    ``ring_weights`` the matching closed-form colatitude weights; ``phis``
    holds ``2L`` uniform longitudes.
    """

    bandlimit: int
    thetas: np.ndarray
    phis: np.ndarray
    ring_weights: np.ndarray

    @classmethod
    def for_bandlimit(cls, bandlimit: int) -> "SphereGrid":
        if bandlimit < 1:
            raise ValueError("bandlimit must be positive")
        L = bandlimit
        n = 2 * L
        j = np.arange(n)
        thetas = math.pi * j / n
        phis = 2.0 * math.pi * np.arange(n) / n
        k = np.arange(L)
        ring = (2.0 / L) * np.sin(thetas) * (
            np.sin(np.outer(thetas, 2 * k + 1)) / (2 * k + 1)
        ).sum(axis=1)
        for arr in (thetas, phis, ring):
            arr.setflags(write=False)
        return cls(L, thetas, phis, ring)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.thetas.size, self.phis.size)

    def node_weights(self) -> np.ndarray:
        """Per-node solid-angle quadrature weights, shape ``(n_theta, n_phi)``."""
        return np.broadcast_to(
            self.ring_weights[:, None] * (2.0 * math.pi / self.phis.size), self.shape
        )

    def integrate(self, samples: np.ndarray) -> complex:
        """Quadrature value of the integral of ``samples`` over the sphere."""
        samples = np.asarray(samples)
        if samples.shape != self.shape:
            raise ValueError("samples do not match the grid")
        return complex(np.sum(samples * self.node_weights()))


def _legendre_table(bandlimit: int, x: np.ndarray) -> np.ndarray:
    """Normalised associated Legendre values at ``x = cos(theta)``.

    Returns an array ``tbl[l, m, i]`` for ``0 <= m <= l < bandlimit`` holding
    the colatitude part of ``Y_l^m`` (Condon-Shortley phase included), built
    by the normalised three-term degree recursion.
    """
    L = bandlimit
    x = np.asarray(x, dtype=np.float64)
    s = np.sqrt(np.maximum(1.0 - x * x, 0.0))
    tbl = np.zeros((L, L, x.size))
    tbl[0, 0] = 1.0 / _SQRT_4PI
    for m in range(1, L):
        tbl[m, m] = -math.sqrt((2 * m + 1) / (2.0 * m)) * s * tbl[m - 1, m - 1]
    for m in range(L - 1):
        tbl[m + 1, m] = math.sqrt(2 * m + 3) * x * tbl[m, m]
    for m in range(L):
        for ell in range(m + 2, L):
            a = math.sqrt((4.0 * ell * ell - 1.0) / (ell * ell - m * m))
            b = math.sqrt(
                (2.0 * ell + 1.0)
                * ((ell - 1.0) ** 2 - m * m)
                / ((2.0 * ell - 3.0) * (ell * ell - m * m))
            )
            tbl[ell, m] = a * x * tbl[ell - 1, m] - b * tbl[ell - 2, m]
    return tbl


def eval_ylm(ell: int, m: int, theta, phi):
    """Spherical harmonic ``Y_l^m(theta, phi)``; broadcasts over angle arrays."""
    if ell < 0 or abs(m) > ell:
        raise ValueError("need 0 <= |m| <= ell")
    theta = np.asarray(theta, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    if np.any(theta < 0.0) or np.any(theta > math.pi):
        raise ValueError("colatitude must lie in [0, pi]")
    theta_b, phi_b = np.broadcast_arrays(theta, phi)
    tbl = _legendre_table(ell + 1, np.cos(theta_b.ravel()))
    leg = tbl[ell, abs(m)]
    sign = 1.0 if m >= 0 or m % 2 == 0 else -1.0
    vals = sign * leg * np.exp(1j * m * phi_b.ravel())
    out = vals.reshape(theta_b.shape)
    return complex(out[()]) if out.ndim == 0 else out


def forward_sht(samples: np.ndarray, grid: SphereGrid, bandlimit: int | None = None) -> SphericalCoeffs:
    """Harmonic coefficients of bandlimited ``samples`` given on ``grid``.

    Exact (to rounding) when the signal is bandlimited to ``bandlimit`` and
    ``bandlimit <= grid.bandlimit``.
    """
    L = grid.bandlimit if bandlimit is None else int(bandlimit)
    samples = np.asarray(samples, dtype=np.complex128)
    if samples.shape != grid.shape:
        raise ValueError("samples do not match the grid")
    if L < 1 or L > grid.bandlimit:
        raise ValueError("bandlimit exceeds the grid design bandlimit")
    tbl = _legendre_table(L, np.cos(grid.thetas))
    weighted = samples * grid.node_weights()
    phase = np.exp(-1j * np.outer(grid.phis, np.arange(L)))
    gpos = weighted @ phase          # (n_theta, L): sum_k w f exp(-i m phi)
    gneg = weighted @ np.conj(phase)
    coeffs = np.zeros(L * L, dtype=np.complex128)
    for m in range(L):
        ls = np.arange(m, L)
        coeffs[ls * (ls + 1) + m] = tbl[m:, m] @ gpos[:, m]
        if m > 0:
            sign = 1.0 if m % 2 == 0 else -1.0
            coeffs[ls * (ls + 1) - m] = sign * (tbl[m:, m] @ gneg[:, m])
    return SphericalCoeffs(L, coeffs)


def inverse_sht(coeffs: SphericalCoeffs, grid: SphereGrid) -> np.ndarray:
    """Sample the signal with the given coefficients on every grid node."""
    L = coeffs.bandlimit
    if L > grid.bandlimit:
        raise ValueError("grid design degree below the coefficient bandlimit")
    tbl = _legendre_table(L, np.cos(grid.thetas))
    profiles = np.zeros((grid.thetas.size, 2 * L - 1), dtype=np.complex128)
    for m in range(L):
        ls = np.arange(m, L)
        profiles[:, L - 1 + m] = coeffs.data[ls * (ls + 1) + m] @ tbl[m:, m]
        if m > 0:
            sign = 1.0 if m % 2 == 0 else -1.0
            profiles[:, L - 1 - m] = sign * (
                coeffs.data[ls * (ls + 1) - m] @ tbl[m:, m]
            )
    phase = np.exp(1j * np.outer(np.arange(-(L - 1), L), grid.phis))
    return profiles @ phase


def synthesize(coeffs: SphericalCoeffs, theta, phi) -> np.ndarray:
    """Pointwise synthesis at arbitrary angles; broadcasts over inputs."""
    theta = np.asarray(theta, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    theta_b, phi_b = np.broadcast_arrays(theta, phi)
    tf = theta_b.ravel()
    pf = phi_b.ravel()
    L = coeffs.bandlimit
    tbl = _legendre_table(L, np.cos(tf))
    vals = np.zeros(tf.size, dtype=np.complex128)
    for m in range(L):
        ls = np.arange(m, L)
        prof = coeffs.data[ls * (ls + 1) + m] @ tbl[m:, m]
        vals += prof * np.exp(1j * m * pf)
        if m > 0:
            sign = 1.0 if m % 2 == 0 else -1.0
            prof = sign * (coeffs.data[ls * (ls + 1) - m] @ tbl[m:, m])
            vals += prof * np.exp(-1j * m * pf)
    out = vals.reshape(theta_b.shape)
    return complex(out[()]) if out.ndim == 0 else out


def rotate_coeffs(coeffs: SphericalCoeffs, rho: Rotation) -> SphericalCoeffs:
    """Coefficients of the rotated signal, ``sum_mp D^l_{m,mp}(rho) (f)_l^mp``."""
    L = coeffs.bandlimit
    stack = wigner_d_stack(L - 1, rho.beta)
    out = np.empty(L * L, dtype=np.complex128)
    for ell in range(L):
        ms = np.arange(-ell, ell + 1)
        block = coeffs.degree_slice(ell)
        rotated = np.exp(-1j * ms * rho.alpha) * (
            stack[ell] @ (np.exp(-1j * ms * rho.gamma) * block)
        )
        out[ell * ell : (ell + 1) * (ell + 1)] = rotated
    return SphericalCoeffs(L, out)
