"""Slepian spatial-concentration windows on polar caps and spherical ellipses.

The window is the leading eigenvector of the concentration kernel
``K[n, n'] = integral_R Y_n conj(Y_n') ds`` restricted to a region ``R``.
Both supported regions are star-shaped about the north pole, so the kernel
quadrature integrates radially (Gauss-Legendre in colatitude out to the
region boundary) on a uniform longitude grid; the longitude integrand is a
smooth periodic function of ``phi`` and converges spectrally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .sphere import SphericalCoeffs, _legendre_table


@dataclass(frozen=True)
class PolarCap:
    """Axisymmetric cap ``theta <= theta0`` about the north pole (radians).

    ``theta0 = pi`` is permitted and denotes the full sphere.
    """

    theta0: float

    def __post_init__(self):
        if not 0.0 < self.theta0 <= math.pi:
            raise ValueError("cap angle must lie in (0, pi]")

    def contains(self, theta, phi):
        theta = np.asarray(theta, dtype=np.float64)
        out = theta <= self.theta0
        return bool(out) if out.ndim == 0 else out

    def boundary_colatitude(self, phi) -> np.ndarray:
        return np.full_like(np.asarray(phi, dtype=np.float64), self.theta0)

    def area(self) -> float:
        return 2.0 * math.pi * (1.0 - math.cos(self.theta0))


@dataclass(frozen=True)
class SphericalEllipse:
    """Spherical ellipse centred at the north pole, major axis along x.

    The two foci sit at angular distance ``focus_colatitude`` from the pole
    along the +x and -x meridians; a point belongs to the region when the sum
    of its great-circle distances to the foci is at most ``2 * semi_major``.
    """

    focus_colatitude: float
    semi_major: float

    def __post_init__(self):
        if not 0.0 < self.focus_colatitude <= self.semi_major:
            raise ValueError("need 0 < focus colatitude <= semi-major radius")
        if not self.semi_major < 0.5 * math.pi:
            raise ValueError("semi-major radius must be below pi/2")

    def _distance_sum(self, theta, phi):
        theta = np.asarray(theta, dtype=np.float64)
        phi = np.asarray(phi, dtype=np.float64)
        st = np.sin(theta) * np.cos(phi) * math.sin(self.focus_colatitude)
        ct = np.cos(theta) * math.cos(self.focus_colatitude)
        d1 = np.arccos(np.clip(ct + st, -1.0, 1.0))
        d2 = np.arccos(np.clip(ct - st, -1.0, 1.0))
        return d1 + d2

    def contains(self, theta, phi):
        out = self._distance_sum(theta, phi) <= 2.0 * self.semi_major
        return bool(out) if out.ndim == 0 else out

    def boundary_colatitude(self, phi) -> np.ndarray:
        """Colatitude of the boundary along each meridian, by bisection."""
        phi = np.atleast_1d(np.asarray(phi, dtype=np.float64))
        lo = np.zeros_like(phi)
        hi = np.full_like(
            phi, min(self.semi_major + self.focus_colatitude + 1e-6, math.pi)
        )
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            inside = self._distance_sum(mid, phi) <= 2.0 * self.semi_major
            lo = np.where(inside, mid, lo)
            hi = np.where(inside, hi, mid)
        return 0.5 * (lo + hi)

    def area(self, n_phi: int = 4096) -> float:
        phis = 2.0 * math.pi * np.arange(n_phi) / n_phi
        r = self.boundary_colatitude(phis)
        return float(np.mean(1.0 - np.cos(r)) * 2.0 * math.pi)


Region = Union[PolarCap, SphericalEllipse]


def _region_nodes(region: Region, n_phi: int, n_radial: int):
    gx, gw = np.polynomial.legendre.leggauss(n_radial)
    phis = 2.0 * math.pi * np.arange(n_phi) / n_phi
    rb = np.asarray(region.boundary_colatitude(phis), dtype=np.float64)
    thetas = 0.5 * rb[:, None] * (gx[None, :] + 1.0)          # (n_phi, n_radial)
    weights = (
        (2.0 * math.pi / n_phi)
        * (0.5 * rb[:, None])
        * gw[None, :]
        * np.sin(thetas)
    )
    return thetas, phis, weights


def concentration_kernel(
    region: Region,
    bandlimit: int,
    n_phi: int | None = None,
    n_radial: int | None = None,
) -> np.ndarray:
    """Hermitian concentration kernel of the region at the given bandlimit."""
    if bandlimit < 1:
        raise ValueError("bandlimit must be positive")
    L = bandlimit
    if n_phi is None:
        n_phi = max(16 * L, 128)
    if n_radial is None:
        n_radial = max(2 * L + 16, 48)
    thetas, phis, weights = _region_nodes(region, n_phi, n_radial)
    if not np.any(weights > 0.0):
        raise ValueError("region is degenerate under the quadrature grid")

    K = np.zeros((L * L, L * L), dtype=np.complex128)
    ls = np.arange(L)
    # Chunk over longitude to bound the size of the node-value matrix.
    chunk = max(1, (1 << 22) // (n_radial * L * L))
    for start in range(0, n_phi, chunk):
        stop = min(start + chunk, n_phi)
        th = thetas[start:stop].ravel()
        ph = np.repeat(phis[start:stop], n_radial)
        wt = weights[start:stop].ravel()
        tbl = _legendre_table(L, np.cos(th))
        Y = np.empty((th.size, L * L), dtype=np.complex128)
        for m in range(L):
            lr = ls[m:]
            ep = np.exp(1j * m * ph)
            Y[:, lr * (lr + 1) + m] = tbl[m:, m].T * ep[:, None]
            if m > 0:
                sign = 1.0 if m % 2 == 0 else -1.0
                Y[:, lr * (lr + 1) - m] = sign * tbl[m:, m].T * np.conj(ep)[:, None]
        K += (wt[:, None] * Y).T @ np.conj(Y)
    return 0.5 * (K + K.conj().T)


@dataclass(frozen=True)
class SlepianResult:
    """Concentration eigenvalues (descending) and eigenvectors of a region.

    ``vectors[:, k]`` holds the coefficient vector of the k-th best
    concentrated bandlimited function; columns are orthonormal.
    """

    bandlimit: int
    eigenvalues: np.ndarray
    vectors: np.ndarray

    def window(self, k: int = 0) -> SphericalCoeffs:
        """The k-th concentrated window as a unit-norm coefficient vector."""
        return SphericalCoeffs(self.bandlimit, self.vectors[:, k])


def slepian_window(
    region: Region,
    bandlimit: int,
    n_phi: int | None = None,
    n_radial: int | None = None,
) -> SlepianResult:
    """Solve the concentration problem on the region.

    Eigenvalues come back in descending order; each eigenvector's phase is
    fixed so its largest-magnitude coefficient has positive real part, making
    the output reproducible across linear-algebra backends.
    """
    K = concentration_kernel(region, bandlimit, n_phi=n_phi, n_radial=n_radial)
    evals, vecs = np.linalg.eigh(K)
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    vecs = vecs[:, order]
    for k in range(vecs.shape[1]):
        i = int(np.argmax(np.abs(vecs[:, k])))
        pivot = vecs[i, k]
        if pivot != 0:
            vecs[:, k] *= np.conj(pivot) / abs(pivot)
    return SlepianResult(bandlimit, evals, vecs)
