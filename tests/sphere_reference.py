"""Sphere-domain reference code for the tests: the flat ``(l, m)`` index,
single harmonics, and the equiangular quadrature grid with its transforms.

The package synthesises only at given angles (``synthesize``) and never
samples a grid; the tests use this module to check the package's harmonic
table against quadrature.  Every harmonic value here comes from the
package's own kernels, ``sphere._ylm_table`` and ``sphere._order_profiles``.

Coefficient vectors are flat, ordered by ``n = l(l+1) + m``.  The grid is the
Driscoll-Healy equiangular grid of ``2L x 2L`` nodes whose closed-form ring
weights integrate every spherical harmonic of degree below ``2L`` exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from so3filter import SphericalCoeffs, synthesize
from so3filter.sphere import _lm_index, _order_profiles, _ylm_table


def flat_index(ell: int, m: int) -> int:
    """Flat coefficient index ``n = l(l+1) + m``."""
    return ell * (ell + 1) + m


def degree_and_order(n: int) -> tuple[int, int]:
    """``(l, m)`` of a flat index: ``l = floor(sqrt(n))``, ``m = n - l(l+1)``."""
    ell = math.isqrt(n)
    return ell, n - ell * (ell + 1)


def unit_coeffs(bandlimit: int, n: int) -> SphericalCoeffs:
    """Basis vector with a single unit entry at flat index ``n``."""
    data = np.zeros(bandlimit**2, dtype=np.complex128)
    data[n] = 1.0
    return SphericalCoeffs(bandlimit, data)


def eval_ylm(ell: int, m: int, theta, phi):
    """Spherical harmonic ``Y_l^m(theta, phi)``; broadcasts over angle arrays."""
    return synthesize(unit_coeffs(ell + 1, flat_index(ell, m)), theta, phi)


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
        L = bandlimit
        n = 2 * L
        thetas = math.pi * np.arange(n) / n
        phis = 2.0 * math.pi * np.arange(n) / n
        k = np.arange(L)
        ring = (2.0 / L) * np.sin(thetas) * (
            np.sin(np.outer(thetas, 2 * k + 1)) / (2 * k + 1)
        ).sum(axis=1)
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
        return complex(np.sum(samples * self.node_weights()))


def forward_sht(samples: np.ndarray, grid: SphereGrid) -> SphericalCoeffs:
    """Harmonic coefficients below ``grid.bandlimit`` of ``samples`` on ``grid``."""
    L = grid.bandlimit
    # g[i, m + L - 1] = sum_k w f exp(-i m phi_k) on ring i
    g = (samples * grid.node_weights()) @ np.exp(-1j * np.outer(grid.phis, np.arange(1 - L, L)))
    _, ms = _lm_index(L)
    tbl = _ylm_table(L, np.cos(grid.thetas))
    return SphericalCoeffs(L, np.einsum("ni,in->n", tbl, g[:, ms + L - 1]))


def inverse_sht(coeffs: SphericalCoeffs, grid: SphereGrid) -> np.ndarray:
    """Sample the signal with the given coefficients on every grid node."""
    L = coeffs.bandlimit
    prof = _order_profiles(coeffs, _ylm_table(L, np.cos(grid.thetas)))
    return prof.T @ np.exp(1j * np.outer(np.arange(1 - L, L), grid.phis))
