"""Rotation-group reference code for the tests: Wigner-d/D, rotation-group
spectra, rotated coefficient vectors, the analysis functions ``psi_{u,n}`` and
the DSLSHT by direct quadrature of its defining integral.

The package's filter works in coefficient space and never evaluates a
Wigner-D function or rotates a signal; the tests use this module to check it
against those definitions.

Rotations use right-handed zyz Euler angles: ``Rotation(alpha, beta, gamma)``
rotates by ``gamma`` about z, then ``beta`` about y, then ``alpha`` about z.
Wigner-D values factor as ``exp(-1j*m*alpha) * d^l_{m,mp}(beta) *
exp(-1j*mp*gamma)`` with a real Wigner-d middle factor, so that the harmonic
coefficients of a rotated sphere signal satisfy
``(rot f)_l^m = sum_mp D^l_{m,mp} (f)_l^mp``.

Spectra of square-integrable signals on the rotation group use the
normalisation ``(g)^l_{m,mp} = (2l+1)/(8 pi^2) * <g, D^l_{m,mp}>`` so that
``g(rho) = sum (g)^l_{m,mp} D^l_{m,mp}(rho)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from so3filter import SphericalCoeffs
from so3filter.dslsht import window_blocks

from coupling_reference import triple_product
from sphere_reference import SphereGrid, degree_and_order, inverse_sht, unit_coeffs

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Rotation:
    """A rotation as zyz Euler angles, normalised into canonical ranges.

    Arbitrary float angles are accepted; construction maps them to the
    equivalent triple with ``alpha, gamma in [0, 2pi)`` and ``beta in [0, pi]``
    using ``R_y(-b) = R_z(pi) R_y(b) R_z(-pi)``.
    """

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        a = float(self.alpha)
        b = float(self.beta)
        g = float(self.gamma)
        if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(g)):
            raise ValueError("Euler angles must be finite")
        b = math.fmod(b, _TWO_PI)
        if b < 0.0:
            b += _TWO_PI
        if b > math.pi:
            b = _TWO_PI - b
            a += math.pi
            g -= math.pi
        object.__setattr__(self, "alpha", a % _TWO_PI)
        object.__setattr__(self, "beta", b)
        object.__setattr__(self, "gamma", g % _TWO_PI)

    def inverse(self) -> "Rotation":
        return Rotation(-self.gamma, -self.beta, -self.alpha)


def wigner_d_stack(lmax: int, beta: float) -> list[np.ndarray]:
    """All Wigner-d matrices ``d^l(beta)`` for ``l = 0..lmax``.

    Each entry is a real ``(2l+1, 2l+1)`` array indexed ``[m+l, mp+l]``.
    Degree ``l`` matrices are obtained from ``l-1`` and ``l-2`` by the
    three-term degree recursion for the interior elements; the ``|m| = l``
    and ``|mp| = l`` border is refreshed every step from the closed form in
    log space, which keeps the recursion stable far beyond degree 100.
    """
    if lmax < 0:
        raise ValueError("lmax must be nonnegative")
    if not 0.0 <= beta <= math.pi:
        raise ValueError("beta must lie in [0, pi]")
    mats = [np.ones((1, 1))]
    if lmax == 0:
        return mats
    c = math.cos(0.5 * beta)
    s = math.sin(0.5 * beta)
    if s == 0.0:
        return [np.eye(2 * l + 1) for l in range(lmax + 1)]

    x = math.cos(beta)
    sb = math.sin(beta)
    r2 = math.sqrt(2.0)
    mats.append(
        np.array(
            [
                [0.5 * (1.0 + x), sb / r2, 0.5 * (1.0 - x)],
                [-sb / r2, x, sb / r2],
                [0.5 * (1.0 - x), -sb / r2, 0.5 * (1.0 + x)],
            ]
        )
    )
    lnc = math.log(c)
    lns = math.log(s)
    # ln(k!) for k = 0..2*lmax
    lnfact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, 2 * lmax + 1)))))

    for l in range(2, lmax + 1):
        d = np.empty((2 * l + 1, 2 * l + 1))
        j = l - 1
        m = np.arange(-j, j + 1, dtype=np.float64)
        mm = m[:, None]
        mp = m[None, :]
        num = (2 * j + 1) * (j * (j + 1) * x - mm * mp)
        low = (j + 1) * np.sqrt((j * j - mm**2) * (j * j - mp**2))
        den = j * np.sqrt(((j + 1) ** 2 - mm**2) * ((j + 1) ** 2 - mp**2))
        prev = np.zeros((2 * l - 1, 2 * l - 1))
        prev[1:-1, 1:-1] = mats[l - 2]
        d[1:-1, 1:-1] = (num * mats[l - 1] - low * prev) / den

        mps = np.arange(-l, l + 1)
        ln = (
            0.5 * (lnfact[2 * l] - lnfact[l + mps] - lnfact[l - mps])
            + (l + mps) * lnc
            + (l - mps) * lns
        )
        top = np.where((l - mps) % 2 == 0, 1.0, -1.0) * np.exp(ln)
        sign = np.where((l + mps) % 2 == 0, 1.0, -1.0)
        d[2 * l, :] = top
        d[0, :] = sign * top[::-1]
        mi = np.arange(-l + 1, l)
        d[1:-1, 2 * l] = np.where((l - mi) % 2 == 0, 1.0, -1.0) * top[mi + l]
        d[1:-1, 0] = top[l - mi]
        mats.append(d)
    return mats


def wigner_d_matrix(ell: int, beta: float) -> np.ndarray:
    """Wigner-d matrix ``d^ell(beta)``, a real orthogonal (2ell+1) square array."""
    if ell < 0:
        raise ValueError("degree must be nonnegative")
    return wigner_d_stack(ell, beta)[ell]


def wigner_D(ell: int, m: int, mp: int, rho: Rotation) -> complex:
    """Single Wigner-D value ``D^ell_{m,mp}(rho)``."""
    if ell < 0 or abs(m) > ell or abs(mp) > ell:
        raise ValueError("orders must satisfy |m|, |mp| <= ell")
    d = wigner_d_matrix(ell, rho.beta)[m + ell, mp + ell]
    return complex(np.exp(-1j * (m * rho.alpha + mp * rho.gamma)) * d)


@dataclass(frozen=True)
class WignerCoeffs:
    """Spectral coefficients ``(g)^l_{m,mp}`` of a bandlimited rotation-group signal.

    ``data`` has shape ``(L, 2L-1, 2L-1)`` with entry ``(l, m, mp)`` stored at
    ``data[l, m + L - 1, mp + L - 1]``; the padding outside ``|m|, |mp| <= l``
    must be exactly zero.
    """

    bandlimit: int
    data: np.ndarray

    def __post_init__(self):
        if self.bandlimit < 1:
            raise ValueError("bandlimit must be positive")
        L = self.bandlimit
        data = np.asarray(self.data, dtype=np.complex128)
        if data.shape != (L, 2 * L - 1, 2 * L - 1):
            raise ValueError(
                f"data shape {data.shape} does not match bandlimit {L}"
            )
        absm = np.abs(np.arange(2 * L - 1) - (L - 1))
        ls = np.arange(L)
        valid = (absm[None, :, None] <= ls[:, None, None]) & (
            absm[None, None, :] <= ls[:, None, None]
        )
        if np.any(data[~valid] != 0):
            raise ValueError("nonzero entries outside |m|, |mp| <= l")
        data = data.copy()
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    @classmethod
    def zeros(cls, bandlimit: int) -> "WignerCoeffs":
        L = bandlimit
        return cls(L, np.zeros((L, 2 * L - 1, 2 * L - 1), dtype=np.complex128))

    def block(self, ell: int) -> np.ndarray:
        """The ``(2ell+1, 2ell+1)`` coefficient block of degree ``ell``."""
        off = self.bandlimit - 1
        return self.data[ell, off - ell : off + ell + 1, off - ell : off + ell + 1]

    @property
    def coefficient_count(self) -> int:
        L = self.bandlimit
        return L * (2 * L - 1) * (2 * L + 1) // 3


def so3_norm_sq(g: WignerCoeffs) -> float:
    """Squared rotation-group norm, ``sum 8 pi^2 / (2l+1) |(g)^l_{m,mp}|^2``."""
    total = 0.0
    for l in range(g.bandlimit):
        w = 8.0 * math.pi**2 / (2 * l + 1)
        block = g.block(l)
        total += w * float(np.sum(np.abs(block) ** 2))
    return total


def so3_inner(g: WignerCoeffs, v: WignerCoeffs) -> complex:
    """Rotation-group inner product ``<g, v>`` evaluated in coefficient space."""
    if g.bandlimit != v.bandlimit:
        raise ValueError("bandlimit mismatch")
    total = 0.0 + 0.0j
    for l in range(g.bandlimit):
        w = 8.0 * math.pi**2 / (2 * l + 1)
        total += w * complex(np.sum(g.block(l) * np.conj(v.block(l))))
    return total


def so3_synthesize(g: WignerCoeffs, rho: Rotation) -> complex:
    """Pointwise value ``g(rho) = sum (g)^l_{m,mp} D^l_{m,mp}(rho)``."""
    stack = wigner_d_stack(g.bandlimit - 1, rho.beta)
    val = 0.0 + 0.0j
    for l in range(g.bandlimit):
        ms = np.arange(-l, l + 1)
        ea = np.exp(-1j * ms * rho.alpha)
        eg = np.exp(-1j * ms * rho.gamma)
        val += ea @ (stack[l] * g.block(l)) @ eg
    return complex(val)


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


def psi_coeffs(u: int, n: int, h: SphericalCoeffs) -> WignerCoeffs:
    """Rotation-group spectrum of the analysis function ``psi_{u,n}``.

    The coefficient at ``(p, q, q')`` is ``(h)_p^{q'} T(n; p, q; u)``; only
    the single order ``q = w - m`` allowed by the selection rule survives.
    """
    lh = h.bandlimit
    if n < 0 or u < 0:
        raise ValueError("flat indices must be nonnegative")
    _, m = degree_and_order(n)
    _, w = degree_and_order(u)
    q = w - m
    off = lh - 1
    cube = np.zeros((lh, 2 * lh - 1, 2 * lh - 1), dtype=np.complex128)
    hb = window_blocks(h)
    if abs(q) <= lh - 1:
        for p in range(abs(q), lh):
            t = triple_product(n, p, q, u)
            if t != 0.0:
                cube[p, off + q, off - p : off + p + 1] = t * hb[p, off - p : off + p + 1]
    return WignerCoeffs(lh, cube)


def dslsht_direct(
    f_samples: np.ndarray,
    grid: SphereGrid,
    h: SphericalCoeffs,
    rho: Rotation,
    u: int,
) -> complex:
    """Single transform value by direct quadrature of the defining integral.

    Brute-force reference path for test-scale bandlimits; ``f_samples`` must
    be a signal bandlimited within the grid.  The grid must resolve the full
    product integrand: with ``v`` the degree of ``u``, this requires
    ``grid.bandlimit >= lh + v - 1``.
    """
    v, _ = degree_and_order(u)
    if grid.bandlimit < h.bandlimit + v - 1:
        raise ValueError("grid too coarse for the product integrand")
    rotated = rotate_coeffs(h, rho)
    h_samples = inverse_sht(rotated, grid)
    yu = inverse_sht(unit_coeffs(v + 1, u), grid)
    return grid.integrate(np.asarray(f_samples) * h_samples * np.conj(yu))
