"""Shared independent oracles for the test suite.

Everything here recomputes quantities by a route different from the library:
exact big-integer Racah sums for 3j symbols, the explicit factorial sum for
Wigner-d, and tensor-product quadrature on the rotation group.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from so3filter import SphericalCoeffs
from so3_reference import Rotation, WignerCoeffs, so3_synthesize, wigner_D


def racah_3j(j1, j2, j3, m1, m2, m3):
    """Wigner 3j by the explicit Racah sum in exact rational arithmetic."""
    if m1 + m2 + m3 != 0:
        return 0.0
    if j3 < abs(j1 - j2) or j3 > j1 + j2:
        return 0.0
    if abs(m1) > j1 or abs(m2) > j2 or abs(m3) > j3:
        return 0.0
    F = math.factorial
    delta = Fraction(F(j1 + j2 - j3) * F(j1 - j2 + j3) * F(-j1 + j2 + j3), F(j1 + j2 + j3 + 1))
    pref = delta * F(j1 + m1) * F(j1 - m1) * F(j2 + m2) * F(j2 - m2) * F(j3 + m3) * F(j3 - m3)
    tmin = max(0, j2 - j3 - m1, j1 - j3 + m2)
    tmax = min(j1 + j2 - j3, j1 - m1, j2 + m2)
    total = Fraction(0)
    for t in range(tmin, tmax + 1):
        den = (
            F(t)
            * F(j3 - j2 + t + m1)
            * F(j3 - j1 + t - m2)
            * F(j1 + j2 - j3 - t)
            * F(j1 - t - m1)
            * F(j2 - t + m2)
        )
        total += Fraction((-1) ** t, den)
    if total == 0:
        return 0.0
    sign = -1.0 if (j1 - j2 - m3) % 2 else 1.0
    log_sum = math.log(abs(total.numerator)) - math.log(total.denominator)
    log_pref = 0.5 * (math.log(pref.numerator) - math.log(pref.denominator))
    return sign * math.copysign(1.0, total) * math.exp(log_sum + log_pref)


def wigner_d_sum(ell, m, mp, beta):
    """Wigner-d element by the explicit sum over factorials."""
    F = math.factorial
    c = math.cos(0.5 * beta)
    s = math.sin(0.5 * beta)
    pref = math.sqrt(F(ell + m) * F(ell - m) * F(ell + mp) * F(ell - mp))
    total = 0.0
    for k in range(max(0, mp - m), min(ell + mp, ell - m) + 1):
        num = (-1.0) ** (m - mp + k)
        den = F(ell + mp - k) * F(k) * F(m - mp + k) * F(ell - m - k)
        total += (
            num / den * c ** (2 * ell + mp - m - 2 * k) * s ** (m - mp + 2 * k)
        )
    return pref * total


def so3_quadrature(bandlimit):
    """Tensor quadrature on the rotation group, exact for products of two
    signals bandlimited to ``bandlimit``.

    Returns ``(rotations, weights)`` as flat lists.
    """
    L = bandlimit
    n_ab = 2 * L
    x, w = np.polynomial.legendre.leggauss(L)
    betas = np.arccos(x)
    alphas = 2.0 * math.pi * np.arange(n_ab) / n_ab
    rotations = []
    weights = []
    scale = (2.0 * math.pi / n_ab) ** 2
    for a in alphas:
        for b, wb in zip(betas, w):
            for g in alphas:
                rotations.append(Rotation(a, b, g))
                weights.append(scale * wb)
    return rotations, np.array(weights)


def so3_quadrature_inner(g: WignerCoeffs, v: WignerCoeffs):
    """<g, v> on the rotation group by brute-force quadrature sampling."""
    L = max(g.bandlimit, v.bandlimit)
    rots, w = so3_quadrature(L)
    gv = np.array([so3_synthesize(g, r) for r in rots])
    vv = np.array([so3_synthesize(v, r) for r in rots])
    return np.sum(w * gv * np.conj(vv))


def so3_quadrature_analyze(g: WignerCoeffs) -> WignerCoeffs:
    """Recompute rotation-group spectra from point samples by quadrature."""
    L = g.bandlimit
    rots, w = so3_quadrature(L)
    vals = np.array([so3_synthesize(g, r) for r in rots])
    out = np.zeros((L, 2 * L - 1, 2 * L - 1), dtype=np.complex128)
    off = L - 1
    for l in range(L):
        for m in range(-l, l + 1):
            for mp in range(-l, l + 1):
                dvals = np.array([wigner_D(l, m, mp, r) for r in rots])
                out[l, off + m, off + mp] = (
                    (2 * l + 1) / (8.0 * math.pi**2) * np.sum(w * vals * np.conj(dvals))
                )
    return WignerCoeffs(L, out)


def random_coeffs(bandlimit, seed, scale=1.0) -> SphericalCoeffs:
    rng = np.random.default_rng(seed)
    n = bandlimit * bandlimit
    return SphericalCoeffs(
        bandlimit, scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    )


def random_psd(size, seed, rank=None):
    """Random Hermitian positive semidefinite matrix."""
    rng = np.random.default_rng(seed)
    rank = size if rank is None else rank
    X = rng.standard_normal((size, rank)) + 1j * rng.standard_normal((size, rank))
    mat = X @ X.conj().T
    return 0.5 * (mat + mat.conj().T)
