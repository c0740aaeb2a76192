"""Slepian spatial-concentration windows on polar caps and spherical ellipses.

The window is the leading eigenvector of the concentration kernel
``K[n, n'] = integral_R Y_n conj(Y_n') ds`` restricted to a region ``R``.

Both kernels read the signed Legendre table of ``sphere``, whose row
``P[n, i]`` is the colatitude part of ``Y_n`` at node ``i``.

A polar cap ``theta <= theta0`` is axisymmetric, so its kernel vanishes
between different orders: it splits into one real block per order ``m``, the
Gram ``2 pi sum_i w_i P[n, i] P[n', i]`` of the table rows of that order
(degrees ``|m|..L-1``), with ``x = cos(theta)``.  Orders ``m`` and ``-m``
share their block, as their rows differ only by ``(-1)^m``.  The integrand is
a polynomial of degree ``l + l' <= 2L - 2`` in ``x``, so Gauss-Legendre on
``[cos(theta0), 1]`` with ``n >= L`` nodes integrates it exactly; the cap
uses ``n = L``.  The interval half-width is taken as ``sin^2(theta0 / 2)`` so
that tiny caps keep positive weights; a cap where it underflows to 0 is
rejected.  The cap's window solves each order's block on its own (the ``L``
real problems run as one stacked ``eigh``), so every cap eigenvector lies on
a single order and each ``+-m`` pair shares its eigenvalues and
coefficients; on that exact tie the ``+m`` vector comes first.

A spherical ellipse has no such structure.  It is star-shaped about the
north pole, so its kernel quadrature integrates radially (Gauss-Legendre in
colatitude out to the region boundary) on a uniform longitude grid; the
longitude integrand is a smooth periodic function of ``phi`` and converges
spectrally.  The rule is fixed by the bandlimit: ``max(16 L, 128)``
longitudes times ``max(2 L + 16, 48)`` colatitude nodes, and each
longitude's phase factor is shared by its colatitude nodes.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Union

import numpy as np

from .sphere import SphericalCoeffs, _lm_index, _ylm_table


@dataclass(frozen=True)
class PolarCap:
    """Axisymmetric cap ``theta <= theta0`` about the north pole (radians).

    ``theta0 = pi`` is permitted and denotes the full sphere.
    """

    theta0: float

    def __post_init__(self):
        if not 0.0 < self.theta0 <= math.pi:
            raise ValueError("cap angle must lie in (0, pi]")
        if math.sin(0.5 * self.theta0) ** 2 == 0.0:
            raise ValueError("cap is degenerate: sin^2(theta0 / 2) underflows to 0")

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
        if not 0.0 < self.focus_colatitude < self.semi_major:
            raise ValueError("need 0 < focus colatitude < semi-major radius")
        if not self.semi_major < 0.5 * math.pi:
            raise ValueError("semi-major radius must be below pi/2")
        # A normal a^2 keeps the boundary's sin(a - c) sin(a + c) nonzero and
        # some quadrature weights positive; below it the weights underflow.
        if self.semi_major * self.semi_major < sys.float_info.min:
            raise ValueError("ellipse is too small: its semi-major radius squared underflows")

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
        """Colatitude of the boundary along each meridian, in closed form.

        On the boundary ``d1 + d2 = 2a``, so ``cos d1 + cos d2`` and
        ``cos d1 - cos d2`` give ``cos((d1 - d2) / 2)`` and its sine; their
        squares sum to one, which solves to
        ``tan r = tan a sqrt(S / (S + sin^2 c sin^2 phi))`` with ``a`` the
        semi-major radius, ``c`` the focus colatitude and
        ``S = sin^2 a - sin^2 c``.  ``S`` is formed as ``sin(a - c) sin(a + c)``,
        which does not cancel as ``c`` approaches ``a``.
        """
        phi = np.atleast_1d(np.asarray(phi, dtype=np.float64))
        a, c = self.semi_major, self.focus_colatitude
        s = math.sin(a - c) * math.sin(a + c)
        return np.arctan(math.tan(a) * np.sqrt(s / (s + (math.sin(c) * np.sin(phi)) ** 2)))


Region = Union[PolarCap, SphericalEllipse]


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on ``[-1, 1]``, cached per node count."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    for arr in (nodes, weights):
        arr.setflags(write=False)
    return nodes, weights


def _region_nodes(region: Region, n_phi: int, n_radial: int):
    gx, gw = _gauss_legendre(n_radial)
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


def _cap_blocks(theta0: float, L: int) -> np.ndarray:
    """Exact real kernel blocks of the cap ``theta <= theta0``, one per order.

    Returns an ``(L, L, L)`` stack whose slice ``[m, m:, m:]`` is block ``m``,
    the Gram of the table rows of order ``m``, degrees ``m..L-1``; the rest of
    slice ``m`` is zero.  Order ``-m`` has the same block, since its rows
    differ only by ``(-1)^m``.
    """
    gx, gw = _gauss_legendre(L)
    half = math.sin(0.5 * theta0) ** 2                  # (1 - cos(theta0)) / 2
    scaled = _ylm_table(L, 1.0 - half * (1.0 - gx)) * np.sqrt(2.0 * math.pi * half * gw)
    l = np.arange(L)
    has = l >= l[:, None]                               # [m, l]: degree l has order m
    rows = np.where(has[:, :, None], scaled[np.where(has, l * (l + 1) + l[:, None], 0)], 0.0)
    return rows @ rows.transpose(0, 2, 1)


def _quadrature_kernel(region: Region, L: int, n_phi: int, n_radial: int) -> np.ndarray:
    """Kernel of any star-shaped region by the longitude-radial node rule."""
    thetas, phis, weights = _region_nodes(region, n_phi, n_radial)
    K = np.zeros((L * L, L * L), dtype=np.complex128)
    _, ms = _lm_index(L)
    # Chunk over longitude to bound the size of the node-value matrix.
    chunk = max(1, (1 << 22) // (n_radial * L * L))
    for start in range(0, n_phi, chunk):
        stop = min(start + chunk, n_phi)
        wt = weights[start:stop].ravel()
        tbl = _ylm_table(L, np.cos(thetas[start:stop])).reshape(L * L, stop - start, n_radial)
        phase = np.exp(1j * np.outer(np.arange(1 - L, L), phis[start:stop]))[ms + L - 1]
        Y = (tbl * phase[:, :, None]).reshape(L * L, -1).T
        K += (wt[:, None] * Y).T @ np.conj(Y)
    return 0.5 * (K + K.conj().T)


def concentration_kernel(region: Region, bandlimit: int) -> np.ndarray:
    """Hermitian concentration kernel of the region at the given bandlimit.

    A ``PolarCap`` kernel is exact: one real Gram per order over ``bandlimit``
    Gauss-Legendre nodes in ``cos(theta)``, placed at orders ``m`` and ``-m``,
    and zero between orders.  Any other region uses ``max(16 L, 128)``
    longitudes times ``max(2 L + 16, 48)`` colatitude nodes.
    """
    if bandlimit < 1:
        raise ValueError("bandlimit must be positive")
    L = bandlimit
    if isinstance(region, PolarCap):
        _, ms = _lm_index(L)
        K = np.zeros((L * L, L * L), dtype=np.complex128)
        for m, block in enumerate(_cap_blocks(region.theta0, L)):
            for order in (m, -m):
                rows = np.flatnonzero(ms == order)
                K[np.ix_(rows, rows)] = block[m:, m:]
        return K
    return _quadrature_kernel(region, L, max(16 * L, 128), max(2 * L + 16, 48))


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
        if not 0 <= k < self.bandlimit**2:
            raise ValueError(f"window index {k} is outside [0, {self.bandlimit**2})")
        return SphericalCoeffs(self.bandlimit, self.vectors[:, k])


def slepian_window(region: Region, bandlimit: int) -> SlepianResult:
    """Solve the concentration problem on the region.

    Eigenvalues come back in descending order; each eigenvector's phase is
    fixed so its largest-magnitude coefficient has positive real part, making
    the output reproducible across linear-algebra backends.

    A ``PolarCap`` is solved one order at a time: one real eigenproblem per
    order ``m >= 0``, of size ``L - m``, whose vectors serve both ``m`` and
    ``-m``, so every column lies on a single order.  The eigenvalues are sorted stably
    from the listing ``0, 1, -1, 2, -2, ...``, each order's in descending
    order, so on an exact tie ``+m`` comes before ``-m``.  Any other region
    takes one dense complex ``eigh`` of its kernel.
    """
    if isinstance(region, PolarCap):
        return _cap_window(region.theta0, bandlimit)
    K = concentration_kernel(region, bandlimit)
    evals, vecs = np.linalg.eigh(K)
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    vecs = vecs[:, order]
    # eigh returns unit-norm columns, so no pivot is zero.  hypot is the
    # scalar complex abs; numpy's vectorised abs may differ in the last bit,
    # which can swap the pivot between coefficients of equal magnitude.
    mag = np.hypot(vecs.real, vecs.imag)
    pivot = vecs[np.argmax(mag, axis=0), np.arange(vecs.shape[1])]
    vecs *= np.conj(pivot) / mag.max(axis=0)
    return SlepianResult(bandlimit, evals, vecs)


def _cap_window(theta0: float, L: int) -> SlepianResult:
    """The cap's concentration problem, one real eigensolve per order.

    The orders are solved as one stack of ``L x L`` problems.  Problem ``m``
    holds block ``m`` in rows and columns ``m..L-1`` and ``-1`` on its first
    ``m`` diagonal entries: the padding is decoupled and lies below the
    block's spectrum in ``[0, 1]``, so it takes the last columns once each
    problem's eigenpairs are put in descending order.
    """
    if L < 1:
        raise ValueError("bandlimit must be positive")
    l = np.arange(L)
    stack = _cap_blocks(theta0, L)
    pad_m, pad_d = np.nonzero(l < l[:, None])           # degrees d below order m
    stack[pad_m, pad_d, pad_d] = -1.0
    evals, vecs = np.linalg.eigh(stack)
    evals, vecs = evals[:, ::-1], vecs[:, :, ::-1]
    # A real vector's pivot phase is its sign; the column is unit norm, so
    # the pivot is nonzero.
    vecs = vecs * np.sign(np.take_along_axis(vecs, np.abs(vecs).argmax(axis=1)[:, None, :], axis=1))

    # Listing [m, s, c]: column c of problem m, at order m (s = 0) or -m
    # (s = 1), so the listing runs over orders 0, 1, -1, 2, -2, ...
    own = l < L - l[:, None]
    listed = np.stack([own, own & (l[:, None] > 0)], axis=1)
    lam = np.broadcast_to(evals[:, None, :], listed.shape)[listed]
    order = np.argsort(-lam, kind="stable")
    column = np.zeros(listed.shape, dtype=np.intp)
    column[listed] = np.argsort(order)
    # A listed column's coefficients sit at degrees d = m..L-1 of its order.
    m, s, d, c = np.nonzero(listed[:, :, None, :] & (l >= l[:, None])[:, None, :, None])
    vectors = np.zeros((L * L, L * L), dtype=np.complex128)
    vectors[d * (d + 1) + (1 - 2 * s) * m, column[m, s, c]] = vecs[m, d, c]
    return SlepianResult(L, lam[order], vectors)
