"""Least-squares recovery of a sphere signal from a filtered joint representation.

A filtered representation is generally not an admissible transform of any
sphere signal, so the source estimate minimises the squared joint-domain
mismatch ``sum_u || nu(.; u) - g_s(.; u) ||^2``.  Because the analysis
functions satisfy the frame identity

    sum_u <psi_{u,n'}, psi_{u,n}> = 2 pi <h, h> delta_{n,n'},

the minimiser is explicit:

    (s~)_n = (2 pi <h, h>)^{-1} sum_u <nu(.; u), psi_{u,n}>,

with every rotation-group integral evaluated exactly in coefficient space
via the ``8 pi^2 / (2p+1)`` orthogonality weights.  Folding the filter into
this formula gives a single recovery matrix mapping observation coefficients
straight to the estimate, worth materialising when one filter serves many
observations.
"""

from __future__ import annotations

import math

from dataclasses import dataclass

import numpy as np

from .coupling import triple_product_block, triple_product_rows
from .dslsht import DslshtRep, window_blocks
from .filtering import JointFilter
from .sphere import SphericalCoeffs


_W_SO3 = 8.0 * math.pi**2


def accumulate_component(
    acc: np.ndarray,
    u: int,
    nu_u: np.ndarray,
    hb_conj: np.ndarray,
    lf: int,
    lh: int,
) -> None:
    """Add component ``u``'s contribution ``sum_p w_p <nu, psi>`` into ``acc``."""
    off = lh - 1
    nh = np.einsum("pqr,pr->pq", nu_u, hb_conj)
    for p in range(lh):
        w = _W_SO3 / (2 * p + 1)
        for q in range(-p, p + 1):
            nn, tv = triple_product_rows(p, q, u, lf)
            if nn.size:
                acc[nn] += w * nh[p, off + q] * tv


def estimate_from_components(components, h: SphericalCoeffs, lf: int) -> SphericalCoeffs:
    """Least-squares source estimate from the components ``nu(.; u)``.

    ``components`` yields one ``(lh, 2lh-1, 2lh-1)`` cube per ``u`` in order;
    it may be lazy, since each cube is used once and then dropped.
    """
    hh = float(np.sum(np.abs(h.data) ** 2))
    if hh == 0.0:
        raise ValueError("window must be nonzero")
    hb_conj = np.conj(window_blocks(h))
    acc = np.zeros(lf * lf, dtype=np.complex128)
    for u, nu_u in enumerate(components):
        accumulate_component(acc, u, nu_u, hb_conj, lf, h.bandlimit)
    return SphericalCoeffs(lf, acc / (2.0 * math.pi * hh))


def estimate_from_representation(
    rep: DslshtRep, h: SphericalCoeffs
) -> SphericalCoeffs:
    """Least-squares source estimate from a (filtered) representation."""
    if h.bandlimit != rep.lh:
        raise ValueError("window bandlimit does not match the representation")
    return estimate_from_components(rep.data, h, rep.lf)


@dataclass(frozen=True)
class RecoveryMatrix:
    """End-to-end linear map from observation coefficients to the estimate."""

    bandlimit: int
    matrix: np.ndarray

    def __post_init__(self):
        n = self.bandlimit**2
        mat = np.asarray(self.matrix, dtype=np.complex128)
        if mat.shape != (n, n):
            raise ValueError(f"expected a {n} x {n} matrix, got {mat.shape}")
        if not np.all(np.isfinite(mat.view(np.float64))):
            raise ValueError("recovery matrix has non-finite entries")
        object.__setattr__(self, "matrix", mat)


def recovery_matrix(
    filt: JointFilter, h: SphericalCoeffs, lf: int
) -> RecoveryMatrix:
    """Materialise the filter-then-recover map on the coefficient space.

    Entry ``(n, n')`` equals
    ``4 pi / <h,h> * sum_{u,p} (sum_{q'} |(h)_p^{q'}|^2) / (2p+1)
    * sum_{q,k} (zeta(.;u))^p_{q,k} T(n; p, q; u) T(n'; p, k; u)``.
    """
    if h.bandlimit != filt.lh:
        raise ValueError("window bandlimit does not match the filter")
    if lf + filt.lh - 1 != filt.lg:
        raise ValueError("filter was designed for a different signal bandlimit")
    hh = float(np.sum(np.abs(h.data) ** 2))
    if hh == 0.0:
        raise ValueError("window must be nonzero")
    hb = window_blocks(h)
    hpow = np.sum(np.abs(hb) ** 2, axis=1)   # per-degree window power
    out = np.zeros((lf * lf, lf * lf), dtype=np.complex128)
    for u in range(filt.lg**2):
        for p in range(filt.lh):
            nn, X = triple_product_block(p, u, lf)
            if nn.size == 0:
                continue
            scale = (4.0 * math.pi / hh) * hpow[p] / (2 * p + 1)
            local = X @ filt.block(u, p) @ X.T
            out[np.ix_(nn, nn)] += scale * local
    return RecoveryMatrix(lf, out)


def estimate(rec: RecoveryMatrix, f: SphericalCoeffs) -> SphericalCoeffs:
    """Apply the recovery map to observation coefficients."""
    if f.bandlimit != rec.bandlimit:
        raise ValueError("coefficient bandlimit does not match the matrix")
    return SphericalCoeffs(rec.bandlimit, rec.matrix @ f.data)
