"""Least-squares recovery of a sphere signal from a filtered joint representation.

A filtered representation is generally not an admissible transform of any
sphere signal, so the source estimate minimises the squared joint-domain
mismatch ``sum_u || nu(.; u) - g_s(.; u) ||^2``.  Because the analysis
functions satisfy the frame identity

    sum_u <psi_{u,n'}, psi_{u,n}> = 2 pi <h, h> delta_{n,n'},

the minimiser is explicit:

    (s~)_n = (2 pi <h, h>)^{-1} sum_u <nu(.; u), psi_{u,n}>,

with every rotation-group integral evaluated exactly in coefficient space
via the ``8 pi^2 / (2p+1)`` orthogonality weights.  Only the window
contraction ``nh[p, q] = sum_q' (nu(.; u))^p_{q, q'} conj((h)_p^{q'})`` of a
component enters, and ``sum_n`` runs over the triple-product rows:

    <nu(.; u), psi_{u,n}> = sum_{p, q} (8 pi^2 / (2p+1)) nh[p, q] T(n; p, q; u).

A filtered component ``zeta(.; u) g(.; u)`` is rank one in ``q'`` like
``g(.; u)``, so its ``nh`` is ``(zeta tau)[p, q] * sum_q' |(h)_p^{q'}|^2``
(see :mod:`.dslsht`) and no cube is formed.  The streaming denoise and the
materialised representation feed the same accumulation.  Folding the filter
into this formula gives a single recovery matrix mapping observation
coefficients straight to the estimate, worth materialising when one filter
serves many observations.
"""

from __future__ import annotations

import math

from dataclasses import dataclass

import numpy as np

from .coupling import triple_product_block
from .dslsht import DslshtRep, component_rows, scatter_sum, window_blocks
from .filtering import JointFilter
from .sphere import SphericalCoeffs


_W_SO3 = 8.0 * math.pi**2


def accumulate_component(acc: np.ndarray, u: int, nh: np.ndarray, lf: int, lh: int) -> None:
    """Add ``<nu(.; u), psi_{u,n}>`` into ``acc[n]`` for every ``n``.

    ``nh`` is the ``(lh, 2lh-1)`` window contraction of ``nu(.; u)``; every
    row of ``u`` is scattered in one pass.
    """
    nn, tv, slot = component_rows(u, lf, lh)
    coef = (nh * (_W_SO3 / (2 * np.arange(lh) + 1))[:, None]).ravel()
    acc += scatter_sum(nn, coef[slot] * tv, acc.size)


def estimate_from_components(components, h: SphericalCoeffs, lf: int) -> SphericalCoeffs:
    """Least-squares source estimate from the window contractions ``nh(u)``.

    ``components`` yields one ``(lh, 2lh-1)`` array per ``u`` in order; it
    may be lazy, since each is used once and then dropped.
    """
    hh = float(np.sum(np.abs(h.data) ** 2))
    if hh == 0.0:
        raise ValueError("window must be nonzero")
    acc = np.zeros(lf * lf, dtype=np.complex128)
    for u, nh in enumerate(components):
        accumulate_component(acc, u, nh, lf, h.bandlimit)
    return SphericalCoeffs(lf, acc / (2.0 * math.pi * hh))


def estimate_from_representation(
    rep: DslshtRep, h: SphericalCoeffs
) -> SphericalCoeffs:
    """Least-squares source estimate from a (filtered) representation."""
    if h.bandlimit != rep.lh:
        raise ValueError("window bandlimit does not match the representation")
    hb_conj = np.conj(window_blocks(h))[:, :, None]
    contractions = ((cube @ hb_conj)[..., 0] for cube in rep.data)
    return estimate_from_components(contractions, h, rep.lf)


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
