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
materialised representation feed the same accumulation.  So the estimate
depends on the window only through its per-degree power
``hpow[p] = sum_q' |(h)_p^{q'}|^2``: it is ``sum_p w_p e_p`` with weights
``w_p = hpow[p] / sum(hpow)`` and window-free per-degree estimates ``e_p``.
"""

from __future__ import annotations

import math

import numpy as np

from .dslsht import DslshtRep, component_rows, scatter_sum, window_blocks
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


def _shell_partial(v: int, contraction, lf: int, lh: int) -> np.ndarray:
    """``sum_u <nu(.; u), psi_{u,n}>`` over the ``2v+1`` indices ``u`` of shell ``v``.

    The sum starts from zero, so it does not depend on any other shell.
    """
    acc = np.zeros(lf * lf, dtype=np.complex128)
    for u in range(v * v, (v + 1) ** 2):
        accumulate_component(acc, u, contraction(u), lf, lh)
    return acc


def estimate_from_components(contraction, h: SphericalCoeffs, lf: int, map_shells=map) -> SphericalCoeffs:
    """Least-squares source estimate from the window contractions ``nh(u) = contraction(u)``.

    Each shell ``v``, the indices ``u`` from ``v**2`` to ``(v+1)**2 - 1``,
    is summed into a partial of its own, and the partials are added in ``v``
    order.  ``map_shells(fn, shells)`` returns ``fn(v)`` for every shell in
    order, like ``map``; it may compute them elsewhere, and since a partial
    depends on its shell alone the estimate has the same bits however the
    shells are split.  Each contraction is used once and then dropped.
    """
    hh = float(np.sum(np.abs(h.data) ** 2))
    if hh == 0.0:
        raise ValueError("window must be nonzero")
    lh = h.bandlimit
    acc = np.zeros(lf * lf, dtype=np.complex128)
    for part in map_shells(lambda v: _shell_partial(v, contraction, lf, lh), range(lf + lh - 1)):
        acc += part
    return SphericalCoeffs(lf, acc / (2.0 * math.pi * hh))


def estimate_from_representation(
    rep: DslshtRep, h: SphericalCoeffs
) -> SphericalCoeffs:
    """Least-squares source estimate from a (filtered) representation."""
    if h.bandlimit != rep.lh:
        raise ValueError("window bandlimit does not match the representation")
    hb_conj = np.conj(window_blocks(h))[:, :, None]
    return estimate_from_components(lambda u: (rep.data[u] @ hb_conj)[..., 0], h, rep.lf)
