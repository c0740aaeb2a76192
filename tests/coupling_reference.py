"""Coupling reference code for the tests: scalar Wigner 3j symbols, scalar
triple products, their selection-rule ranges, and the full-size normal
equations of one filter block.

The package reads 3j symbols only as whole triple-product rows
(``triple_product_rows``) and builds normal matrices only on a block's core
(``filtering._gram_pair``).  The tests use this module to check those against
scalar definitions.  Each symbol here is one family of the package's own
kernel, ``coupling._families``, and each normal matrix is the package's own
core Gram; so every check built on them tests the shipped code.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from so3filter.coupling import _families
from so3filter.filtering import SpectralCovariance, _gram_pair
from sphere_reference import degree_and_order


# Memoises the families: the sum-rule checks read each one many times.
@functools.lru_cache(maxsize=1 << 12)
def _family(j1: int, j2: int, m1: int, m2: int) -> tuple[int, np.ndarray]:
    """One family ``(j1 j2 j; m1 m2 -(m1+m2))`` through the kernel, as a batch of one."""
    jmin, f = _families(j1, j2, [m1], [m2])
    vals = f[0, : j1 + j2 + 1 - jmin[0]]
    vals.setflags(write=False)
    return int(jmin[0]), vals


def wigner3j(l1: int, l2: int, l3: int, m1: int, m2: int, m3: int) -> float:
    """Wigner 3j symbol; selection-rule violations (triangle, order sums,
    ``|m| > l``) give 0."""
    if abs(m1) > l1 or abs(m2) > l2 or abs(m3) > l3 or m1 + m2 + m3 != 0:
        return 0.0
    if l3 < max(abs(l1 - l2), abs(m3)) or l3 > l1 + l2:
        return 0.0
    jmin, vals = _family(l1, l2, m1, m2)
    return float(vals[l3 - jmin])


def wigner3j_family(l1: int, l2: int, m1: int, m2: int) -> tuple[int, np.ndarray]:
    """All symbols ``(l1 l2 j; m1 m2 -(m1+m2))`` as ``(jmin, values)``."""
    jmin, vals = _family(l1, l2, m1, m2)
    return jmin, vals.copy()


def triple_product(n: int, p: int, q: int, u: int) -> float:
    """Triple-product integral ``T(n; p, q; u)`` of ``Y_n Y_p^q conj(Y_u)``.

    With ``n -> (l, m)`` and ``u -> (v, w)``, ``T = (-1)^w sqrt((2l+1)(2p+1)(2v+1)
    / 4pi) (l p v; 0 0 0) (l p v; m q -w)``.
    """
    ell, m = degree_and_order(n)
    v, w = degree_and_order(u)
    if m + q != w or ell < abs(v - p) or ell > v + p:
        return 0.0
    scale = math.sqrt((2 * ell + 1) * (2 * p + 1) * (2 * v + 1) / (4.0 * math.pi))
    sign = -1.0 if w % 2 else 1.0
    return sign * scale * wigner3j(ell, p, v, 0, 0, 0) * wigner3j(ell, p, v, m, q, -w)


def nonzero_n_range(p: int, k: int, u: int, lf: int) -> list[int]:
    """Flat indices ``n < lf**2`` at which ``T(n; p, k; u)`` can be nonzero.

    These are the ``n = l(l+1) + m`` with ``m = w - k`` fixed by the
    longitude selection rule and ``max(|v-p|, |m|) <= l <= min(v+p, lf-1)``,
    parity zeros (odd ``l + p + v``) included.
    """
    v, w = degree_and_order(u)
    m = w - k
    lmin = max(abs(v - p), abs(m))
    lmax = min(v + p, lf - 1)
    return [ell * (ell + 1) + m for ell in range(lmin, lmax + 1)]


def _full_normal(p: int, u: int, cov: SpectralCovariance) -> np.ndarray:
    """``(X^T C X)^T`` of block ``(p, u)`` at full ``(2p+1, 2p+1)`` size."""
    out = np.zeros((2 * p + 1, 2 * p + 1), dtype=np.complex128)
    # G[1] is the Gram of the first covariance alone
    G, keep = _gram_pair(p, u, cov, cov, cov.bandlimit)
    if G is not None:
        k = np.flatnonzero(keep)
        out[k[:, None], k] = G[1]
    return out


def normal_matrix(p: int, u: int, csum: SpectralCovariance) -> np.ndarray:
    """Normal-equation matrix ``A(p, u)`` for the summed covariance."""
    A = _full_normal(p, u, csum)
    return 0.5 * (A + A.conj().T)


def normal_rhs(p: int, q: int, u: int, cs: SpectralCovariance) -> np.ndarray:
    """Right-hand side ``b(p, q, u)`` for the signal covariance."""
    return _full_normal(p, u, cs)[:, q + p].copy()
