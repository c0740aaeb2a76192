"""Directional spatially localized spherical harmonic transform (DSLSHT).

For a signal ``f`` bandlimited to ``lf`` and a window ``h`` bandlimited to
``lh``, the transform correlates ``f`` against every rotation of the window
per output harmonic index:

    g_f(rho; u) = integral f(x) (rot_rho h)(x) conj(Y_u(x)) ds(x).

Expanding in rotation-group harmonics gives pure coefficient arithmetic,

    (g_f(.; u))^p_{q, q'} = sum_n (f)_n (h)_p^{q'} T(n; p, q; u),

with triple products restricted by their selection rules.  Each component is
bandlimited to ``lh`` in the rotation variable and to ``lg = lf + lh - 1`` in
the harmonic index ``u``.  This module evaluates only that coefficient form;
it never rotates a window or evaluates a Wigner-D function.

Each component is rank one in the window order ``q'``:
``(g_f(.; u))^p_{q, q'} = tau_{p, q}(u) (h)_p^{q'}`` with
``tau_{p, q}(u) = sum_n T(n; p, q; u) (f)_n``.  The streaming kernel works on
``tau(u)``, of shape ``(lh, 2lh-1)``; only the materialised representation
expands it into cubes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coupling import triple_product_rows
from .sphere import SphericalCoeffs, _lm_index


def window_blocks(h: SphericalCoeffs) -> np.ndarray:
    """Window coefficients as per-degree rows ``hb[p, q' + lh - 1]``."""
    lh = h.bandlimit
    ps, qs = _lm_index(lh)
    hb = np.zeros((lh, 2 * lh - 1), dtype=np.complex128)
    hb[ps, qs + lh - 1] = h.data
    return hb


@dataclass(frozen=True)
class DslshtRep:
    """Joint-domain representation: one Wigner coefficient cube per index ``u``.

    ``data[u, p, q + lh - 1, q' + lh - 1]`` holds ``(g(.; u))^p_{q, q'}`` for
    ``u < lg**2`` with ``lg = lf + lh - 1``.
    """

    lf: int
    lh: int
    data: np.ndarray

    def __post_init__(self):
        if self.lf < 1 or self.lh < 1:
            raise ValueError("bandlimits must be positive")
        lg = self.lg
        data = np.asarray(self.data, dtype=np.complex128)
        expected = (lg * lg, self.lh, 2 * self.lh - 1, 2 * self.lh - 1)
        if data.shape != expected:
            raise ValueError(f"expected data of shape {expected}, got {data.shape}")
        object.__setattr__(self, "data", data)

    @property
    def lg(self) -> int:
        return self.lf + self.lh - 1


def component_rows(u: int, lf: int, lh: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every triple-product row ``T(.; p, q; u)`` of component ``u``, concatenated.

    Returns ``(nn, values, slot)``: entry ``i`` is ``T(nn[i]; p, q; u)``, and
    ``slot[i] = p (2lh - 1) + q + lh - 1`` is the place of its row in the flat
    ``(lh, 2lh-1)`` layout of ``tau(u)``.
    """
    rows = [triple_product_rows(p, q, u, lf) for p in range(lh) for q in range(-p, p + 1)]
    ps, qs = _lm_index(lh)
    slot = np.repeat(ps * (2 * lh - 1) + qs + lh - 1, [nn.size for nn, _ in rows])
    return np.concatenate([nn for nn, _ in rows]), np.concatenate([tv for _, tv in rows]), slot


def scatter_sum(index: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """Complex ``out`` of length ``size`` with ``out[index[i]] += values[i]``."""
    out = np.empty(size, dtype=np.complex128)
    out.real = np.bincount(index, values.real, size)
    out.imag = np.bincount(index, values.imag, size)
    return out


def forward_component(u: int, f: SphericalCoeffs, lh: int) -> np.ndarray:
    """``tau(u)``: ``tau[p, q + lh - 1] = sum_n T(n; p, q; u) (f)_n``, zero for ``|q| > p``.

    Component ``u`` of the forward transform is ``tau[:, :, None] * hb[:, None, :]``
    with ``hb = window_blocks(h)``.
    """
    nn, tv, slot = component_rows(u, f.bandlimit, lh)
    tau = scatter_sum(slot, tv * f.data[nn], lh * (2 * lh - 1))
    return tau.reshape(lh, 2 * lh - 1)


def forward_dslsht(f: SphericalCoeffs, h: SphericalCoeffs) -> DslshtRep:
    """Joint-domain representation of ``f`` analysed with window ``h``."""
    if h.norm() == 0.0:
        raise ValueError("window must be nonzero")
    lf, lh = f.bandlimit, h.bandlimit
    lg = lf + lh - 1
    tau = np.stack([forward_component(u, f, lh) for u in range(lg * lg)])
    return DslshtRep(lf, lh, tau[:, :, :, None] * window_blocks(h)[:, None, :])
