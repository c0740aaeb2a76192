"""Minimum mean-square-error filter design and application in the joint domain.

For each block ``(p, u)`` the optimal filter coefficients solve the normal
equations ``A(p, u) F(p, q, u) = b(p, q, u)`` built from the signal and noise
spectral covariances through triple products:

    A[k', k] = sum_{n, n'} T(n; p, k; u) conj(T(n'; p, k'; u)) (Cs + Cz)[n, n']
    b[k']    = sum_{n, n'} T(n; p, q; u) conj(T(n'; p, k'; u)) Cs[n, n']

``A`` is Hermitian positive semidefinite.  Orders ``k`` whose triple-product
column is structurally empty contribute exact zero rows/columns and are
removed before solving; the remaining core is solved by Hermitian
eigendecomposition with eigenvalues below ``RCOND`` times the largest
truncated, which yields the minimum-norm least-squares solution whenever the
core is rank deficient (those blocks are flagged as truncated).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coupling import triple_product_block
from .dslsht import DslshtRep

# Relative eigenvalue cut-off of the per-block solve.
RCOND = 1e-10


@dataclass(frozen=True)
class SpectralCovariance:
    """Hermitian covariance of harmonic coefficient vectors, indexed by ``n``."""

    bandlimit: int
    matrix: np.ndarray

    def __post_init__(self):
        if self.bandlimit < 1:
            raise ValueError("bandlimit must be positive")
        n = self.bandlimit**2
        mat = np.asarray(self.matrix, dtype=np.complex128)
        if mat.shape != (n, n):
            raise ValueError(f"expected a {n} x {n} matrix, got {mat.shape}")
        if not np.isfinite(mat).all():
            raise ValueError("covariance matrix has non-finite entries")
        scale = max(1.0, float(np.abs(mat).max()))
        asym = float(np.abs(mat - mat.conj().T).max())
        if asym > 1e-12 * scale:
            raise ValueError("covariance matrix is not Hermitian")
        mat = 0.5 * (mat + mat.conj().T)
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def zeros(cls, bandlimit: int) -> "SpectralCovariance":
        n = bandlimit**2
        return cls(bandlimit, np.zeros((n, n), dtype=np.complex128))


@dataclass(frozen=True)
class FilterDiagnostics:
    """Per ``(u, p)`` block diagnostics of a filter design.

    ``pinv_flag[u, p]`` marks blocks with a structurally nonempty core whose
    solve truncated eigenvalues (``rank`` below the core size), so it fell
    back to the minimum-norm pseudo-inverse.  Structurally empty blocks, where
    the selection rules leave no triple product, have rank 0 and are not
    flagged.  ``rank`` and ``cond`` describe the nonempty core of each block.
    """

    pinv_flag: np.ndarray
    rank: np.ndarray
    cond: np.ndarray

    def __post_init__(self):
        shape = self.pinv_flag.shape
        if len(shape) != 2 or self.rank.shape != shape or self.cond.shape != shape:
            raise ValueError("pinv_flag, rank and cond must share one (lg**2, lh) shape")

    @classmethod
    def zeros(cls, lg: int, lh: int) -> "FilterDiagnostics":
        shape = (lg * lg, lh)
        return cls(np.zeros(shape, dtype=bool), np.zeros(shape, dtype=np.int64), np.zeros(shape))

    @property
    def flagged_fraction(self) -> float:
        """Fraction of ``(p, q, u)`` slots whose block truncated its nonempty core."""
        lh = self.pinv_flag.shape[1]
        weights = 2 * np.arange(lh) + 1
        flagged = float((self.pinv_flag @ weights).sum())
        return flagged / float(self.pinv_flag.shape[0] * lh * lh)


@dataclass(frozen=True)
class JointFilter:
    """Filter coefficients ``(zeta(.; u))^p_{q, k}`` plus per-block diagnostics.

    ``zeta[u, p, q + lh - 1, k + lh - 1]`` stores the length ``2p+1`` solution
    vector for each ``(p, q, u)``.
    """

    lh: int
    lg: int
    zeta: np.ndarray
    diagnostics: FilterDiagnostics

    def __post_init__(self):
        expected = (self.lg**2, self.lh, 2 * self.lh - 1, 2 * self.lh - 1)
        if self.zeta.shape != expected:
            raise ValueError(f"expected zeta of shape {expected}")
        if self.diagnostics.pinv_flag.shape != (self.lg**2, self.lh):
            raise ValueError("diagnostics must have shape (lg**2, lh)")

    def block(self, u: int, p: int) -> np.ndarray:
        """The ``(2p+1, 2p+1)`` coefficient block ``[q + p, k + p]`` at ``(u, p)``."""
        off = self.lh - 1
        return self.zeta[u, p, off - p : off + p + 1, off - p : off + p + 1]


def _gram_pair(p: int, u: int, stacked: np.ndarray, lf: int):
    """Gram matrices ``X^T C X`` for each stacked covariance; ``None`` if empty."""
    nn, X = triple_product_block(p, u, lf)
    if nn.size == 0:
        return None, None
    sub = stacked[:, nn[:, None], nn[None, :]]
    M = X.T @ sub @ X
    keep = (X != 0.0).any(axis=0)
    return M, keep


def normal_matrix(p: int, u: int, csum: SpectralCovariance) -> np.ndarray:
    """Normal-equation matrix ``A(p, u)`` for the summed covariance."""
    M, _ = _gram_pair(p, u, csum.matrix[None], csum.bandlimit)
    if M is None:
        return np.zeros((2 * p + 1, 2 * p + 1), dtype=np.complex128)
    A = M[0].T.copy()
    return 0.5 * (A + A.conj().T)


def normal_rhs(p: int, q: int, u: int, cs: SpectralCovariance) -> np.ndarray:
    """Right-hand side ``b(p, q, u)`` for the signal covariance."""
    if abs(q) > p:
        raise ValueError("|q| must not exceed p")
    M, _ = _gram_pair(p, u, cs.matrix[None], cs.bandlimit)
    if M is None:
        return np.zeros(2 * p + 1, dtype=np.complex128)
    return M[0][q + p, :].copy()


def design_block(u: int, p: int, stacked: np.ndarray, lf: int):
    """Solve every order ``q`` of one ``(p, u)`` block.

    ``stacked`` holds ``[Cs + Cz, Cs]``.  Returns the ``(2p+1, 2p+1)`` zeta
    block indexed ``[q + p, k + p]`` plus ``(rank, cond, flagged)``.  The
    solve is minimum-norm on the structurally nonempty core; orders ``k``
    outside it get zero coefficients.  ``flagged`` means the rank fell short
    of the core size; an empty block has rank 0 and is not flagged.
    """
    zeta = np.zeros((2 * p + 1, 2 * p + 1), dtype=np.complex128)
    M, keep = _gram_pair(p, u, stacked, lf)
    if M is None or not keep.any():
        return zeta, 0, math.inf, False
    A = M[0].T[np.ix_(keep, keep)]
    w, V = np.linalg.eigh(0.5 * (A + A.conj().T))
    wmax = float(w[-1])
    if wmax <= 0.0:
        return zeta, 0, math.inf, True
    pos = w > RCOND * wmax
    rank = int(pos.sum())
    cond = wmax / float(w[0]) if w[0] > 0.0 else math.inf
    Vp = V[:, pos]
    R = M[1].T[keep, :]  # column q holds b(p, q, u)
    zeta[:, keep] = (Vp @ ((Vp.conj().T @ R) / w[pos][:, None])).T
    return zeta, rank, cond, rank < int(keep.sum())


def design_component(
    u: int, stacked: np.ndarray, lf: int, lh: int, diag: FilterDiagnostics
) -> np.ndarray:
    """Filter cube ``zeta(.; u)``, zero-padded to ``(lh, 2lh-1, 2lh-1)``.

    ``stacked`` holds ``[Cs + Cz, Cs]``.  Row ``u`` of ``diag`` receives the
    rank, condition and truncation flag of every block.
    """
    off = lh - 1
    cube = np.zeros((lh, 2 * lh - 1, 2 * lh - 1), dtype=np.complex128)
    for p in range(lh):
        sl = slice(off - p, off + p + 1)
        cube[p, sl, sl], diag.rank[u, p], diag.cond[u, p], diag.pinv_flag[u, p] = (
            design_block(u, p, stacked, lf)
        )
    return cube


def design_filter(cs: SpectralCovariance, cz: SpectralCovariance, lh: int) -> JointFilter:
    """Design the joint-domain MMSE filter from known covariances.

    Every ``(p, q, u)`` slot is populated; blocks that needed eigenvalue
    truncation carry the pseudo-inverse flag.
    """
    if cs.bandlimit != cz.bandlimit:
        raise ValueError("covariance bandlimits differ")
    if lh < 1:
        raise ValueError("window bandlimit must be positive")
    lf = cs.bandlimit
    lg = lf + lh - 1
    stacked = np.stack([cs.matrix + cz.matrix, cs.matrix])
    diag = FilterDiagnostics.zeros(lg, lh)
    zeta = np.empty((lg * lg, lh, 2 * lh - 1, 2 * lh - 1), dtype=np.complex128)
    for u in range(lg * lg):
        zeta[u] = design_component(u, stacked, lf, lh, diag)
    return JointFilter(lh, lg, zeta, diag)


def apply_filter(rep: DslshtRep, filt: JointFilter) -> DslshtRep:
    """Convolve the representation with the filter per component:

    ``(nu(.; u))^p_{q, q'} = sum_k (g(.; u))^p_{k, q'} (zeta(.; u))^p_{q, k}``.
    """
    if rep.lh != filt.lh or rep.lg != filt.lg:
        raise ValueError("representation and filter bandlimits differ")
    return DslshtRep(rep.lf, rep.lh, filt.zeta @ rep.data)
