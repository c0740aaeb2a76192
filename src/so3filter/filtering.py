"""Minimum mean-square-error filter design and application in the joint domain.

For each block ``(p, u)`` the optimal filter coefficients solve the normal
equations ``A(p, u) F(p, q, u) = b(p, q, u)`` built from the signal and noise
spectral covariances through triple products:

    A[k', k] = sum_{n, n'} T(n; p, k; u) conj(T(n'; p, k'; u)) (Cs + Cz)[n, n']
    b[k']    = sum_{n, n'} T(n; p, q; u) conj(T(n'; p, k'; u)) Cs[n, n']

With ``X[n, k] = T(n; p, k; u)`` (real) both are transposed Gram matrices:
``A = (X^T (Cs + Cz) X)^T`` and ``b(p, q, u) = (X^T Cs X)[q, :]``.  ``A`` is
Hermitian positive semidefinite, because ``SpectralCovariance`` is the one
gate for both covariances: whether built in code or read from a file, each
is checked there to be finite, Hermitian and positive semidefinite, and
nothing downstream checks again.  The Gram is formed only on the block's
*core*: rows of ``X`` that the selection rules leave at zero (the parity
zeros, about half) are dropped, and so are orders ``k`` whose column is
structurally empty, since they contribute exact zero rows and columns.  Each
block gathers its core straight from ``Cs`` and ``Cz``, one flat ``take``
from each, so no covariance-sized sum or copy is ever formed; the core pair
``Cs + Cz``, ``Cs`` is contracted with the real ``X`` as real matrix products
on its ``float64`` view.  The core is solved by Hermitian eigendecomposition
with eigenvalues below ``RCOND`` times the largest truncated, which yields
the minimum-norm least-squares solution whenever the core is rank deficient
(those blocks are flagged as truncated); orders outside the core get zero
coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coupling import triple_product_block
from .dslsht import DslshtRep

# Relative eigenvalue cut-off of the per-block solve.
RCOND = 1e-10

# Relative tolerance of the positive-semidefinite check on covariances.
PSD_TOL = 1e-10

# Rows per band of the covariance checks.
_BAND_ROWS = 16


@dataclass(frozen=True)
class SpectralCovariance:
    """Hermitian PSD covariance of harmonic coefficient vectors, indexed by ``n``.

    ``matrix`` becomes a new read-only C-contiguous array holding the
    Hermitian part ``0.5 * (M + M^H)`` of the given ``M``, which is left
    untouched; it is the only ``n x n`` array the checks allocate.  ``M``
    must be finite and Hermitian to 1e-12 of its largest entry, and its
    Hermitian part positive semidefinite: it is rejected when its smallest
    ``eigvalsh`` eigenvalue lies below ``-PSD_TOL`` times the largest
    magnitude.
    """

    bandlimit: int
    matrix: np.ndarray
    # Bounds the magnitude of every real and imaginary part of ``matrix``.
    _peak: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._admit(self.bandlimit, np.array(self.matrix, dtype=np.complex128, order="C"), eigensolve=True)

    @classmethod
    def _adopt(cls, bandlimit: int, matrix: np.ndarray) -> "SpectralCovariance":
        """The checks but the eigensolve, for a ``complex128`` C array that is PSD by
        construction, taken over with its Hermitian part formed in place."""
        return cls.__new__(cls)._admit(bandlimit, matrix, eigensolve=False)

    def _admit(self, bandlimit: int, mat: np.ndarray, eigensolve: bool) -> "SpectralCovariance":
        if bandlimit < 1:
            raise ValueError("bandlimit must be positive")
        n = bandlimit**2
        if mat.shape != (n, n):
            raise ValueError(f"expected a {n} x {n} matrix, got {mat.shape}")
        # Row bands keep the checks' temporaries a slice of the matrix.
        bands = [slice(i, i + _BAND_ROWS) for i in range(0, n, _BAND_ROWS)]
        if not all(np.isfinite(mat[b]).all() for b in bands):
            raise ValueError("covariance matrix has non-finite entries")
        # Relative to the matrix's own scale; an all-zero matrix passes.
        peak = max(float(np.abs(mat[b]).max()) for b in bands)
        asym = max(float(np.abs(mat[b] - mat[:, b].T.conj()).max()) for b in bands)
        if asym > 1e-12 * peak:
            raise ValueError("covariance matrix is not Hermitian")
        if asym > 0.0:
            # The bits of 0.5 * (M + M^H), halved first so nothing overflows;
            # left of the diagonal a band mirrors the bands already formed.
            for b in bands:
                mat[b, b.start :] = 0.5 * mat[b, b.start :] + 0.5 * mat[b.start :, b].T.conj()
                mat[b, : b.start] = mat[: b.start, b].T.conj()
        if eigensolve:
            w = np.linalg.eigvalsh(mat)
            if w[0] < -PSD_TOL * np.abs(w).max():
                raise ValueError(
                    f"covariance matrix is not positive semidefinite (min eigenvalue {w[0]:.3g})"
                )
        mat.setflags(write=False)
        for name, value in (("bandlimit", bandlimit), ("matrix", mat), ("_peak", peak)):
            object.__setattr__(self, name, value)
        return self

    @classmethod
    def zeros(cls, bandlimit: int) -> "SpectralCovariance":
        return cls._adopt(bandlimit, np.zeros((bandlimit**2,) * 2, dtype=np.complex128))

    def scaled(self, factor: float) -> "SpectralCovariance":
        """``factor`` times this covariance, with no eigensolve.

        A nonnegative multiple of a Hermitian PSD matrix is one, and the
        product of the exactly Hermitian ``matrix`` with a real factor is
        exactly Hermitian: for a positive factor the result is bit for bit
        ``SpectralCovariance(bandlimit, factor * matrix)``.  A negative or
        non-finite factor, or one that overflows an entry, is rejected.
        """
        if not (factor >= 0.0 and math.isfinite(factor * self._peak)):
            raise ValueError(f"covariance scale factor {factor} is negative, non-finite or overflows")
        return SpectralCovariance._adopt(self.bandlimit, factor * self.matrix)


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

    @property
    def block_counts(self) -> tuple[int, int, int]:
        """``(empty, truncated, solved)`` ``(u, p)`` blocks; they sum to ``lg**2 * lh``.

        Empty blocks have rank 0 and no flag, truncated ones the flag, and
        solved ones a full-rank nonempty core.
        """
        truncated = int(self.pinv_flag.sum())
        empty = int(((self.rank == 0) & ~self.pinv_flag).sum())
        return empty, truncated, self.pinv_flag.size - empty - truncated


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


def _gram_pair(p: int, u: int, cs: SpectralCovariance, cz: SpectralCovariance, lf: int):
    """Core normal matrices of block ``(p, u)`` for ``Cs + Cz`` and for ``Cs``.

    Returns ``(G, keep)``: ``keep`` marks the orders ``k`` with a nonempty
    triple-product column, and ``G[0]``, ``G[1]`` are ``(X^T (Cs + Cz) X)^T``
    and ``(X^T Cs X)^T`` restricted to them, so ``G[s][k', k]`` is ``A[k', k]``
    for that covariance.  ``G`` is ``None`` when no order is kept.
    """
    nn, X = triple_product_block(p, u, lf)
    rows = X.any(axis=1)  # drop the parity zeros, about half the rows
    nn, X = nn[rows], X[rows]
    keep = X.any(axis=0)
    if nn.size == 0:
        return None, keep
    if not keep.all():
        X = X[:, keep]
    m, c = X.shape
    n = cs.matrix.shape[0]
    # S[i, 0, j] = (Cs + Cz)[nn[i], nn[j]] and S[i, 1, j] = Cs[nn[i], nn[j]],
    # gathered with one flat take from each matrix.  The sum is formed on the
    # contiguous gathers; addition commutes, so these are the bits of Cs + Cz.
    flat = nn[:, None] * n + nn
    cs_g = cs.matrix.ravel().take(flat)
    sum_g = cz.matrix.ravel().take(flat)
    sum_g += cs_g
    S = np.empty((m, 2, m), dtype=np.complex128)
    S[:, 0] = sum_g
    S[:, 1] = cs_g
    # Real GEMMs on the (re, im) interleaved view: T[a, s, j] = (X^T C_s)[a, j],
    # then G[b, a, s] = sum_j X[j, b] T[a, s, j] = (X^T C_s X)[a, b].
    T = X.T @ S.view(np.float64).reshape(m, -1)
    T = T.reshape(c, -1, m, 2).transpose(2, 0, 1, 3).reshape(m, -1)
    G = (X.T @ T).view(np.complex128).reshape(c, c, -1)
    return G.transpose(2, 0, 1), keep


def design_block(u: int, p: int, cs: SpectralCovariance, cz: SpectralCovariance, lf: int):
    """Solve every order ``q`` of one ``(p, u)`` block.

    Returns the ``(2p+1, 2p+1)`` zeta block indexed ``[q + p, k + p]`` plus
    ``(rank, cond, flagged)``.  The solve is minimum-norm on the structurally
    nonempty core; orders ``q`` and ``k`` outside it get zero coefficients.
    ``flagged`` means the rank fell short of the core size; an empty block
    has rank 0 and is not flagged.
    """
    zeta = np.zeros((2 * p + 1, 2 * p + 1), dtype=np.complex128)
    G, keep = _gram_pair(p, u, cs, cz, lf)
    if G is None:
        return zeta, 0, math.inf, False
    A, R = G  # column q of R holds b(p, q, u) on the core
    w, V = np.linalg.eigh(0.5 * (A + A.conj().T))
    wmax = float(w[-1])
    if wmax <= 0.0:
        return zeta, 0, math.inf, True
    pos = w > RCOND * wmax
    rank = int(pos.sum())
    cond = wmax / float(w[0]) if w[0] > 0.0 else math.inf
    flagged = rank < w.size
    if flagged:
        V, w = V[:, pos], w[pos]
    core = (V @ ((V.conj().T @ R) / w[:, None])).T
    if keep.all():
        return core, rank, cond, flagged
    k = np.flatnonzero(keep)
    zeta[k[:, None], k] = core
    return zeta, rank, cond, flagged


def design_component(
    u: int, cs: SpectralCovariance, cz: SpectralCovariance, lf: int, lh: int, diag: FilterDiagnostics
) -> np.ndarray:
    """Filter cube ``zeta(.; u)``, zero-padded to ``(lh, 2lh-1, 2lh-1)``.

    Row ``u`` of ``diag`` receives the rank, condition and truncation flag of
    every block.
    """
    off = lh - 1
    cube = np.zeros((lh, 2 * lh - 1, 2 * lh - 1), dtype=np.complex128)
    for p in range(lh):
        sl = slice(off - p, off + p + 1)
        cube[p, sl, sl], diag.rank[u, p], diag.cond[u, p], diag.pinv_flag[u, p] = (
            design_block(u, p, cs, cz, lf)
        )
    return cube


def design_filter(cs: SpectralCovariance, cz: SpectralCovariance, lh: int) -> JointFilter:
    """Design the joint-domain MMSE filter from known covariances.

    Every ``(p, q, u)`` slot is populated; blocks that needed eigenvalue
    truncation carry the pseudo-inverse flag.  No ``n x n`` array is
    allocated: each block gathers its core from ``Cs`` and ``Cz`` directly.
    """
    if cs.bandlimit != cz.bandlimit:
        raise ValueError("covariance bandlimits differ")
    if lh < 1:
        raise ValueError("window bandlimit must be positive")
    lf = cs.bandlimit
    lg = lf + lh - 1
    diag = FilterDiagnostics.zeros(lg, lh)
    zeta = np.empty((lg * lg, lh, 2 * lh - 1, 2 * lh - 1), dtype=np.complex128)
    for u in range(lg * lg):
        zeta[u] = design_component(u, cs, cz, lf, lh, diag)
    return JointFilter(lh, lg, zeta, diag)


def apply_filter(rep: DslshtRep, filt: JointFilter) -> DslshtRep:
    """Convolve the representation with the filter per component:

    ``(nu(.; u))^p_{q, q'} = sum_k (g(.; u))^p_{k, q'} (zeta(.; u))^p_{q, k}``.
    """
    if rep.lh != filt.lh or rep.lg != filt.lg:
        raise ValueError("representation and filter bandlimits differ")
    return DslshtRep(rep.lf, rep.lh, filt.zeta @ rep.data)
