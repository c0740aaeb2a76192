"""Work counts of one streaming denoise, from the triple-product selection rules.

For window degree ``p``, order ``k`` and harmonic index ``u = (v, w)`` the
row ``T(.; p, k; u)`` covers the source degrees
``max(|v - p|, |w - k|) <= l <= min(v + p, lf - 1)``.  A block ``(u, p)``
stacks the ``2p + 1`` rows; its Gram step gathers ``|nn|**2`` entries of two
covariances and contracts them with the ``(|nn|, 2p + 1)`` triple-product
matrix.  The counts are exact for the seed's ``denoise`` and need no 3j
evaluation, so they extend to the full preset without running it.
"""

from __future__ import annotations

import numpy as np

FULL = (64, 20)  # lf, lh of the paper's full-scale preset


def gram_cost(n: np.ndarray, c: np.ndarray) -> tuple[float, float]:
    """``(flop, byte)`` of the Gram step for blocks of ``n`` rows and ``c`` columns.

    Two stacked covariances; a real-times-complex multiply-add counts 4 flop
    for ``X^T C`` (``c n^2``) and ``(X^T C) X`` (``c^2 n``); the gather
    materialises ``2 n^2`` complex128 values.
    """
    n = np.asarray(n, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    flop = float(np.sum(4.0 * (c * n * n + c * c * n)))
    byte = float(np.sum(32.0 * n * n))
    return flop, byte


def denoise_counts(lf: int, lh: int) -> dict:
    """Blocks, row calls, structurally empty blocks and Gram cost per denoise."""
    lg = lf + lh - 1
    u = np.arange(lg * lg)
    v = np.floor(np.sqrt(u)).astype(np.int64)
    w = u - v * (v + 1)
    empty = 0
    sizes, cols = [], []
    for p in range(lh):
        k = np.arange(-p, p + 1)
        lmin = np.maximum(np.abs(v - p)[:, None], np.abs(w[:, None] - k[None, :]))
        lmax = np.minimum(v + p, lf - 1)[:, None]
        n = np.clip(lmax - lmin + 1, 0, None).sum(axis=1)
        empty += int((n == 0).sum())
        sizes.append(n[n > 0])
        cols.append(np.full(int((n > 0).sum()), 2 * p + 1))
    flop, byte = gram_cost(np.concatenate(sizes), np.concatenate(cols))
    return {
        "blocks": lg * lg * lh,
        "row_calls": 3 * lg * lg * lh * lh,  # forward, design and recovery each
        "components": lg * lg,
        "empty_blocks": empty,
        "gram_flop": flop,
        "gram_byte": byte,
    }
