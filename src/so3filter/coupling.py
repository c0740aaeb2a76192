"""Wigner 3j symbols and spherical-harmonic triple-product integrals.

Whole families ``(j1 j2 j; m1 m2 -(m1+m2))`` over the third degree are
evaluated with the Luscombe-Luban two-sided scheme: ratio recursions through
the nonclassical zones at both ends of the degree range, the three-term
recursion across the classical middle, and a final normalisation by
``sum (2j+1) f(j)^2 = 1`` with the sign convention
``sign f(jmax) = (-1)^(j1-j2-m3)``.  One kernel runs this scheme for many
families of one degree pair ``(j1, j2)`` at once, vectorised over the
families.  The triple-product rows of each degree pair are built from one
kernel call and memoised as one record; every stage reads a row as a slice
of its degree pair's record.

The triple product ``T(n; p, q; u) = integral Y_n Y_p^q conj(Y_u)`` reduces to
two 3j factors; with ``n -> (l, m)`` and ``u -> (v, w)``,

    T = (-1)^w sqrt((2l+1)(2p+1)(2v+1) / 4pi)
        * (l p v; 0 0 0) * (l p v; m q -w),

which vanishes unless ``m + q = w`` and ``|l-p| <= v <= l+p``.  Two exact 3j
symmetries shape it further:

* Parity: ``(l p v; 0 0 0) = 0`` for odd ``l + p + v``, so about half the
  candidates of every row are exact zeros.
* Reflection: ``(l p v; -m -q w) = (-1)^(l+p+v) (l p v; m q -w)``.  The sign
  is +1 wherever the parity factor is nonzero, so
  ``T(l(l+1) - m; p, -q; v(v+1) - w) = T(l(l+1) + m; p, q; v(v+1) + w)``, and
  a degree pair's record evaluates only the rows with ``w <= 0``.  A row
  with ``w > 0`` has its own indices and reads the values of its mirror at
  ``(-w, -q)``, which are stored once.  The rows at ``w = 0`` are kept as
  evaluated: their ``+q`` and ``-q`` rows may differ in the sign of a zero.
"""

from __future__ import annotations

import functools
import math
from array import array

import numpy as np

_FOUR_PI = 4.0 * math.pi

_families_evaluated = 0  # families (rows) the kernel has evaluated, for cache_info


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _families(j1: int, j2: int, m1: np.ndarray, m2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """3j families ``(j1 j2 j; m1[r] m2[r] -(m1[r]+m2[r]))`` of one degree pair.

    Returns ``(jmin, f)``: row ``r`` of ``f`` holds its family from
    ``j = jmin[r]`` up to ``j1 + j2``, left-aligned and zero-padded to the
    pair's widest range of ``2 min(j1, j2) + 1`` degrees.  Every step is
    elementwise over the rows in a fixed order, so a family's values do not
    depend on which other rows share its batch.

    With ``X f(j+1) + Y f(j) + Z f(j-1) = 0`` each row follows one of five
    cases, selected by per-row masks:

    * two-sided: forward ratios ``f(j)/f(j+1)`` from ``jmin`` fix the anchor;
      the three-term recursion runs up from it to where the backward ratios
      ``f(j)/f(j-1)`` from ``jmax`` take over, one step later if the junction
      falls on a near-node of the oscillation;
    * bottom-vacuous, ``Y(jmin) = 0``: the anchor is where the backward ratios
      stop, and the three-term recursion runs down from it;
    * top-vacuous, ``Y(jmax) = 0``: the forward ratios fix the anchor and the
      three-term recursion runs up to ``jmax``;
    * parity, ``Y`` identically zero: every other symbol vanishes; this is the
      bottom-vacuous case whose backward ratios stop at once, so the anchor
      is ``jmax``;
    * a single symbol, ``jmin = jmax``: the anchor alone.
    """
    global _families_evaluated
    m1 = np.asarray(m1, dtype=np.int64)
    m2 = np.asarray(m2, dtype=np.int64)
    rows = np.arange(m1.size)
    _families_evaluated += m1.size
    m3 = -(m1 + m2)
    jmin = np.maximum(abs(j1 - j2), np.abs(m3))
    nj = j1 + j2 + 1 - jmin
    top = nj - 1
    width = 2 * min(j1, j2) + 1
    # Arrays are (degree, row): each recursion step reads contiguous rows.
    js = jmin + np.arange(width, dtype=np.float64)[:, None]
    diff2 = float((j1 - j2) ** 2)
    top2 = float((j1 + j2 + 1) ** 2)
    m3sq = (m3 * m3).astype(np.float64)

    def _a(j):
        return np.sqrt(np.maximum((j * j - diff2) * (top2 - j * j) * (j * j - m3sq), 0.0))

    X = js * _a(js + 1.0)
    Y = (2.0 * js + 1.0) * (
        (m1 + m2) * (j1 * (j1 + 1.0) - j2 * (j2 + 1.0)) - (m1 - m2) * js * (js + 1.0)
    )
    Z = (js + 1.0) * _a(js)
    bottom = Y[0] == 0.0
    topvac = ~bottom & (Y[top, rows] == 0.0)
    two_sided = ~(bottom | topvac)

    # Forward ratios s[i] = f(i)/f(i+1) while they stay contracting; anchor
    # is the first index past them.
    s = np.empty((width, rows.size))
    anchor = np.zeros(rows.size, dtype=np.int64)
    prev = np.zeros(rows.size)
    going = ~bottom
    for i in range(width - 1):
        going &= i < top
        if not going.any():
            break
        den = Y[i] + Z[i] * prev
        s[i] = prev = -X[i] / den
        ok = going & (den != 0.0) & np.isfinite(prev)
        anchor[ok] = i + 1
        going = ok & (np.abs(prev) <= 1.0)

    # Backward ratios r[i] = f(i)/f(i-1) down from each row's own jmax;
    # indices from top_start up are recovered by ratio expansion.
    r = np.empty((width, rows.size))
    top_start = nj.copy()
    prev = np.zeros(rows.size)
    pending = ~topvac
    for i in range(width - 1, 0, -1):
        if not pending.any():
            break
        going = pending & (i <= top)
        den = Y[i] + X[i] * prev
        r[i] = val = -Z[i] / den
        ok = going & (den != 0.0) & np.isfinite(val)
        top_start[ok] = i
        prev = np.where(ok, val, 0.0)
        pending &= ~going | (ok & (np.abs(val) <= 1.0))

    # Anchor a with f(a) = 1; from t up the backward ratios fill the family.
    a = np.where(bottom, top_start - 1, anchor)
    t = np.where(bottom, top_start, np.where(topvac, nj, np.maximum(top_start, anchor + 1)))
    # f(jmin + i) sits at f[i + 1], with a zero on either side.
    f = np.zeros((width + 2, rows.size))
    f[a + 1, rows] = 1.0
    # Down from the anchor by the forward ratios (all but bottom-vacuous).
    for i in range(int(a.max(initial=0)), 0, -1):
        f[i] = np.where(~bottom & (i <= a), f[i + 1] * s[i - 1], f[i])
    # Up from the anchor: three-term recursion below t, ratios from t on.
    t0 = t.copy()
    for i in range(int(a.min(initial=width)) + 1, width):
        near_node = np.abs(f[i]) < 1e-5 * np.abs(f[i - 1])
        t += two_sided & (i == t0) & (i >= 2) & (i < nj) & near_node
        three = -(Y[i - 1] * f[i] + Z[i - 1] * f[i - 1]) / X[i - 1]
        ratio = np.where((t <= i) & (i < nj), f[i] * r[i], f[i + 1])
        f[i + 1] = np.where((a < i) & (i < t), three, ratio)
    # Bottom-vacuous: three-term recursion down from the anchor.
    for i in range(int(a[bottom].max(initial=0)), 0, -1):
        three = -(Y[i] * f[i + 1] + X[i] * f[i + 2]) / Z[i]
        f[i] = np.where(bottom & (i <= a), three, f[i])

    # (row, degree) from here: a row's sum is then its own pairwise sum.
    f = np.ascontiguousarray(f[1:-1].T)
    total = np.sum(np.ascontiguousarray(2.0 * js.T + 1.0) * f * f, axis=1)
    last = f[rows, width - 1 - np.argmax(f[:, ::-1] != 0.0, axis=1)]
    sign_top = np.where((j1 - j2 + m1 + m2) % 2, -1.0, 1.0)
    return jmin, f * (sign_top * np.copysign(1.0, last) / np.sqrt(total))[:, None]


# Bound of the degree-pair record cache.  A denoise walks ``u`` in order and
# reads every ``p`` at each ``u``, so it needs only the ``lh`` records of the
# current ``v`` and builds each record once.  The desk preset's 184 records
# fit whole, so every denoise of a desk sweep after the first reuses them.
@functools.lru_cache(maxsize=192)
def _pair_record(p: int, v: int, lf: int) -> tuple[np.ndarray, np.ndarray, array]:
    """Every triple-product row ``T(.; p, k; v(v+1) + w)`` of one degree pair.

    Returns ``(nn, values, offsets)`` over the ``R = (2v+1)(2p+1)`` rows
    ``(w, k)``, ``w`` from ``-v`` to ``v`` and, within each, ``k`` from ``-p``
    to ``p``.  Row ``r`` has the ``int32`` indices ``nn[offsets[r] :
    offsets[r + 1]]``, and ``offsets`` is one ``array("q")`` of ``R + 1``
    positions.  ``values`` holds only the rows with ``w <= 0``, at the same
    positions; a row with ``w > 0`` has the values of its reflection, row
    ``R - 1 - r``.  One kernel call evaluates the families of the nonempty
    rows with ``w <= 0``.  Both arrays are read-only.
    """
    w = np.repeat(np.arange(-v, 1), 2 * p + 1)
    k = np.tile(np.arange(-p, p + 1), v + 1)
    m = w - k
    sizes = np.maximum(min(v + p, lf - 1) + 1 - np.maximum(abs(v - p), np.abs(m)), 0)
    live = sizes > 0
    jmin, fam = _families(p, v, k[live], -w[live])  # jmin is each row's lowest l
    ls = jmin[:, None] + np.arange(fam.shape[1])  # padded l grid of the live rows
    grid = np.zeros((w.size, fam.shape[1]))
    nn = np.zeros(grid.shape, dtype=np.intp)
    if live.any():
        parity = fam[np.count_nonzero(live[: v * (2 * p + 1) + p])]  # row w = k = 0
        grid[live] = (
            np.where(w[live] % 2, -1.0, 1.0)[:, None]
            * np.sqrt((2 * ls + 1) * (2 * p + 1) * (2 * v + 1) / _FOUR_PI)
            * np.take(parity, ls - abs(v - p), mode="clip")
            * fam
        )
        nn[live] = ls * (ls + 1) + m[live, None]
    # Row (w, k) with w > 0 has the indices of row (-w, -k) with the order
    # negated, the rows with w < 0 in reverse order, and reads their values.
    neg = slice(0, v * (2 * p + 1))
    nn = np.concatenate((nn, (nn - 2 * m[:, None])[neg][::-1]))
    sizes = np.concatenate((sizes, sizes[neg][::-1]))
    packed = np.arange(grid.shape[1]) < sizes[:, None]
    nn, values = nn[packed].astype(np.int32), grid[packed[: w.size]]
    for arr in (nn, values):
        arr.setflags(write=False)
    return nn, values, array("q", (0, *np.cumsum(sizes).tolist()))


def triple_product_rows(p: int, q: int, u: int, lf: int) -> tuple[np.ndarray, np.ndarray]:
    """Sparse row of triple products over the source index.

    Returns read-only ``(n_indices, values)`` with
    ``values[i] = T(n_indices[i]; p, q; u)``; ``n_indices`` is ``int32``.  With
    ``u -> (v, w)`` the candidates are the ``n = l(l+1) + m`` with ``m = w - q``
    and ``max(|v-p|, |m|) <= l <= min(v+p, lf-1)``, parity zeros included, so
    each row spans one contiguous degree range.  Forward
    transform, filter design and recovery all read their rows from here, as
    views into the record of the degree pair ``(p, v)``.  A row with
    ``w > 0`` returns the values of its reflection ``(p, -q, v(v+1) - w)``
    itself, not a copy.
    """
    if p < 0 or abs(q) > p or u < 0 or lf < 1:
        raise ValueError("invalid triple-product indices")
    v = math.isqrt(u)
    w = u - v * v - v
    nn, values, offsets = _pair_record(p, v, lf)
    r = (w + v) * (2 * p + 1) + q + p
    mirror = (2 * v + 1) * (2 * p + 1) - 1 - r if w > 0 else r
    return nn[offsets[r] : offsets[r + 1]], values[offsets[mirror] : offsets[mirror + 1]]


def cache_info():
    """``(degree-pair records, 3j families evaluated)``.

    The first is the ``functools`` cache statistics of the records; the
    second counts every family the kernel has evaluated in this process.
    """
    return _pair_record.cache_info(), _families_evaluated


def triple_product_block(p: int, u: int, lf: int) -> tuple[np.ndarray, np.ndarray]:
    """Stacked triple-product columns for every order ``k`` of degree ``p``.

    Returns ``(n_union, X)`` where ``X[:, k + p]`` holds ``T(n; p, k; u)`` on
    the concatenated index set ``n_union`` (disjoint per ``k``); rows line up
    with ``n_union``.
    """
    rows = [triple_product_rows(p, k, u, lf) for k in range(-p, p + 1)]
    sizes = [r[0].size for r in rows]
    total = sum(sizes)
    n_union = np.empty(total, dtype=np.intp)
    X = np.zeros((total, 2 * p + 1))
    pos = 0
    for col, (nn, tv) in enumerate(rows):
        n_union[pos : pos + nn.size] = nn
        X[pos : pos + nn.size, col] = tv
        pos += nn.size
    return n_union, X
