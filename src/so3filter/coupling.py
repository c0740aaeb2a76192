"""Wigner 3j symbols and spherical-harmonic triple-product integrals.

Whole families ``(j1 j2 j; m1 m2 -(m1+m2))`` over the third degree are
evaluated with the Luscombe-Luban two-sided scheme: ratio recursions through
the nonclassical zones at both ends of the degree range, the three-term
recursion across the classical middle, and a final normalisation by
``sum (2j+1) f(j)^2 = 1`` with the sign convention
``sign f(jmax) = (-1)^(j1-j2-m3)``.  Families are memoised, and so is
the packed set of triple-product rows of each ``(p, u)`` block.

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
  the rows of a block with ``w > 0`` are copied from its mirror block at
  ``-w`` instead of being evaluated from 3j families.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .sphere import degree_and_order

_FOUR_PI = 4.0 * math.pi


# Bound of the 3j family cache.  The row plans below are cached in place of
# the families they are built from, so only recent families need to stay.
@functools.lru_cache(maxsize=1 << 12)
def _family(j1: int, j2: int, m1: int, m2: int) -> tuple[int, np.ndarray]:
    """3j values ``(j1 j2 j; m1 m2 -(m1+m2))`` for every admissible ``j``.

    Returns ``(jmin, values)`` with ``values[i]`` the symbol at
    ``j = jmin + i`` up to ``j = j1 + j2``.
    """
    m3 = -(m1 + m2)
    jmin = max(abs(j1 - j2), abs(m3))
    jmax = j1 + j2
    nj = jmax - jmin + 1
    sign_top = -1.0 if (j1 - j2 + m1 + m2) % 2 else 1.0
    if nj == 1:
        vals = np.array([sign_top / math.sqrt(2.0 * jmin + 1.0)])
        vals.setflags(write=False)
        return jmin, vals

    js = np.arange(jmin, jmax + 1, dtype=np.float64)
    diff2 = float((j1 - j2) ** 2)
    top2 = float((j1 + j2 + 1) ** 2)

    def _a(j):
        return np.sqrt(np.maximum((j * j - diff2) * (top2 - j * j) * (j * j - m3 * m3), 0.0))

    X = js * _a(js + 1.0)
    Y = (2.0 * js + 1.0) * (
        (m1 + m2) * (j1 * (j1 + 1.0) - j2 * (j2 + 1.0)) - (m1 - m2) * js * (js + 1.0)
    )
    Z = (js + 1.0) * _a(js)

    def _forward_ratios():
        # s[i] = f(i)/f(i+1) up from jmin while the ratios stay contracting;
        # returns (s, anchor) with anchor the first classical-zone index.
        s = np.zeros(nj)
        anchor = 0
        prev = 0.0
        for i in range(nj - 1):
            den = Y[i] + Z[i] * prev
            if den == 0.0:
                break
            val = -X[i] / den
            if not math.isfinite(val):
                break
            s[i] = val
            prev = val
            anchor = i + 1
            if abs(val) > 1.0:
                break
        return s, anchor

    def _backward_ratios():
        # r[i] = f(i)/f(i-1) down from jmax; returns (r, top_start) with
        # indices >= top_start to be recovered by ratio expansion.
        r = np.zeros(nj)
        top_start = nj
        prev = 0.0
        for i in range(nj - 1, 0, -1):
            den = Y[i] + X[i] * prev
            if den == 0.0:
                break
            val = -Z[i] / den
            if not math.isfinite(val):
                break
            r[i] = val
            prev = val
            top_start = i
            if abs(val) > 1.0:
                break
        return r, top_start

    f = np.zeros(nj)
    if Y[0] == 0.0 and Y[-1] == 0.0:
        # Parity family: every other symbol vanishes; chain down from the top,
        # whose value is never zero.
        f[-1] = 1.0
        for i in range(nj - 2, 0, -2):
            f[i - 1] = -X[i] * f[i + 1] / Z[i]
    elif Y[0] == 0.0:
        # The bottom boundary relation is vacuous (or f(jmin+1) = 0); anchor
        # at the top and recurse downward, where Z never vanishes.
        r, top_start = _backward_ratios()
        anchor = top_start - 1
        f[anchor] = 1.0
        for i in range(anchor + 1, nj):
            f[i] = f[i - 1] * r[i]
        for i in range(anchor, 0, -1):
            up = f[i + 1] if i + 1 < nj else 0.0
            f[i - 1] = -(Y[i] * f[i] + X[i] * up) / Z[i]
    elif Y[-1] == 0.0:
        # Mirror case: anchor at the bottom and recurse upward.
        s, anchor = _forward_ratios()
        f[anchor] = 1.0
        for i in range(anchor - 1, -1, -1):
            f[i] = f[i + 1] * s[i]
        for i in range(anchor, nj - 1):
            down = f[i - 1] if i > 0 else 0.0
            f[i + 1] = -(Y[i] * f[i] + Z[i] * down) / X[i]
    else:
        # Two-sided: ratio expansions through both nonclassical zones, the
        # three-term recursion across the classical middle.
        s, anchor = _forward_ratios()
        r, top_start = _backward_ratios()
        top_start = max(top_start, anchor + 1)

        f[anchor] = 1.0
        for i in range(anchor - 1, -1, -1):
            f[i] = f[i + 1] * s[i]
        for i in range(anchor, top_start - 1):
            f[i + 1] = -(Y[i] * f[i] + Z[i] * f[i - 1]) / X[i]
        if top_start < nj:
            jn = top_start - 1
            if jn >= 1 and abs(f[jn]) < 1e-5 * abs(f[jn - 1]):
                # Junction fell on a near-node of the oscillation; push it up
                # one step so the ratio expansion is anchored on a sound value.
                f[jn + 1] = -(Y[jn] * f[jn] + Z[jn] * f[jn - 1]) / X[jn]
                top_start += 1
            for i in range(top_start, nj):
                f[i] = f[i - 1] * r[i]

    norm = math.sqrt(float(np.sum((2.0 * js + 1.0) * f * f)))
    last = f[-1] if f[-1] != 0.0 else f[np.flatnonzero(f)[-1]]
    f *= sign_top * math.copysign(1.0, last) / norm
    f.setflags(write=False)
    return jmin, f


def wigner3j(l1: int, l2: int, l3: int, m1: int, m2: int, m3: int) -> float:
    """Wigner 3j symbol for integer arguments.

    Selection-rule violations (triangle, order sums, ``|m| > l``) give 0;
    negative degrees raise.
    """
    if l1 < 0 or l2 < 0 or l3 < 0:
        raise ValueError("degrees must be nonnegative")
    if abs(m1) > l1 or abs(m2) > l2 or abs(m3) > l3:
        return 0.0
    if m1 + m2 + m3 != 0:
        return 0.0
    if l3 < max(abs(l1 - l2), abs(m3)) or l3 > l1 + l2:
        return 0.0
    jmin, vals = _family(l1, l2, m1, m2)
    return float(vals[l3 - jmin])


def wigner3j_family(l1: int, l2: int, m1: int, m2: int) -> tuple[int, np.ndarray]:
    """All symbols ``(l1 l2 j; m1 m2 -(m1+m2))`` as ``(jmin, values)``."""
    if l1 < 0 or l2 < 0:
        raise ValueError("degrees must be nonnegative")
    if abs(m1) > l1 or abs(m2) > l2:
        raise ValueError("orders must satisfy |m| <= l")
    jmin, vals = _family(l1, l2, m1, m2)
    return jmin, vals.copy()


def triple_product(n: int, p: int, q: int, u: int) -> float:
    """Triple-product integral ``T(n; p, q; u)`` of ``Y_n Y_p^q conj(Y_u)``."""
    if n < 0 or u < 0:
        raise ValueError("flat indices must be nonnegative")
    if p < 0 or abs(q) > p:
        raise ValueError("window orders must satisfy |q| <= p")
    ell, m = degree_and_order(n)
    v, w = degree_and_order(u)
    if m + q != w:
        return 0.0
    if ell < abs(v - p) or ell > v + p:
        return 0.0
    scale = math.sqrt((2 * ell + 1) * (2 * p + 1) * (2 * v + 1) / _FOUR_PI)
    sign = -1.0 if w % 2 else 1.0
    return (
        sign
        * scale
        * wigner3j(ell, p, v, 0, 0, 0)
        * wigner3j(ell, p, v, m, q, -w)
    )


def nonzero_n_range(p: int, k: int, u: int, lf: int) -> list[int]:
    """Flat indices ``n < lf**2`` at which ``T(n; p, k; u)`` can be nonzero.

    These are the ``n = l(l+1) + m`` with ``m = w - k`` fixed by the
    longitude selection rule and ``max(|v-p|, |m|) <= l <= min(v+p, lf-1)``.
    The candidates deliberately include the parity zeros (odd ``l + p + v``),
    so every row of a block spans one contiguous degree range; the Gram of
    :mod:`.filtering` drops those zero rows itself.
    """
    if p < 0 or abs(k) > p or u < 0 or lf < 1:
        raise ValueError("invalid triple-product indices")
    v, w = degree_and_order(u)
    m = w - k
    lmin = max(abs(v - p), abs(m))
    lmax = min(v + p, lf - 1)
    return [ell * (ell + 1) + m for ell in range(lmin, lmax + 1)]


# Bound of the row-plan cache, in blocks: the desk preset (4,232 blocks) fits
# whole, so every denoise of a desk sweep after the first reuses its plans.
# Larger runs only share each plan between the three stages of one ``u``.
# A mirror block is at most ``2 (lg - 1) lh`` blocks back (3,280 at full
# scale), so it is still cached when its reflection is built.
# One packed record per block, not one cache entry per row: per-row entries
# would hold the desk plan in 17.6 MB instead of 4.8 MB.
@functools.lru_cache(maxsize=1 << 13)
def _row_plan(p: int, u: int, lf: int) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """Every row ``T(.; p, k; u)``, ``-p <= k <= p``, packed into one record.

    Returns read-only ``(nn, values, offsets)``: row ``k`` is
    ``nn[offsets[k + p] : offsets[k + p + 1]]`` with its values at the same
    positions.  Forward transform, filter design and recovery all read their
    rows from here.  A block with ``w > 0`` is built from the cached plan of
    its mirror ``u - 2w`` by reflection, without any 3j family.
    """
    v, w = degree_and_order(u)
    nns, vals, offsets = [], [], [0]
    if w > 0:
        # Row k is row -k of the mirror (v, -w) with its order -m negated.
        nn_m, values_m, offsets_m = _row_plan(p, u - 2 * w, lf)
        for k in range(-p, p + 1):
            row = slice(offsets_m[p - k], offsets_m[p - k + 1])
            nns.append(nn_m[row] + 2 * (w - k))
            vals.append(values_m[row])
            offsets.append(offsets[-1] + row.stop - row.start)
    else:
        sign = -1.0 if w % 2 else 1.0
        j0a, fa = _family(p, v, 0, 0)
        for k in range(-p, p + 1):
            m = w - k
            ls = np.arange(max(abs(v - p), abs(m)), min(v + p, lf - 1) + 1)
            if ls.size:
                j0b, fb = _family(p, v, k, -w)
                scale = np.sqrt((2 * ls + 1) * (2 * p + 1) * (2 * v + 1) / _FOUR_PI)
                nns.append(ls * (ls + 1) + m)
                vals.append(sign * scale * fa[ls - j0a] * fb[ls - j0b])
            offsets.append(offsets[-1] + ls.size)
    nn = np.concatenate(nns) if nns else np.empty(0, dtype=np.intp)
    values = np.concatenate(vals) if vals else np.empty(0)
    nn.setflags(write=False)
    values.setflags(write=False)
    return nn, values, tuple(offsets)


def triple_product_rows(p: int, q: int, u: int, lf: int) -> tuple[np.ndarray, np.ndarray]:
    """Sparse row of triple products over the source index.

    Returns read-only ``(n_indices, values)`` with
    ``values[i] = T(n_indices[i]; p, q; u)``, covering exactly the candidates
    from :func:`nonzero_n_range`.
    """
    if p < 0 or abs(q) > p or u < 0 or lf < 1:
        raise ValueError("invalid triple-product indices")
    nn, values, offsets = _row_plan(p, u, lf)
    row = slice(offsets[q + p], offsets[q + p + 1])
    return nn[row], values[row]


def cache_info():
    """``functools`` cache statistics ``(row plans, 3j families)``."""
    return _row_plan.cache_info(), _family.cache_info()


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
