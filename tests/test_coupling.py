"""3j symbols, triple products and selection-rule ranges."""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from so3filter import (
    SpectralCovariance,
    build_signal_covariance,
    denoise,
    triple_product_rows,
)
from so3filter import coupling
from so3filter.cli import DESK_PRESET, FULL_PRESET
from so3filter.coupling import triple_product_block

from coupling_reference import nonzero_n_range, triple_product, wigner3j, wigner3j_family
from helpers import racah_3j, random_coeffs
from sphere_reference import SphereGrid, degree_and_order, eval_ylm


class TestWigner3j:
    def test_known_value(self):
        assert wigner3j(1, 0, 1, 0, 0, 0) == pytest.approx(-1.0 / math.sqrt(3.0))

    def test_triangle_violation_zero(self):
        assert wigner3j(1, 1, 3, 0, 0, 0) == 0.0

    def test_order_sum_violation_zero(self):
        assert wigner3j(2, 2, 2, 1, 0, 0) == 0.0

    def test_invalid_order_zero(self):
        assert wigner3j(1, 1, 1, 2, -1, -1) == 0.0

    @given(
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=0, max_value=24),
        st.integers(min_value=-12, max_value=12),
        st.integers(min_value=-12, max_value=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_racah_sum(self, l1, l2, l3, m1, m2):
        m3 = -(m1 + m2)
        if abs(m1) > l1 or abs(m2) > l2 or abs(m3) > l3:
            return
        assert wigner3j(l1, l2, l3, m1, m2, m3) == pytest.approx(
            racah_3j(l1, l2, l3, m1, m2, m3), abs=1e-12
        )

    def test_large_degree_against_racah(self):
        cases = [(60, 19, 79, -23, 11, 12), (63, 15, 70, 2, -9, 7), (50, 18, 40, 30, -10, -20)]
        for args in cases:
            assert wigner3j(*args) == pytest.approx(racah_3j(*args), abs=5e-13)

    def test_family_matches_scalars(self):
        jmin, vals = wigner3j_family(5, 3, 2, -1)
        for i, v in enumerate(vals):
            assert v == pytest.approx(wigner3j(5, 3, jmin + i, 2, -1, -1), abs=1e-14)

    def test_orthogonality_relation(self):
        # sum_{w,q} (l p v; m q -w)(l' p v; m' q -w) = dll' dmm' / (2l+1)
        # over triangle-valid degree pairs, exhaustively through degree 6
        for p in range(7):
            for v in range(7):
                lo, hi = abs(p - v), p + v
                ls = [l for l in range(7) if lo <= l <= hi]
                for l in ls:
                    for lp in ls:
                        for m in range(-l, l + 1):
                            for mp in range(-lp, lp + 1):
                                total = 0.0
                                for q in range(-p, p + 1):
                                    for w in range(-v, v + 1):
                                        total += wigner3j(l, p, v, m, q, -w) * wigner3j(
                                            lp, p, v, mp, q, -w
                                        )
                                expected = (
                                    1.0 / (2 * l + 1) if (l == lp and m == mp) else 0.0
                                )
                                assert abs(total - expected) < 1e-12

    def test_degree_sum_rule(self):
        # sum_v (2v+1) (l p v; 0 0 0)^2 = 1 once v reaches l+p
        for l in range(7):
            for p in range(7):
                total = sum(
                    (2 * v + 1) * wigner3j(l, p, v, 0, 0, 0) ** 2 for v in range(l + p + 1)
                )
                assert abs(total - 1.0) < 1e-12


def _case(j1, j2, m1, m2):
    """Which of the kernel's five cases the family ``(j1 j2 j; m1 m2 .)`` takes.

    Uses the exact integer recursion coefficient ``Y(j)`` at both ends.
    """
    jmin, jmax = max(abs(j1 - j2), abs(m1 + m2)), j1 + j2

    def y(j):
        return (2 * j + 1) * (
            (m1 + m2) * (j1 * (j1 + 1) - j2 * (j2 + 1)) - (m1 - m2) * j * (j + 1)
        )

    if jmin == jmax:
        return "single"
    if y(jmin) == 0:
        return "parity" if y(jmax) == 0 else "bottom-vacuous"
    return "top-vacuous" if y(jmax) == 0 else "two-sided"


class TestKernel:
    def test_small_families_match_racah(self):
        # every family with j1, j2 <= 6, one kernel batch per degree pair
        cases = set()
        for j1 in range(7):
            for j2 in range(7):
                m1, m2 = np.meshgrid(np.arange(-j1, j1 + 1), np.arange(-j2, j2 + 1))
                m1, m2 = m1.ravel(), m2.ravel()
                jmin, f = coupling._families(j1, j2, m1, m2)
                assert f.shape == (m1.size, 2 * min(j1, j2) + 1)
                for row, a, b, j0 in zip(f, m1.tolist(), m2.tolist(), jmin.tolist()):
                    cases.add(_case(j1, j2, a, b))
                    assert j0 == max(abs(j1 - j2), abs(a + b))
                    for i, val in enumerate(row):
                        j = j0 + i
                        expected = racah_3j(j1, j2, j, a, b, -(a + b)) if j <= j1 + j2 else 0.0
                        assert abs(val - expected) <= 1e-14
        assert cases == {"two-sided", "bottom-vacuous", "top-vacuous", "parity", "single"}

    @given(
        st.integers(min_value=0, max_value=20),
        st.integers(min_value=0, max_value=90),
        st.randoms(use_true_random=False),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @example(j1=19, j2=80, rnd=random.Random(0), share=1.0)  # 6,279 rows, as at full scale
    @settings(max_examples=40, deadline=None)
    def test_rows_do_not_depend_on_their_batch(self, j1, j2, rnd, share):
        # a family's values are bit-identical alone and in any batch of its
        # degree pair, from a single row up to every admissible one
        pairs = [(a, b) for a in range(-j1, j1 + 1) for b in range(-j2, j2 + 1)]
        rnd.shuffle(pairs)
        m1, m2 = np.array(pairs[: 1 + round(share * (len(pairs) - 1))]).T
        jmin, batch = coupling._families(j1, j2, m1, m2)
        for r in rnd.sample(range(m1.size), min(m1.size, 8)):
            alone = coupling._families(j1, j2, m1[r : r + 1], m2[r : r + 1])
            assert jmin[r] == alone[0][0]
            assert np.array_equal(batch[r], alone[1][0])


class TestTripleProduct:
    def test_all_monopole(self):
        assert triple_product(0, 0, 0, 0) == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi)))

    def test_selection_rule_zero(self):
        # m + q != w forces zero
        assert triple_product(2, 1, 1, 6) == 0.0
        assert triple_product(3, 1, 0, 6) == 0.0

    def test_values_are_real_floats(self):
        v = triple_product(2, 1, 0, 6)
        assert isinstance(v, float)

    def test_against_quadrature(self):
        # T(2; 1, 0; 6): integral Y_1^0 Y_1^0 conj(Y_2^0)
        grid = SphereGrid.for_bandlimit(6)
        t = grid.thetas[:, None]
        p = grid.phis[None, :]
        integrand = eval_ylm(1, 0, t, p) * eval_ylm(1, 0, t, p) * np.conj(eval_ylm(2, 0, t, p))
        assert triple_product(2, 1, 0, 6) == pytest.approx(
            grid.integrate(integrand).real, abs=1e-10
        )

    def test_exhaustive_quadrature_small(self):
        # every value at lf = 3, lh = 2 against the defining integral
        lf, lh = 3, 2
        lg = lf + lh - 1
        grid = SphereGrid.for_bandlimit(lf + lh + lg)
        t = grid.thetas[:, None]
        ph = grid.phis[None, :]
        for u in range(lg * lg):
            v, w = degree_and_order(u)
            yu = np.conj(eval_ylm(v, w, t, ph))
            for p in range(lh):
                for q in range(-p, p + 1):
                    ypq = eval_ylm(p, q, t, ph)
                    for n in range(lf * lf):
                        ell, m = degree_and_order(n)
                        val = grid.integrate(eval_ylm(ell, m, t, ph) * ypq * yu)
                        assert abs(triple_product(n, p, q, u) - val.real) < 1e-10
                        assert abs(val.imag) < 1e-10


class TestRanges:
    def test_monopole_case(self):
        assert triple_product_rows(0, 0, 0, 8)[0].tolist() == [0]

    def test_documented_case(self):
        # p=1, k=0, u=6 -> (v, w) = (2, 0), m = 0, l in 1..3
        assert triple_product_rows(1, 0, 6, 8)[0].tolist() == [2, 6, 12]

    def test_infeasible_order_empty(self):
        # |w - k| too large for any l
        assert triple_product_rows(1, -1, 15, 2)[0].tolist() == []

    def test_length_bound(self):
        for p in range(4):
            for k in range(-p, p + 1):
                for u in range(25):
                    assert triple_product_rows(p, k, u, 5)[0].size <= 2 * p + 1

    @pytest.mark.parametrize("args", [(0, 1, 0, 4), (-1, 0, 0, 4), (1, 0, -1, 4), (1, 0, 0, 0)])
    def test_rows_reject_bad_arguments(self, args):
        # |q| > p, p < 0, u < 0, lf < 1
        with pytest.raises(ValueError, match="invalid triple-product indices"):
            triple_product_rows(*args)

    def test_range_is_exact(self):
        # zero triple product for every n outside the returned range
        lf, lh = 4, 3
        lg = lf + lh - 1
        for u in range(lg * lg):
            for p in range(lh):
                for k in range(-p, p + 1):
                    inside = set(nonzero_n_range(p, k, u, lf))
                    for n in range(lf * lf):
                        if n not in inside:
                            assert triple_product(n, p, k, u) == 0.0

    def test_rows_match_scalar(self):
        nn, tv = triple_product_rows(2, -1, 11, 5)
        assert list(nn) == nonzero_n_range(2, -1, 11, 5)
        for n, t in zip(nn, tv):
            assert t == pytest.approx(triple_product(int(n), 2, -1, 11), abs=1e-14)


def _all_rows(lf, lh):
    """``(p, q, u, nn, values)`` of every triple-product row at ``(lf, lh)``."""
    lg = lf + lh - 1
    for u in range(lg * lg):
        for p in range(lh):
            for q in range(-p, p + 1):
                yield (p, q, u, *triple_product_rows(p, q, u, lf))


class TestRowPlan:
    def test_rows_are_read_only(self):
        nn, tv = triple_product_rows(2, -1, 11, 5)
        assert nn.size and not nn.flags.writeable and not tv.flags.writeable
        with pytest.raises(ValueError):
            nn[0] = 0
        with pytest.raises(ValueError):
            tv *= 2.0
        assert np.array_equal(triple_product_rows(2, -1, 11, 5)[1], tv)

    def test_cold_and_warm_rows_are_bit_identical(self):
        def rows():
            return [(nn.copy(), tv.copy()) for *_, nn, tv in _all_rows(5, 3)]

        coupling._pair_record.cache_clear()
        cold = rows()
        warm = rows()
        assert coupling._pair_record.cache_info().hits > 0
        coupling._pair_record.cache_clear()
        rebuilt = rows()
        for (nn_c, tv_c), (nn_w, tv_w), (nn_r, tv_r) in zip(cold, warm, rebuilt):
            assert np.array_equal(nn_c, nn_w) and np.array_equal(nn_c, nn_r)
            assert np.array_equal(tv_c, tv_w) and np.array_equal(tv_c, tv_r)

    def test_every_row_matches_scalar(self):
        # Rows with w > 0 are reflected copies.  The second size reaches
        # |w| = 8 and walks u downwards from a cold cache, so each reflected
        # row is read before its mirror.
        for lf, lh, order in ((4, 3, 1), (6, 4, -1)):
            coupling._pair_record.cache_clear()
            for u in range((lf + lh - 1) ** 2)[::order]:
                for p in range(lh):
                    for q in range(-p, p + 1):
                        nn, tv = triple_product_rows(p, q, u, lf)
                        assert list(nn) == nonzero_n_range(p, q, u, lf)
                        for n, t in zip(nn, tv):
                            assert t == pytest.approx(triple_product(int(n), p, q, u), abs=1e-14)

    def test_cold_build_skips_reflected_families(self):
        # rows with w > 0 are reflections, so a cold build of every record
        # evaluates little over half the 3j families the rows need
        lf, lh = 8, 4
        lg = lf + lh - 1
        needed = set()
        for u in range(lg * lg):
            v, w = degree_and_order(u)
            for p in range(lh):
                for k in range(-p, p + 1):
                    if nonzero_n_range(p, k, u, lf):
                        needed |= {(p, v, 0, 0), (p, v, k, -w)}
        coupling._pair_record.cache_clear()
        _, before = coupling.cache_info()
        list(_all_rows(lf, lh))
        records, after = coupling.cache_info()
        assert records.misses == lg * lh  # no record was evicted and rebuilt
        assert after - before <= 0.6 * len(needed)

    def test_reflected_rows_read_their_mirror_values(self):
        # a row with w > 0 stores only its indices; its values are the
        # mirror row's (p, -q, v(v+1) - w) own array, not a copy
        lf, lh = 7, 5
        for u in range((lf + lh - 1) ** 2):
            v, w = degree_and_order(u)
            if w <= 0:
                continue
            for p in range(lh):
                for q in range(-p, p + 1):
                    nn, tv = triple_product_rows(p, q, u, lf)
                    mnn, mtv = triple_product_rows(p, -q, v * (v + 1) - w, lf)
                    assert nn.dtype == np.int32 and mnn.dtype == np.int32
                    assert not (nn.flags.writeable or tv.flags.writeable)
                    assert not (mnn.flags.writeable or mtv.flags.writeable)
                    assert np.array_equal(nn, mnn + 2 * (w - q))
                    assert tv.tobytes() == mtv.tobytes()
                    assert tv.size == 0 or np.shares_memory(tv, mtv)

    def test_block_columns_equal_rows(self):
        lf, lh = 4, 3
        for u in range((lf + lh - 1) ** 2):
            for p in range(lh):
                n_union, X = triple_product_block(p, u, lf)
                pos = 0
                for col, q in enumerate(range(-p, p + 1)):
                    nn, tv = triple_product_rows(p, q, u, lf)
                    assert np.array_equal(n_union[pos : pos + nn.size], nn)
                    assert np.array_equal(X[pos : pos + nn.size, col], tv)
                    assert not X[pos : pos + nn.size, np.arange(2 * p + 1) != col].any()
                    pos += nn.size
                assert pos == n_union.size

    def test_one_denoise_reuses_each_plan(self):
        # forward, design and recovery read every row of each record
        f = random_coeffs(4, 1)
        h = random_coeffs(3, 2)
        coupling._pair_record.cache_clear()
        denoise(f, build_signal_covariance(random_coeffs(4, 3)), SpectralCovariance.zeros(4), h)
        info = coupling._pair_record.cache_info()
        assert info.misses == 6 * 3  # every (p, v) record once
        assert info.hits >= 2 * 6 * 6 * 9  # >= two reads of every (p, q, u) row

    def test_desk_plan_fits_the_cache(self):
        # a desk sweep reuses its rows only if every record stays cached
        lf, lh = DESK_PRESET["lf"], DESK_PRESET["lh"]
        assert (lf + lh - 1) * lh <= coupling._pair_record.cache_info().maxsize

    def test_full_scale_records_stay_cached(self):
        # a denoise reads the lh records (p, v) of one v at a time, so a
        # cache of at least lh records builds each of them exactly once
        assert FULL_PRESET["lh"] <= coupling._pair_record.cache_info().maxsize
        lf, lh = 22, 8  # 232 records, more than the cache holds
        assert (lf + lh - 1) * lh > coupling._pair_record.cache_info().maxsize
        coupling._pair_record.cache_clear()
        for u in range((lf + lh - 1) ** 2):
            for p in range(lh):
                triple_product_rows(p, 0, u, lf)
        assert coupling._pair_record.cache_info().misses == (lf + lh - 1) * lh


class TestRoundingResidue:
    def test_tiny_values_are_exact_racah_zeros(self):
        # entries with 0 < |T| < 1e-12 are recursion residue of 3j symbols
        # that vanish exactly (nontrivial zeros), not small true values
        tiny = 0
        for p, q, u, nn, tv in _all_rows(10, 6):
            v, w = degree_and_order(u)
            for n in nn[(tv != 0.0) & (np.abs(tv) < 1e-12)]:
                ell, m = degree_and_order(int(n))
                tiny += 1
                assert racah_3j(ell, p, v, 0, 0, 0) == 0.0 or racah_3j(ell, p, v, m, q, -w) == 0.0
        assert tiny > 0
