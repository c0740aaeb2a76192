"""3j symbols, triple products and selection-rule ranges."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from so3filter import (
    SphereGrid,
    degree_and_order,
    eval_ylm,
    nonzero_n_range,
    triple_product,
    triple_product_rows,
    wigner3j,
    wigner3j_family,
)

from helpers import racah_3j


class TestWigner3j:
    def test_known_value(self):
        assert wigner3j(1, 0, 1, 0, 0, 0) == pytest.approx(-1.0 / math.sqrt(3.0))

    def test_triangle_violation_zero(self):
        assert wigner3j(1, 1, 3, 0, 0, 0) == 0.0

    def test_order_sum_violation_zero(self):
        assert wigner3j(2, 2, 2, 1, 0, 0) == 0.0

    def test_invalid_order_zero(self):
        assert wigner3j(1, 1, 1, 2, -1, -1) == 0.0

    def test_negative_degree_raises(self):
        with pytest.raises(ValueError):
            wigner3j(-1, 1, 1, 0, 0, 0)

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

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            triple_product(-1, 0, 0, 0)
        with pytest.raises(ValueError):
            triple_product(0, 1, 2, 0)


class TestRanges:
    def test_monopole_case(self):
        assert nonzero_n_range(0, 0, 0, 8) == [0]

    def test_documented_case(self):
        # p=1, k=0, u=6 -> (v, w) = (2, 0), m = 0, l in 1..3
        assert nonzero_n_range(1, 0, 6, 8) == [2, 6, 12]

    def test_infeasible_order_empty(self):
        # |w - k| too large for any l
        assert nonzero_n_range(1, -1, 15, 2) == []

    def test_length_bound(self):
        for p in range(4):
            for k in range(-p, p + 1):
                for u in range(25):
                    assert len(nonzero_n_range(p, k, u, 5)) <= 2 * p + 1

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
