"""Normal equations, filter design and filter application."""

import math

import numpy as np
import pytest

from so3filter import (
    SpectralCovariance,
    apply_filter,
    design_filter,
    forward_dslsht,
)
from so3filter.coupling import triple_product_block
from so3filter.filtering import _gram_pair

from coupling_reference import nonzero_n_range, normal_matrix, normal_rhs, triple_product
from helpers import random_coeffs, random_psd


def _cov(bandlimit, seed, rank=None, scale=1.0):
    return SpectralCovariance(bandlimit, scale * random_psd(bandlimit**2, seed, rank))


def _structurally_nonempty(lf, lh):
    """``(lg**2, lh)`` mask of blocks the degree selection rule leaves nonempty.

    Degree ``v`` of ``u`` couples to window degree ``p`` through some ``l < lf``
    with ``l + p + v`` even exactly when ``|v - p| <= lf - 1``.
    """
    lg = lf + lh - 1
    v = np.sqrt(np.arange(lg * lg)).astype(int)[:, None]
    return np.abs(v - np.arange(lh)[None, :]) <= lf - 1


class TestCovarianceType:
    def test_rejects_non_hermitian(self):
        mat = np.zeros((4, 4), dtype=complex)
        mat[0, 1] = 1.0
        with pytest.raises(ValueError):
            SpectralCovariance(2, mat)

    def test_rejects_one_sided_off_diagonal_at_small_scale(self):
        # the asymmetry bound follows the matrix's own scale
        mat = 1e-13 * np.eye(4, dtype=complex)
        mat[0, 1] = 1e-13
        with pytest.raises(ValueError, match="not Hermitian"):
            SpectralCovariance(2, mat)

    def test_small_scale_hermitian_and_zero_accepted(self):
        small = 1e-13 * random_psd(4, 2)
        assert np.array_equal(SpectralCovariance(2, small).matrix, small)
        assert np.all(SpectralCovariance(2, np.zeros((4, 4), dtype=complex)).matrix == 0)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            SpectralCovariance(2, np.zeros((3, 3), dtype=complex))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_rejects_non_finite(self, bad):
        mat = np.eye(4, dtype=complex)
        mat[1, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            SpectralCovariance(2, mat)

    def test_random_psd_accepted(self):
        cov = _cov(3, 1)
        evals = np.linalg.eigvalsh(cov.matrix)
        assert evals.min() >= -1e-8 * np.trace(cov.matrix).real

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_hermitian_part_is_a_new_read_only_c_array(self, order):
        rng = np.random.default_rng(7)
        n = 100  # more rows than one band of the checks
        m = random_psd(n, 3) + 1e-14 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        m = np.asarray(m, order=order)
        before = m.copy()
        cov = SpectralCovariance(10, m)
        want = 0.5 * (m + m.conj().T)
        assert cov.matrix.tobytes() == want.tobytes()  # bit for bit
        assert cov.matrix.flags.c_contiguous and not cov.matrix.flags.writeable
        assert m.tobytes() == before.tobytes()
        # The gather takes from matrix.ravel(): a copy there would cost a matrix per block.
        assert np.shares_memory(cov.matrix[None].ravel(), cov.matrix)

    @pytest.mark.parametrize("bad, detail", [(math.nan, "non-finite"), (1.0, "not Hermitian")])
    def test_rejects_a_bad_entry_past_the_first_band(self, bad, detail):
        mat = np.eye(100, dtype=complex)
        mat[90, 3] = bad
        with pytest.raises(ValueError, match=detail):
            SpectralCovariance(10, mat)


class TestNormalMatrix:
    def test_zero_covariance(self):
        A = normal_matrix(1, 3, SpectralCovariance.zeros(4))
        assert np.all(A == 0)
        assert A.shape == (3, 3)

    def test_monopole_case(self):
        # p = 0, u = 0, C = I: single entry T(0;0,0;0)^2 = 1/(4 pi)
        cov = SpectralCovariance(2, np.eye(4, dtype=complex))
        A = normal_matrix(0, 0, cov)
        assert A.shape == (1, 1)
        assert A[0, 0] == pytest.approx(1.0 / (4.0 * math.pi))

    def test_hermitian_for_random_psd(self):
        cov = _cov(3, 2)
        for u in (0, 4, 10, 24):
            for p in range(3):
                A = normal_matrix(p, u, cov)
                assert np.abs(A - A.conj().T).max() < 1e-12

    def test_rank_one_structure(self):
        # C = s s^H gives A[k', k] = a_k conj(a_k') with a_k = sum T(n;p,k;u) s_n
        s = random_coeffs(4, 3)
        cov = SpectralCovariance(4, np.outer(s.data, np.conj(s.data)))
        p, u = 2, 7
        a = np.zeros(2 * p + 1, dtype=complex)
        for k in range(-p, p + 1):
            for n in nonzero_n_range(p, k, u, 4):
                a[k + p] += triple_product(n, p, k, u) * s.data[n]
        A = normal_matrix(p, u, cov)
        expected = np.outer(np.conj(a), a)
        assert np.abs(A - expected).max() < 1e-12

    def test_dense_double_sum_oracle(self):
        cov = _cov(4, 4)
        p, u = 1, 6
        A = normal_matrix(p, u, cov)
        dense = np.zeros((3, 3), dtype=complex)
        for kp in range(-1, 2):
            for k in range(-1, 2):
                for n in range(16):
                    for npr in range(16):
                        dense[kp + 1, k + 1] += (
                            triple_product(n, p, k, u)
                            * np.conj(triple_product(npr, p, kp, u))
                            * cov.matrix[n, npr]
                        )
        assert np.abs(A - dense).max() < 1e-11


class TestNormalRhs:
    def test_zero_covariance(self):
        b = normal_rhs(2, 1, 5, SpectralCovariance.zeros(3))
        assert np.all(b == 0)

    def test_monopole_case(self):
        cov = SpectralCovariance(2, np.eye(4, dtype=complex))
        b = normal_rhs(0, 0, 0, cov)
        assert b[0] == pytest.approx(1.0 / (4.0 * math.pi))

    def test_rank_one_structure(self):
        s = random_coeffs(4, 5)
        cov = SpectralCovariance(4, np.outer(s.data, np.conj(s.data)))
        p, u, q = 2, 9, -1
        a = np.zeros(2 * p + 1, dtype=complex)
        for k in range(-p, p + 1):
            for n in nonzero_n_range(p, k, u, 4):
                a[k + p] += triple_product(n, p, k, u) * s.data[n]
        b = normal_rhs(p, q, u, cov)
        assert np.abs(b - a[q + p] * np.conj(a)).max() < 1e-12

    def test_dense_double_sum_oracle(self):
        cov = _cov(4, 6)
        p, q, u = 1, 1, 6
        b = normal_rhs(p, q, u, cov)
        dense = np.zeros(3, dtype=complex)
        for kp in range(-1, 2):
            for n in range(16):
                for npr in range(16):
                    dense[kp + 1] += (
                        triple_product(n, p, q, u)
                        * np.conj(triple_product(npr, p, kp, u))
                        * cov.matrix[n, npr]
                    )
        assert np.abs(b - dense).max() < 1e-11


class TestSparseGram:
    def test_every_block_matches_dense_gram(self):
        # the Gram skips the parity-zero rows of X; the dense X^T C X keeps them
        lf, lh = 5, 3
        cs, csum = _cov(lf, 7), _cov(lf, 8)
        zero_columns = 0
        for u in range((lf + lh - 1) ** 2):
            for p in range(lh):
                nn, X = triple_product_block(p, u, lf)
                zero_columns += int((~X.any(axis=0)).sum())
                A = (X.T @ csum.matrix[np.ix_(nn, nn)] @ X).T
                B = X.T @ cs.matrix[np.ix_(nn, nn)] @ X
                got_A = normal_matrix(p, u, csum)
                assert np.abs(got_A - 0.5 * (A + A.conj().T)).max() <= 1e-13 * np.abs(A).max()
                for q in range(-p, p + 1):
                    got_b = normal_rhs(p, q, u, cs)
                    assert np.abs(got_b - B[q + p]).max() <= 1e-13 * np.abs(B).max()
        assert zero_columns > 0


class TestCoreGram:
    def test_core_gram_matches_dense_restriction(self):
        # both Grams at every block equal the dense (X^T C X)^T on the orders
        # with a nonempty triple-product column, for C = Cs + Cz and C = Cs
        lf, lh = 6, 4
        cs, cz = _cov(lf, 41), _cov(lf, 42)
        csum = SpectralCovariance(lf, cs.matrix + cz.matrix)
        partial = 0
        for u in range((lf + lh - 1) ** 2):
            for p in range(lh):
                nn, X = triple_product_block(p, u, lf)
                keep = X.any(axis=0)
                G, got_keep = _gram_pair(p, u, cs, cz, lf)
                assert np.array_equal(got_keep, keep)
                if not keep.any():
                    assert G is None
                    continue
                partial += not keep.all()
                assert G.shape == (2, keep.sum(), keep.sum())
                for got, cov in zip(G, (csum, cs)):
                    dense = (X.T @ cov.matrix[np.ix_(nn, nn)] @ X).T[np.ix_(keep, keep)]
                    assert np.abs(got - dense).max() <= 1e-13 * np.abs(dense).max()
        assert partial > 0

    def test_gather_is_byte_exact_to_a_stacked_take(self):
        # the two per-matrix takes feed the GEMMs the same bytes as one flat
        # take from the stacked pair [Cs + Cz, Cs], so every Gram is unchanged
        lf, lh = 6, 4
        cs, cz = _cov(lf, 43), _cov(lf, 44)
        n = lf * lf
        stacked = np.stack([cs.matrix + cz.matrix, cs.matrix])
        blocks = 0
        for u in range((lf + lh - 1) ** 2):
            for p in range(lh):
                G, keep = _gram_pair(p, u, cs, cz, lf)
                if G is None:
                    continue
                blocks += 1
                nn, X = triple_product_block(p, u, lf)
                rows = X.any(axis=1)
                nn, X = nn[rows], X[rows]
                if not keep.all():  # the same layout of X, so the same BLAS path
                    X = X[:, keep]
                m, c = X.shape
                S = stacked.ravel().take(nn[:, None, None] * n + np.array([0, n * n])[:, None] + nn)
                T = X.T @ S.view(np.float64).reshape(m, -1)
                T = T.reshape(c, -1, m, 2).transpose(2, 0, 1, 3).reshape(m, -1)
                want = (X.T @ T).view(np.complex128).reshape(c, c, -1).transpose(2, 0, 1)
                assert G.tobytes() == want.tobytes()
        assert blocks > 0


class TestDesign:
    def test_zero_signal_covariance_gives_zero_filter(self):
        cs = SpectralCovariance.zeros(3)
        cz = _cov(3, 7)
        filt = design_filter(cs, cz, 2)
        assert np.all(filt.zeta == 0)

    def test_residuals_random_psd(self):
        lf, lh = 4, 2
        cs = _cov(lf, 8)
        cz = _cov(lf, 9)
        filt = design_filter(cs, cz, lh)
        csum = SpectralCovariance(lf, cs.matrix + cz.matrix)
        for u in range(filt.lg**2):
            for p in range(lh):
                A = normal_matrix(p, u, csum)
                for q in range(-p, p + 1):
                    b = normal_rhs(p, q, u, cs)
                    F = filt.block(u, p)[q + p, :]
                    res = np.linalg.norm(A @ F - b)
                    bound = 1e-8 * (
                        np.linalg.norm(A) * np.linalg.norm(F) + np.linalg.norm(b)
                    )
                    assert res <= max(bound, 1e-14)

    def test_direct_dense_solve_oracle(self):
        # equal signal and noise covariances: compare against lstsq per block
        lf, lh = 4, 2
        base = random_psd(16, 10)
        cs = SpectralCovariance(lf, base)
        cz = SpectralCovariance(lf, base.copy())
        filt = design_filter(cs, cz, lh)
        csum = SpectralCovariance(lf, 2.0 * base)
        for u in (0, 5, 12, 20):
            for p in range(lh):
                A = normal_matrix(p, u, csum)
                for q in range(-p, p + 1):
                    b = normal_rhs(p, q, u, cs)
                    ref = np.linalg.lstsq(A, b, rcond=None)[0]
                    got = filt.block(u, p)[q + p, :]
                    assert np.abs(got - ref).max() < 1e-8

    def test_bandlimit_mismatch_rejected(self):
        with pytest.raises(ValueError):
            design_filter(_cov(3, 11), _cov(4, 12), 2)

    def test_flags_on_degenerate_blocks(self):
        # zero covariances: every nonempty core has a zero Gram and is
        # truncated to rank 0; structurally empty blocks are not flagged
        lf, lh = 2, 2
        filt = design_filter(SpectralCovariance.zeros(lf), SpectralCovariance.zeros(lf), lh)
        nonempty = _structurally_nonempty(lf, lh)
        assert not nonempty.all()
        np.testing.assert_array_equal(filt.diagnostics.pinv_flag, nonempty)
        assert not filt.diagnostics.rank.any()

    @pytest.mark.parametrize("rank", [1, None])
    def test_structurally_empty_blocks_not_flagged(self, rank):
        lf, lh = 3, 2
        filt = design_filter(_cov(lf, 26, rank), _cov(lf, 27), lh)
        diag = filt.diagnostics
        empty = ~_structurally_nonempty(lf, lh)
        assert empty.any()
        assert not diag.pinv_flag[empty].any()
        assert not diag.rank[empty].any()
        # full-rank covariances leave nothing to truncate
        assert not diag.pinv_flag.any()

    def test_rank_one_noiseless_flags_but_reconstructs(self):
        s = random_coeffs(3, 13)
        cs = SpectralCovariance(3, np.outer(s.data, np.conj(s.data)))
        cz = SpectralCovariance.zeros(3)
        filt = design_filter(cs, cz, 2)
        # blocks wider than rank one must be flagged as pseudo-inverse solves
        assert filt.diagnostics.pinv_flag[:, 1].any()


class TestApply:
    def test_identity_filter(self):
        from so3filter.filtering import FilterDiagnostics, JointFilter

        f = random_coeffs(3, 14)
        h = random_coeffs(2, 15)
        rep = forward_dslsht(f, h)
        lh, lg = rep.lh, rep.lg
        zeta = np.zeros((lg * lg, lh, 2 * lh - 1, 2 * lh - 1), dtype=complex)
        off = lh - 1
        for p in range(lh):
            sl = slice(off - p, off + p + 1)
            zeta[:, p, sl, sl] = np.eye(2 * p + 1)
        filt = JointFilter(lh, lg, zeta, FilterDiagnostics.zeros(lg, lh))
        out = apply_filter(rep, filt)
        assert np.abs(out.data - rep.data).max() < 1e-14

    def test_zero_filter(self):
        f = random_coeffs(3, 16)
        h = random_coeffs(2, 17)
        rep = forward_dslsht(f, h)
        filt = design_filter(
            SpectralCovariance.zeros(3), SpectralCovariance.zeros(3), 2
        )
        out = apply_filter(rep, filt)
        assert np.all(out.data == 0)

    def test_contraction_matches_triple_loop(self):
        lf, lh = 3, 3
        f = random_coeffs(lf, 18)
        h = random_coeffs(lh, 19)
        rep = forward_dslsht(f, h)
        cs = _cov(lf, 20)
        cz = _cov(lf, 21)
        filt = design_filter(cs, cz, lh)
        out = apply_filter(rep, filt)
        off = lh - 1
        for u in (0, 7, 13, 24):
            for p in range(lh):
                for q in range(-p, p + 1):
                    for qp in range(-p, p + 1):
                        expected = sum(
                            rep.data[u, p, off + k, off + qp]
                            * filt.zeta[u, p, off + q, off + k]
                            for k in range(-p, p + 1)
                        )
                        assert out.data[u, p, off + q, off + qp] == pytest.approx(
                            expected, abs=1e-13
                        )

    def test_bandlimit_mismatch_rejected(self):
        f = random_coeffs(3, 22)
        h = random_coeffs(2, 23)
        rep = forward_dslsht(f, h)
        filt = design_filter(_cov(3, 24), _cov(3, 25), 3)
        with pytest.raises(ValueError):
            apply_filter(rep, filt)
