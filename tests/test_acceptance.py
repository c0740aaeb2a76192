"""Acceptance suite: one test per exit criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line so the suite can be read as a
checklist (run with ``pytest -s tests/test_acceptance.py``).  The full-scale
smoke run is marked ``slow`` and deselected by default.
"""

import math
import resource
import time

import numpy as np
import pytest

from so3filter import (
    PolarCap,
    SpectralCovariance,
    SphericalCoeffs,
    SphericalEllipse,
    benchmark,
    build_signal_covariance,
    calibrate_snr,
    denoise,
    denoise_with_diagnostics,
    design_filter,
    make_test_signal,
    slepian_window,
    snr,
    synth_noise,
    ExperimentConfig,
    NoiseModel,
)
from so3filter.dslsht import window_blocks

from coupling_reference import normal_matrix, normal_rhs, triple_product, wigner3j
from helpers import random_coeffs, random_psd
from sphere_reference import SphereGrid, degree_and_order, eval_ylm


def _report(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_frame_identity():
    """Sum over u of <psi_{u,n'}, psi_{u,n}> equals 2 pi <h,h> delta_{n,n'}."""
    t0 = time.time()
    lf, lh = 8, 4
    rng = np.random.default_rng(101)
    raw = rng.standard_normal(lh * lh) + 1j * rng.standard_normal(lh * lh)
    h = SphericalCoeffs(lh, raw / np.linalg.norm(raw))
    lg = lf + lh - 1
    hb = window_blocks(h)
    off = lh - 1
    weights = np.array([8.0 * math.pi**2 / (2 * p + 1) for p in range(lh)])
    gram = np.zeros((lf * lf, lf * lf), dtype=np.complex128)
    psi = np.empty((lf * lf, lh, 2 * lh - 1, 2 * lh - 1), dtype=np.complex128)
    for u in range(lg * lg):
        psi[:] = 0.0
        for n in range(lf * lf):
            _, m = degree_and_order(n)
            _, w = degree_and_order(u)
            q = w - m
            if abs(q) > lh - 1:
                continue
            for p in range(abs(q), lh):
                t = triple_product(n, p, q, u)
                if t != 0.0:
                    psi[n, p, off + q, off - p : off + p + 1] = (
                        t * hb[p, off - p : off + p + 1]
                    )
        gram += np.einsum("Npab,p,npab->nN", psi, weights, np.conj(psi))
    target = 2.0 * math.pi * float(np.sum(np.abs(h.data) ** 2))
    err = np.abs(gram - target * np.eye(lf * lf)).max() / target
    elapsed = time.time() - t0
    _report(
        "frame-identity",
        err <= 1e-8 and elapsed <= 60.0,
        f"max rel err {err:.3e}, {elapsed:.1f}s",
    )


def test_noiseless_exact_recovery():
    """Zero noise covariance and a rank-one source covariance recover s."""
    t0 = time.time()
    lf, lh = 8, 4
    s = random_coeffs(lf, 202)
    h = random_coeffs(lh, 203)
    h = SphericalCoeffs(lh, h.data / h.norm())
    cs = build_signal_covariance(s)
    cz = SpectralCovariance.zeros(lf)
    est = denoise(SphericalCoeffs(lf, s.data.copy()), cs, cz, h)
    rel = float(np.linalg.norm(est.data - s.data) / np.linalg.norm(s.data))
    elapsed = time.time() - t0
    _report(
        "noiseless-recovery",
        rel <= 1e-6 and elapsed <= 60.0,
        f"rel err {rel:.3e}, {elapsed:.1f}s",
    )


def test_wigner3j_identity_suites():
    """Both 3j sum rules, exhaustively through degree 6, to 1e-12.

    Orthogonality: sum over (q, w) of products of two symbols sharing
    (p, v, q, w).  A term is nonzero only when w = m + q = m' + q, so for
    m != m' every term vanishes (the order-sum rule, itself verified
    exhaustively below); for m = m' the w index is determined by q and the
    sum collapses to a single sweep over q.
    """
    worst_orth = 0.0
    for p in range(7):
        for v in range(7):
            valid_l = [l for l in range(7) if abs(p - v) <= l <= p + v]
            for l in valid_l:
                for lp in valid_l:
                    mlim = min(l, lp)
                    for m in range(-mlim, mlim + 1):
                        total = 0.0
                        for q in range(-p, p + 1):
                            w = m + q
                            if abs(w) > v:
                                continue
                            total += wigner3j(l, p, v, m, q, -w) * wigner3j(
                                lp, p, v, m, q, -w
                            )
                        expected = 1.0 / (2 * l + 1) if l == lp else 0.0
                        worst_orth = max(worst_orth, abs(total - expected))
    # order-sum rule: every symbol with m1 + m2 + m3 != 0 is exactly zero
    worst_msum = 0.0
    for l in range(7):
        for p in range(7):
            for v in range(7):
                for m in range(-l, l + 1):
                    for q in range(-p, p + 1):
                        for w in range(-v, v + 1):
                            if m + q - w != 0:
                                worst_msum = max(
                                    worst_msum, abs(wigner3j(l, p, v, m, q, -w))
                                )
    worst_sum_rule = 0.0
    for l in range(7):
        for p in range(7):
            for lg in (l + p + 1, l + p + 3):
                total = sum(
                    (2 * v + 1) * wigner3j(l, p, v, 0, 0, 0) ** 2 for v in range(lg)
                )
                worst_sum_rule = max(worst_sum_rule, abs(total - 1.0))
    ok = worst_orth <= 1e-12 and worst_msum == 0.0 and worst_sum_rule <= 1e-12
    _report(
        "wigner3j-identities",
        ok,
        f"orthogonality {worst_orth:.2e}, order-sum {worst_msum:.1e}, "
        f"degree-sum {worst_sum_rule:.2e}",
    )


def test_triple_product_quadrature_equivalence():
    """Every T(n; p, q; u) at lf = 4, lh = 3 against sphere quadrature."""
    lf, lh = 4, 3
    lg = lf + lh - 1
    grid = SphereGrid.for_bandlimit(8)  # design degree 16 > (lf-1)+(lh-1)+(lg-1)
    t = grid.thetas[:, None]
    ph = grid.phis[None, :]
    wts = grid.node_weights()
    ylm = {}
    for ell in range(max(lf, lh, lg)):
        for m in range(-ell, ell + 1):
            ylm[(ell, m)] = eval_ylm(ell, m, t, ph)
    worst = 0.0
    for u in range(lg * lg):
        v, w = degree_and_order(u)
        yu_conj = np.conj(ylm[(v, w)])
        for p in range(lh):
            for q in range(-p, p + 1):
                base = ylm[(p, q)] * yu_conj * wts
                for n in range(lf * lf):
                    ell, m = degree_and_order(n)
                    quad = np.sum(ylm[(ell, m)] * base)
                    worst = max(worst, abs(triple_product(n, p, q, u) - quad))
    _report("triple-product-quadrature", worst <= 1e-10, f"max err {worst:.3e}")


def test_normal_equation_residuals():
    """Every designed slot satisfies ||A F - b|| <= 1e-8 (||A|| ||F|| + ||b||)."""
    lf, lh = 8, 4
    cs = SpectralCovariance(lf, random_psd(lf * lf, 404))
    cz = SpectralCovariance(lf, random_psd(lf * lf, 405))
    filt = design_filter(cs, cz, lh)
    csum = SpectralCovariance(lf, cs.matrix + cz.matrix)
    worst = 0.0
    slots = 0
    for u in range(filt.lg**2):
        for p in range(lh):
            A = normal_matrix(p, u, csum)
            na = np.linalg.norm(A)
            for q in range(-p, p + 1):
                b = normal_rhs(p, q, u, cs)
                F = filt.block(u, p)[q + p, :]
                res = float(np.linalg.norm(A @ F - b))
                bound = 1e-8 * (na * np.linalg.norm(F) + np.linalg.norm(b))
                slots += 1
                if bound > 0:
                    worst = max(worst, res / bound)
                else:
                    worst = max(worst, 0.0 if res == 0.0 else math.inf)
    _report(
        "normal-equation-residuals",
        worst <= 1.0,
        f"{slots} slots, worst residual at {worst:.3e} of the bound",
    )


def test_snr_gain_sweep():
    """Desk-scale sweep: mean output SNR beats input at every target and is
    non-decreasing along the sweep."""
    t0 = time.time()
    cfg = ExperimentConfig(
        lf=16,
        lh=8,
        region=PolarCap(math.radians(15.0)),
        snr_targets_db=(-5.0, 0.0, 5.0, 10.0),
        realizations=5,
        seed=246801,
    )
    s = make_test_signal(cfg.lf, cfg.seed)
    h = slepian_window(cfg.region, cfg.lh).window()
    result = benchmark(cfg, s, h)
    elapsed = time.time() - t0
    means_in = [row[1] for row in result.summary]
    means_out = [row[2] for row in result.summary]
    gains = [out - inp for inp, out in zip(means_in, means_out)]
    monotone = all(b >= a for a, b in zip(means_out, means_out[1:]))
    ok = all(g > 0 for g in gains) and monotone and elapsed <= 900.0
    detail = ", ".join(
        f"{inp:+.1f}->{out:.2f}dB" for inp, out in zip(means_in, means_out)
    )
    _report("snr-gain-sweep", ok, f"{detail}; {elapsed:.0f}s")


def test_shannon_number():
    """Slepian eigenvalue sum equals lh^2 * area / (4 pi) for the 15 deg cap."""
    cap = PolarCap(math.radians(15.0))
    res = slepian_window(cap, 8)
    target = 64 * cap.area() / (4.0 * math.pi)
    rel = abs(float(res.eigenvalues.sum()) - target) / target
    _report("shannon-number", rel <= 1e-3, f"rel err {rel:.3e}")


@pytest.mark.slow
def test_full_scale_smoke():
    """Full-scale run (lf = 64, lh = 20): no pseudo-inverse cascade, positive gain."""
    t0 = time.time()
    lf, lh = 64, 20
    s = make_test_signal(lf, 987654)
    region = SphericalEllipse(math.radians(15.0), math.radians(16.0))
    h = slepian_window(region, lh).window()
    model = NoiseModel.random(lf, 987655)
    z_raw = synth_noise(model, 987656)
    z, alpha = calibrate_snr(s, z_raw, 0.0)
    cs = build_signal_covariance(s)
    c0 = model.covariance()
    del model  # released before Cz is built, as pipeline.benchmark does
    cz = c0.scaled(alpha**2)
    del c0  # a denoise holds Cs and Cz only
    f = SphericalCoeffs(lf, s.data + z.data)
    est, diag = denoise_with_diagnostics(f, cs, cz, h)
    gain = snr(est, s) - snr(f, s)
    flagged = diag.flagged_fraction
    elapsed = time.time() - t0
    # KB on Linux; the denoise workers are reaped children of this process
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    worker_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    _report(
        "full-scale-smoke",
        flagged < 0.05 and gain > 0.0,
        f"flagged {100 * flagged:.2f}% of slots, gain {gain:.2f} dB, {elapsed:.0f}s, "
        f"peak RSS {peak_mb:.0f} MB, worker peak RSS {worker_mb:.0f} MB",
    )
