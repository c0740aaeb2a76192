"""The benchmark workloads: inputs, one op, and its correctness check.

Every workload is a closed loop with one client: an op starts only after the
previous one returned.  Inputs are derived from the workload seed alone, and
the program receives only the generated coefficients, covariances and files.

* ``desk-sweep``: one op is one ``pipeline.benchmark`` sweep at the desk
  preset (``lf=16, lh=8, cap:15``, targets -5/0/5/10 dB, three
  realizations), rank-one ``Cs`` from a seeded test signal.  Denoises in a
  sweep share ``Cs``, the window and the noise shape.
* ``cli-oneshot``: one op is a fresh ``so3filter denoise`` process on
  ``.slm``/``.cov`` files at desk scale with a full-rank anisotropic signal
  covariance.
"""

from __future__ import annotations

import itertools
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Timed calls go through the module attributes (``pipeline.denoise``), so the
# traced run sees them once ``spans.Tracer`` has wrapped those attributes.
from so3filter import (
    ExperimentConfig,
    NoiseModel,
    PolarCap,
    SpectralCovariance,
    SphericalCoeffs,
    apply_filter,
    build_signal_covariance,
    calibrate_snr,
    design_filter,
    estimate_from_representation,
    forward_dslsht,
    make_test_signal,
    pipeline,
    slepian,
    snr,
    synth_noise,
)

TOLERANCE = 1e-12  # relative, from the roadmap's equivalence rule
SNR_TARGETS_DB = (-5.0, 0.0, 5.0, 10.0)
REALIZATIONS = 3


def sub_seed(seed: int, *tags: int) -> int:
    """A 64-bit seed derived from the workload seed and integer tags."""
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1, np.uint64)[0])


def rel_err(got, want) -> float:
    """``max|got - want| / max|want|``; ``inf`` when anything is non-finite."""
    got = np.asarray(got, dtype=np.complex128).ravel()
    want = np.asarray(want, dtype=np.complex128).ravel()
    if got.shape != want.shape or not (np.isfinite(got).all() and np.isfinite(want).all()):
        return math.inf
    scale = float(np.abs(want).max())
    err = float(np.abs(got - want).max())
    return err / scale if scale > 0.0 else err


def materialised_estimate(f, cs, cz, h) -> SphericalCoeffs:
    """The non-streaming chain: forward, design, apply, least-squares recovery."""
    rep = forward_dslsht(f, h)
    filt = design_filter(cs, cz, h.bandlimit)
    return estimate_from_representation(apply_filter(rep, filt), h)


def fingerprint(est: np.ndarray) -> list[float]:
    """Four fixed random projections of an estimate, as re/im pairs."""
    rng = np.random.default_rng(20201015)
    probes = rng.standard_normal((4, est.size)) + 1j * rng.standard_normal((4, est.size))
    fp = probes @ est
    return [float(v) for z in fp for v in (z.real, z.imag)]


def degrees(lf: int) -> np.ndarray:
    return np.floor(np.sqrt(np.arange(lf * lf))).astype(int)


def mixing(rng, n: int) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, (n, n)) + 1j * rng.uniform(-1.0, 1.0, (n, n))


def gaussian(rng, n: int) -> np.ndarray:
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2.0)


def hermitian(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.conj().T)


@dataclass
class Op:
    """One op's inputs, outputs and check results."""

    index: int
    inputs: dict
    denoises: int = 1
    latency: float = 0.0
    snr_in: list = field(default_factory=list)
    snr_out: list = field(default_factory=list)
    estimates: list = field(default_factory=list)  # estimate arrays; a sweep returns none
    launch: float = 0.0  # process start, cli-oneshot only
    error: str | None = None
    max_rel_err: float | None = None  # against the chain; None if not checked
    ref_rel_err: float | None = None
    failed: int = 0


class Workload:
    name = ""
    lf = 0
    lh = 0
    min_ops = 1        # ops the timed phase always completes
    in_process = True  # False: every op is a fresh process, with a cold 3j cache
    setup_repeats = 7  # setup_s is the median over this many set-ups
    chain_checks = 1   # last unreferenced ops checked against the materialised chain
    reference_ops = 1  # ops per seed that record_references.py stores

    def __init__(self, seed: int, workdir: Path, src: Path):
        self.seed = seed
        self.workdir = workdir
        self.src = src

    def setup(self, trace_base: str | None = None) -> None:
        """Window and input models, then ``first_inputs`` for op 0."""
        raise NotImplementedError

    def op_inputs(self, k: int) -> dict:
        raise NotImplementedError

    def run(self, op: Op, trace_base: str | None = None) -> None:
        """One op; ``trace_base`` names the span files of a traced child process."""
        raise NotImplementedError

    def check(self, op: Op) -> None:
        """Set ``op.max_rel_err`` against the materialised chain."""
        raise NotImplementedError

    def reference_values(self, op: Op) -> list[float]:
        """What the recorded references store for an op."""
        return [v for est in op.estimates for v in fingerprint(est)] + op.snr_in + op.snr_out


class DeskSweep(Workload):
    name = "desk-sweep"
    lf, lh = 16, 8

    def setup(self, trace_base: str | None = None) -> None:
        self.h = slepian.slepian_window(PolarCap(math.radians(15.0)), self.lh).window()
        self.first_inputs = self.op_inputs(0)

    def op_inputs(self, k: int) -> dict:
        cfg = ExperimentConfig(
            self.lf, self.lh, PolarCap(math.radians(15.0)), SNR_TARGETS_DB, REALIZATIONS,
            sub_seed(self.seed, 0, k),
        )
        return {"cfg": cfg, "s": make_test_signal(self.lf, cfg.seed)}

    def run(self, op: Op, trace_base: str | None = None) -> None:
        cfg = op.inputs["cfg"]
        op.denoises = len(cfg.snr_targets_db) * cfg.realizations
        t0 = time.perf_counter()
        result = pipeline.benchmark(cfg, op.inputs["s"], self.h)
        op.latency = time.perf_counter() - t0
        op.snr_in = [row[2] for row in result.rows]
        op.snr_out = [row[3] for row in result.rows]

    def check(self, op: Op) -> None:
        # Rebuild each row's observation and covariances the way the sweep
        # documents them, then denoise through the materialised chain.
        cfg, s = op.inputs["cfg"], op.inputs["s"]
        model = NoiseModel.random(cfg.lf, cfg.seed)
        base = model.covariance().matrix
        cs = build_signal_covariance(s)
        want_in, want_out = [], []
        for target, r in itertools.product(cfg.snr_targets_db, range(1, cfg.realizations + 1)):
            z, alpha = calibrate_snr(s, synth_noise(model, cfg.seed + r), target)
            f = SphericalCoeffs(cfg.lf, s.data + z.data)
            est = materialised_estimate(f, cs, SpectralCovariance(cfg.lf, alpha**2 * base), self.h)
            want_in.append(snr(f, s))
            want_out.append(snr(est, s))
        op.max_rel_err = rel_err(op.snr_in + op.snr_out, want_in + want_out)


def write_slm(path: Path, data: np.ndarray) -> None:
    lf = math.isqrt(data.size)
    lines = [f"slm v1 L={lf}"]
    lines += [f"{n} {c.real:.17g} {c.imag:.17g}" for n, c in enumerate(data)]
    path.write_text("\n".join(lines) + "\n")


def read_slm(path: Path) -> np.ndarray:
    lines = path.read_text().split("\n")
    lf = int(lines[0].split("L=")[1])
    body = np.array(" ".join(lines[1 : 1 + lf * lf]).split(), dtype=np.float64).reshape(-1, 3)
    if body.shape[0] != lf * lf or not np.array_equal(body[:, 0], np.arange(lf * lf)):
        raise ValueError(f"{path}: malformed coefficient file")
    return body[:, 1] + 1j * body[:, 2]


def write_cov(path: Path, mat: np.ndarray) -> None:
    lf = math.isqrt(mat.shape[0])
    pairs = np.stack([mat.real, mat.imag], axis=-1).reshape(mat.shape[0], -1)
    rows = (" ".join(f"{v:.17g}" for v in row) for row in pairs)
    path.write_text(f"cov v1 L={lf}\n" + "\n".join(rows) + "\n")


class CliOneshot(Workload):
    name = "cli-oneshot"
    lf, lh = 16, 8
    min_ops = 6
    in_process = False
    setup_repeats = 5
    chain_checks = 8   # cheap: the chain's filter is designed once
    reference_ops = 5

    def env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.src)
        return env

    def cli(self, args: list[str], trace_base: str | None):
        """Run one ``so3filter`` process; traced through ``spans.py`` if asked."""
        if trace_base is None:
            cmd = [sys.executable, "-m", "so3filter.cli", *args]
        else:
            cmd = [sys.executable, str(Path(__file__).with_name("spans.py")), trace_base, *args]
        launch = time.perf_counter()
        proc = subprocess.run(cmd, env=self.env(), capture_output=True, text=True, timeout=170)
        end = time.perf_counter()
        if proc.returncode != 0:
            raise RuntimeError(f"so3filter {args[0]} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return launch, end

    def setup(self, trace_base: str | None = None) -> None:
        window = self.workdir / "window.slm"
        self.cli(["slepian", "--region", "cap:15", "--lh", str(self.lh), "--out", str(window)], trace_base)
        self.h = SphericalCoeffs(self.lh, read_slm(window))
        rng = np.random.default_rng(sub_seed(self.seed, 2))
        n = self.lf * self.lf
        # Full-rank anisotropic source model Cs = Ms Ms^H with a red spectrum.
        self.ms = mixing(rng, n) / (math.sqrt(n) * (1.0 + degrees(self.lf))[:, None])
        self.mz = mixing(rng, n)
        cs = hermitian(self.ms @ self.ms.conj().T)
        cz0 = self.mz @ self.mz.conj().T
        self.alpha = math.sqrt(np.trace(cs).real / np.trace(cz0).real)  # 0 dB on average
        cz = hermitian(self.alpha**2 * cz0)
        write_cov(self.workdir / "signal.cov", cs)
        write_cov(self.workdir / "noise.cov", cz)
        self.cs = SpectralCovariance(self.lf, cs)
        self.cz = SpectralCovariance(self.lf, cz)
        self.filter = None  # the check's design_filter, shared by every op
        self.first_inputs = self.op_inputs(0)

    def op_inputs(self, k: int) -> dict:
        rng = np.random.default_rng(sub_seed(self.seed, 2, k))
        n = self.lf * self.lf
        s = self.ms @ gaussian(rng, n)
        f = s + self.alpha * (self.mz @ gaussian(rng, n))
        obs = self.workdir / f"observed_{k}.slm"
        write_slm(obs, f)
        return {"s": SphericalCoeffs(self.lf, s), "f": SphericalCoeffs(self.lf, f), "path": obs}

    def run(self, op: Op, trace_base: str | None = None) -> None:
        out = self.workdir / f"estimate_{op.index}.slm"
        out.unlink(missing_ok=True)
        args = [
            "denoise", "--observed", str(op.inputs["path"]),
            "--window", str(self.workdir / "window.slm"),
            "--signal-cov", str(self.workdir / "signal.cov"),
            "--noise-cov", str(self.workdir / "noise.cov"),
            "--out", str(out),
        ]
        launch, end = self.cli(args, trace_base)
        op.latency = end - launch
        op.launch = launch
        est = read_slm(out)
        op.estimates = [est]
        op.snr_in = [snr(op.inputs["f"], op.inputs["s"])]
        op.snr_out = [snr(SphericalCoeffs(self.lf, est), op.inputs["s"])]

    def check(self, op: Op) -> None:
        # Every op shares the covariance files, so the chain designs once.
        if self.filter is None:
            self.filter = design_filter(self.cs, self.cz, self.lh)
        rep = apply_filter(forward_dslsht(op.inputs["f"], self.h), self.filter)
        want = estimate_from_representation(rep, self.h)
        op.max_rel_err = rel_err(op.estimates[0], want.data)


WORKLOADS = {w.name: w for w in (DeskSweep, CliOneshot)}

