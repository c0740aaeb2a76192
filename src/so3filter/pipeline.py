"""End-to-end denoising pipeline, noise synthesis, SNR metric and benchmarks.

The observation model is ``f = s + z`` with ``s`` the source and ``z``
zero-mean anisotropic noise, both described by known spectral covariances.
Quality is measured as ``snr = 20 log10(||s|| / ||d - s||)`` in decibels,
with norms taken in coefficient space.

``denoise`` runs the full chain: analyse the observation with a window,
design the per-component MMSE filter, apply it, and recover the source
estimate by least squares.  Components are processed one harmonic index at a
time, so memory stays modest even at large bandlimits.  Each component
streams as its rank-one factor ``tau(u)``: the filter maps it to
``zeta(u) tau(u)``, and recovery needs only that times the per-degree window
power ``sum_q' |(h)_p^{q'}|^2``.
"""

from __future__ import annotations

import io as _io
import logging
import math
import os
import pickle
import select
import signal
import threading
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import coupling
from .dslsht import forward_component, window_blocks
from .estimator import estimate_from_components
from .filtering import FilterDiagnostics, SpectralCovariance, design_component
from .io import write_pgm
from .slepian import Region
from .sphere import SphericalCoeffs, _lm_index, synthesize

logger = logging.getLogger(__name__)

_TEST_SIGNAL_SLOPE = 2.0  # power-law slope of the test signal's degree spectrum

# Blocks that each denoise worker needs to pay for its fork: on a 2-core
# x86_64 machine two workers broke even with one between 147 and 192 blocks.
_BLOCKS_PER_WORKER = 100


def _rng(seed: int) -> np.random.Generator:
    """Random generator for a draw that is deterministic in ``seed``."""
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    return np.random.default_rng(seed)


def make_test_signal(lf: int, seed: int) -> SphericalCoeffs:
    """Random bandlimited source with a red spectrum, normalised to unit norm.

    Coefficients are complex Gaussian with standard deviation
    ``(1 + l)**(-slope/2)``, ``slope = 2``; the draw is deterministic in
    ``seed``.
    """
    rng = _rng(seed)
    raw = rng.standard_normal(lf * lf) + 1j * rng.standard_normal(lf * lf)
    ls, _ = _lm_index(lf)
    data = raw * (1.0 + ls) ** (-0.5 * _TEST_SIGNAL_SLOPE)
    return SphericalCoeffs(lf, data / np.linalg.norm(data))


def build_signal_covariance(s: SphericalCoeffs) -> SpectralCovariance:
    """Rank-one source covariance ``s s^H`` built from the true spectrum."""
    if s.norm() == 0.0:
        raise ValueError("source signal must be nonzero")
    return SpectralCovariance._adopt(s.bandlimit, np.outer(s.data, np.conj(s.data)))


@dataclass(frozen=True)
class NoiseModel:
    """Anisotropic noise: ``z = scale * T g`` with ``g`` standard complex Gaussian.

    The ensemble covariance is ``scale**2 * T T^H``.
    """

    mixing: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        mat = np.asarray(self.mixing, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("mixing matrix must be square")
        if math.isqrt(mat.shape[0]) ** 2 != mat.shape[0]:
            raise ValueError("mixing matrix size must be a squared bandlimit")
        if not (math.isfinite(self.scale) and self.scale >= 0.0):
            raise ValueError(f"scale must be finite and nonnegative, got {self.scale}")
        object.__setattr__(self, "mixing", mat)

    @property
    def bandlimit(self) -> int:
        return math.isqrt(self.mixing.shape[0])

    @classmethod
    def random(cls, lf: int, seed: int, scale: float = 1.0) -> "NoiseModel":
        """Mixing matrix with real and imaginary parts i.i.d. uniform(-1, 1)."""
        if lf < 1:
            raise ValueError(f"bandlimit must be positive, got {lf}")
        rng = _rng(seed)
        n = lf * lf
        mat = np.empty((n, n), dtype=np.complex128)
        mat.real = rng.uniform(-1.0, 1.0, (n, n))
        mat.imag = rng.uniform(-1.0, 1.0, (n, n))
        return cls(mat, scale)

    def covariance(self) -> SpectralCovariance:
        """``scale**2 T T^H``, PSD by construction, so it skips the eigensolve."""
        t = self.mixing
        n = t.shape[0]
        mat = np.empty_like(t)
        # At most 16 column bands T @ T[b]^H, so no conjugate copy of T.  Bands
        # start at multiples of 16 columns, which OpenBLAS's column blocks
        # divide, so the bits are those of one T @ T^H; a lone last column
        # joins the band before it, as one column would round as a gemv.
        cols = 16 * -(-n // 256)
        edges = [*range(0, max(n - 1, 1), cols), n]
        for a, b in zip(edges, edges[1:]):
            mat[:, a:b] = t @ t[a:b].conj().T
        mat *= self.scale**2
        return SpectralCovariance._adopt(self.bandlimit, mat)


def synth_noise(model: NoiseModel, seed: int) -> SphericalCoeffs:
    """One noise realisation; deterministic in ``seed``."""
    rng = _rng(seed)
    n = model.mixing.shape[0]
    g = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2.0)
    return SphericalCoeffs(model.bandlimit, model.scale * (model.mixing @ g))


def snr(d: SphericalCoeffs, s: SphericalCoeffs) -> float:
    """``20 log10(||s|| / ||d - s||)`` in dB; ``+inf`` when ``d == s``."""
    if s.norm() == 0.0:
        raise ValueError("reference signal must be nonzero")
    if d.bandlimit != s.bandlimit:
        raise ValueError("bandlimit mismatch")
    err = float(np.linalg.norm(d.data - s.data))
    if err == 0.0:
        return math.inf
    return 20.0 * math.log10(s.norm() / err)


def calibrate_snr(
    s: SphericalCoeffs, z: SphericalCoeffs, target_db: float
) -> tuple[SphericalCoeffs, float]:
    """Scale ``z`` so that ``s + alpha z`` hits the target SNR exactly.

    Returns ``(alpha * z, alpha)``; covariances fed to the filter must be
    scaled by ``alpha**2`` to stay consistent.
    """
    if not math.isfinite(target_db):
        raise ValueError(f"SNR target must be finite, got {target_db}")
    if z.norm() == 0.0:
        raise ValueError("noise draw must be nonzero")
    if s.bandlimit != z.bandlimit:
        raise ValueError("bandlimit mismatch")
    try:
        alpha = (s.norm() / z.norm()) * 10.0 ** (-target_db / 20.0)
    except OverflowError:
        alpha = math.inf
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ValueError(f"SNR target {target_db} dB puts the noise scale out of range")
    return SphericalCoeffs(z.bandlimit, alpha * z.data), alpha


def _worker_count(lf: int, lh: int) -> int:
    """Processes that one denoise of bandlimits ``lf``, ``lh`` runs on.

    One per CPU in ``os.sched_getaffinity(0)``, with ``_BLOCKS_PER_WORKER``
    of the ``(lf + lh - 1)**2 * lh`` blocks per worker at least.  Serial
    where that call does not exist (no Linux ``fork``) and while the caller
    runs other threads, which a fork would copy in whatever state they are.
    """
    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    blocks = (lf + lh - 1) ** 2 * lh
    return max(1, min(len(os.sched_getaffinity(0)), blocks // _BLOCKS_PER_WORKER))


def _deal(shells: int, workers: int) -> tuple[range, ...]:
    """Shells ``0`` to ``shells - 1`` dealt round-robin to at most ``workers`` slots.

    Slot ``k`` holds ``shells - 1 - k``, ``shells - 1 - k - workers``, ...;
    the last, this process's, never holds the top shell if there are two or more.
    """
    return tuple(range(shells - 1 - k, -1, -workers) for k in range(min(workers, shells)))


def _fork_shells(fn, shells: range, diag: FilterDiagnostics):
    """Run ``fn`` over ``shells`` in a forked child; returns ``(pid, pipe)``.

    The child pickles into the pipe either the list of results, the indices
    ``u`` of its shells with their rows of ``diag`` and its deltas of
    ``coupling.cache_info()``, or the text of the traceback it raised, and
    ends with ``os._exit``.
    """
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        # The child never returns or raises into the caller's frames.
        status = 1
        try:
            os.close(r)
            rows = np.concatenate([np.arange(v * v, (v + 1) ** 2) for v in shells])
            (hits0, misses0, *_), families0 = coupling.cache_info()
            try:
                parts = [fn(v) for v in shells]
                (hits, misses, *_), families = coupling.cache_info()
                msg = (parts, rows, diag.rank[rows], diag.cond[rows], diag.pinv_flag[rows],
                       (hits - hits0, misses - misses0, families - families0))
            except BaseException:
                msg = traceback.format_exc()
            with os.fdopen(w, "wb") as fh:
                pickle.dump(msg, fh, protocol=pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    return pid, os.fdopen(r, "rb")


def _map_shells(fn, slots: tuple[range, ...], diag: FilterDiagnostics, counts: list, idle=()) -> list:
    """``fn(v)`` for every shell of ``slots``, in ``v`` order, with ``diag`` filled in.

    This process runs the last slot and one forked child runs each other
    one.  A child's rows of ``diag`` are copied here, and its record hits,
    misses and 3j families are added to ``counts``.  Having run its slot,
    this process builds the records ``(p, v, lf)`` of ``idle`` in order
    until every child has begun to send.  If anything fails, every child is
    killed; every child is reaped, a dead one named with its exit status.
    """
    children = {}
    try:
        for shells in slots[:-1]:
            pid, pipe = _fork_shells(fn, shells, diag)
            children[pid] = (pipe, shells)
        out = {v: fn(v) for v in slots[-1]}
        pipes = [pipe for pipe, _ in children.values()]
        for key in idle:
            if len(select.select(pipes, [], [], 0)[0]) == len(pipes):
                break
            coupling._pair_record(*key)
        for pid, (pipe, shells) in list(children.items()):
            try:
                msg = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                msg = None
            pipe.close()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if msg is None:
                end = f"signal {-code}" if code < 0 else f"exit code {code}"
                msg = f"the worker ended without a whole result, {end}"
            if isinstance(msg, str):
                raise RuntimeError(f"denoise worker for shells {', '.join(map(str, shells))} failed:\n{msg}")
            parts, rows, rank, cond, flag, sums = msg
            diag.rank[rows], diag.cond[rows], diag.pinv_flag[rows] = rank, cond, flag
            counts[:] = [a + b for a, b in zip(counts, sums)]
            out.update(zip(shells, parts))
        return [out[v] for v in sorted(out)]
    except BaseException:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, (pipe, _) in children.items():
            pipe.close()
            os.waitpid(pid, 0)


def denoise_with_diagnostics(
    f: SphericalCoeffs,
    cs: SpectralCovariance,
    cz: SpectralCovariance,
    h: SphericalCoeffs,
) -> tuple[SphericalCoeffs, FilterDiagnostics]:
    """Streaming denoise that also reports the filter solver diagnostics.

    Beside ``Cs``, ``Cz`` and the cached triple-product records it holds no
    ``n x n`` array: each block gathers its core from the two covariances,
    and the components stream.  It reads the window only through its per-degree
    power ``sum_q' |(h)_p^{q'}|^2``: a rotated window gives the same estimate.
    The shells of ``u`` are dealt round-robin to the worker processes (see
    ``_worker_count``); the estimate has the same bits for any number of them.
    """
    lf = f.bandlimit
    if cs.bandlimit != lf or cz.bandlimit != lf:
        raise ValueError("covariance bandlimits must match the observation")
    lh = h.bandlimit
    lg = lf + lh - 1
    hpow = np.sum(np.abs(window_blocks(h)) ** 2, axis=1)[:, None]  # per-degree window power
    diag = FilterDiagnostics.zeros(lg, lh)

    def filtered(u: int) -> np.ndarray:
        """Window contraction ``nh(u)`` of the filtered component ``zeta(u) (tau(u) h)``."""
        zeta = design_component(u, cs, cz, lf, lh, diag)
        return (zeta @ forward_component(u, f, lh)[..., None])[..., 0] * hpow

    slots = _deal(lg, _worker_count(lf, lh))
    counts = [0, 0, 0]  # the workers' record hits and misses and 3j families
    # The records that the workers build die with them.  If the whole denoise
    # fits the cache, this process builds them while it waits for the
    # workers, so a later denoise forks them with the records cached.
    idle = []
    if lg * lh <= coupling.cache_info()[0].maxsize:
        idle = [(p, v, lf) for v in range(lg) if v not in slots[-1] for p in range(lh)]
    est = estimate_from_components(
        filtered, h, lf, lambda fn, _: _map_shells(fn, slots, diag, counts, idle)
    )
    if logger.isEnabledFor(logging.INFO):
        # this process's running counts plus those of this denoise's workers
        record, families = coupling.cache_info()
        weights = hpow[:, 0] / hpow.sum()
        logger.info(
            "blocks %d empty %d truncated %d solved; %d worker%s; coupling cache: "
            "degree-pair records %d hits %d misses %d/%d held, "
            "%d 3j families evaluated; window degree weights w_p %s",
            *diag.block_counts, len(slots), "" if len(slots) == 1 else "s",
            record.hits + counts[0], record.misses + counts[1], record.currsize, record.maxsize,
            families + counts[2], " ".join(f"{w:.4g}" for w in weights),
        )
    return est, diag


def denoise(
    f: SphericalCoeffs,
    cs: SpectralCovariance,
    cz: SpectralCovariance,
    h: SphericalCoeffs,
) -> SphericalCoeffs:
    """Full joint-domain denoising chain, streamed one component at a time.

    Equivalent to forward transform, filter design plus application and
    least-squares recovery, without materialising the representation.
    """
    est, _ = denoise_with_diagnostics(f, cs, cz, h)
    return est


@dataclass(frozen=True)
class ExperimentConfig:
    """Benchmark protocol: bandlimits, window region, SNR sweep, realisations."""

    lf: int
    lh: int
    region: Region
    snr_targets_db: tuple
    realizations: int
    seed: int

    def __post_init__(self):
        if self.realizations < 1:
            raise ValueError("need at least one realization")
        if len(self.snr_targets_db) == 0:
            raise ValueError("SNR target list must be nonempty")
        if not all(math.isfinite(t) for t in self.snr_targets_db):
            raise ValueError(f"SNR targets must be finite, got {self.snr_targets_db}")
        if self.lf < 1 or self.lh < 1:
            raise ValueError("bandlimits must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class BenchmarkResult:
    """Per-realization rows plus per-target summary statistics."""

    rows: tuple = field(repr=False)
    summary: tuple = ()

    def rows_csv(self) -> str:
        buf = _io.StringIO()
        buf.write("target_db,realization,input_db,output_db\n")
        for target, r, snr_in, snr_out in self.rows:
            buf.write(f"{target:.12g},{r},{snr_in:.12g},{snr_out:.12g}\n")
        return buf.getvalue()

    def summary_csv(self) -> str:
        buf = _io.StringIO()
        buf.write("target_db,mean_input_db,mean_output_db,std_output_db\n")
        for target, mean_in, mean_out, std_out in self.summary:
            buf.write(f"{target:.12g},{mean_in:.12g},{mean_out:.12g},{std_out:.12g}\n")
        return buf.getvalue()


def benchmark(
    cfg: ExperimentConfig,
    s: SphericalCoeffs,
    h: SphericalCoeffs,
) -> BenchmarkResult:
    """SNR-in versus SNR-out sweep over noise realisations.

    One mixing matrix is drawn from the master seed; realisation ``r`` draws
    its noise from ``seed + r`` (1-based) once, before the first denoise, and
    is shared across targets, with the amplitude recalibrated per target.
    The noise covariance ``C0`` is built and checked once; each denoise's
    ``Cz`` is ``C0.scaled(alpha**2)``.  The noise model and its mixing
    matrix are released before the sweep, and each ``Cz`` before the next
    one is built.  Fully deterministic in the seed.
    """
    if s.bandlimit != cfg.lf or h.bandlimit != cfg.lh:
        raise ValueError("signal or window bandlimit does not match the config")
    model = NoiseModel.random(cfg.lf, cfg.seed)
    cs = build_signal_covariance(s)
    c0 = model.covariance()
    draws = [synth_noise(model, cfg.seed + r) for r in range(1, cfg.realizations + 1)]
    del model
    rows = []
    stats = []
    for target in cfg.snr_targets_db:
        outputs = []
        for r, z_raw in enumerate(draws, start=1):
            z, alpha = calibrate_snr(s, z_raw, target)
            cz = c0.scaled(alpha**2)
            f = SphericalCoeffs(cfg.lf, s.data + z.data)
            est = denoise(f, cs, cz, h)
            del cz  # released before the next target's Cz is built
            snr_in = snr(f, s)
            snr_out = snr(est, s)
            rows.append((float(target), r, snr_in, snr_out))
            outputs.append(snr_out)
            logger.info(
                "target %+.2f dB realization %d: in %.4f dB out %.4f dB",
                target, r, snr_in, snr_out,
            )
        arr = np.array(outputs)
        std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
        mean_in = float(np.mean([row[2] for row in rows if row[0] == float(target)]))
        stats.append((float(target), mean_in, float(arr.mean()), std))
    return BenchmarkResult(tuple(rows), tuple(stats))


def render_map(coeffs: SphericalCoeffs, rows: int, cols: int, out_base) -> dict:
    """Rasterise a coefficient vector on an equiangular grid.

    Samples at ``theta = pi (i + 1/2) / rows``, ``phi = 2 pi j / cols``.
    Writes ``<base>.pgm`` (real part), ``<base>_mag.pgm`` (magnitude) and
    ``<base>.txt`` (the real-part value grid, full precision).  Returns the
    written paths.
    """
    if rows < 2 or cols < 2:
        raise ValueError("raster needs at least 2 rows and 2 columns")
    thetas = math.pi * (np.arange(rows) + 0.5) / rows
    phis = 2.0 * math.pi * np.arange(cols) / cols
    vals = synthesize(coeffs, thetas[:, None], phis[None, :])
    base = Path(out_base)
    paths = {
        "real": base.with_suffix(".pgm"),
        "magnitude": base.parent / (base.name + "_mag.pgm"),
        "text": base.with_suffix(".txt"),
    }
    write_pgm(paths["real"], vals.real)
    write_pgm(paths["magnitude"], np.abs(vals))
    with open(paths["text"], "w") as fh:
        for i in range(rows):
            fh.write(" ".join(f"{v:.17g}" for v in vals[i].real))
            fh.write("\n")
    return paths
