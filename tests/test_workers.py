"""Denoise worker processes: the estimate, the diagnostics and the cleanup.

A denoise splits the shells ``v`` of its harmonic index ``u`` into contiguous
slabs; this process runs the first and a forked worker each other one.  The
worker count comes from ``pipeline._worker_count``, which these tests
replace to force 1, 2 or 3 workers whatever the machine has.
"""

import logging
import math
import os
import threading

import numpy as np
import pytest

from so3filter import (
    NoiseModel,
    PolarCap,
    SphericalCoeffs,
    apply_filter,
    build_signal_covariance,
    calibrate_snr,
    denoise,
    denoise_with_diagnostics,
    design_filter,
    estimate_from_representation,
    forward_dslsht,
    make_test_signal,
    slepian_window,
)
from so3filter import coupling, pipeline


def _inputs(lf, lh):
    s = make_test_signal(lf, 61)
    model = NoiseModel.random(lf, 62)
    z, alpha = calibrate_snr(s, pipeline.synth_noise(model, 63), 0.0)
    cz = model.covariance().scaled(alpha**2)
    h = slepian_window(PolarCap(math.radians(15.0)), lh).window()
    return SphericalCoeffs(lf, s.data + z.data), build_signal_covariance(s), cz, h


def _force_workers(monkeypatch, workers):
    monkeypatch.setattr(pipeline, "_worker_count", lambda lf, lh: workers)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("lf, lh", [(8, 4), (16, 8)])
def test_estimate_and_diagnostics_do_not_depend_on_the_worker_count(monkeypatch, lf, lh):
    args = _inputs(lf, lh)
    runs = []
    for workers in (1, 2, 3):
        assert len(pipeline._slabs(lf, lh, workers)) == workers
        _force_workers(monkeypatch, workers)
        runs.append(denoise_with_diagnostics(*args))
    (est, diag), *others = runs
    assert diag.block_counts[1] > 0  # some blocks truncated, so pinv_flag is not all False
    for other, other_diag in others:
        assert np.array_equal(other.data, est.data)
        for name in ("rank", "cond", "pinv_flag"):
            assert np.array_equal(getattr(other_diag, name), getattr(diag, name))
    f, cs, cz, h = args
    filt = design_filter(cs, cz, lh)
    chain = estimate_from_representation(apply_filter(forward_dslsht(f, h), filt), h)
    assert np.abs(est.data - chain.data).max() <= 1e-12 * np.abs(chain.data).max()
    _assert_no_child_left()


def test_no_worker_outlives_a_denoise(monkeypatch):
    _force_workers(monkeypatch, 2)
    denoise(*_inputs(6, 4))
    _assert_no_child_left()


def test_a_failing_worker_raises_its_traceback(monkeypatch):
    lf, lh = 6, 4
    args = _inputs(lf, lh)
    _force_workers(monkeypatch, 2)
    first = pipeline._slabs(lf, lh, 2)[1].start ** 2  # first u of the worker's slab
    design = pipeline.design_component

    def failing(u, *rest):
        if u == first:
            raise ArithmeticError("forced failure in the worker's slab")
        return design(u, *rest)

    monkeypatch.setattr(pipeline, "design_component", failing)
    with pytest.raises(RuntimeError, match="denoise worker for shells") as exc:
        denoise(*args)
    assert "ArithmeticError: forced failure in the worker's slab" in str(exc.value)
    assert "Traceback" in str(exc.value)
    _assert_no_child_left()


def test_a_failure_here_kills_the_workers(monkeypatch):
    lf, lh = 6, 4
    args = _inputs(lf, lh)
    _force_workers(monkeypatch, 3)
    design = pipeline.design_component

    def failing(u, *rest):
        if u == 0:  # slab 0 runs here, after the workers were forked
            raise ArithmeticError("forced failure in this process's slab")
        return design(u, *rest)

    monkeypatch.setattr(pipeline, "design_component", failing)
    with pytest.raises(ArithmeticError, match="this process's slab"):
        denoise(*args)
    _assert_no_child_left()


def test_worker_count():
    cpus = len(os.sched_getaffinity(0))
    # the perfbench unit workload (lf = 4, lh = 3, 108 blocks) is below break-even
    assert pipeline._worker_count(4, 3) == 1
    assert pipeline._worker_count(16, 8) == min(cpus, 23**2 * 8 // pipeline._BLOCKS_PER_WORKER)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        assert pipeline._worker_count(16, 8) == 1  # never fork a threaded caller
    finally:
        stop.set()
        other.join()


def test_worker_count_is_serial_without_affinity(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity")
    assert pipeline._worker_count(16, 8) == 1


def test_slabs_cover_every_shell_in_order():
    for lf, lh, workers in ((4, 3, 1), (8, 4, 3), (16, 8, 2), (32, 12, 5)):
        slabs = pipeline._slabs(lf, lh, workers)
        assert [v for slab in slabs for v in slab] == list(range(lf + lh - 1))
    # at desk the per-shell cost levels off from v = 12, so the balanced cut
    # sits past the middle of the triple products
    assert pipeline._slabs(16, 8, 2) == (range(0, 14), range(14, 23))


def test_verbose_line_sums_the_workers_counts(monkeypatch, caplog):
    lf, lh = 6, 4
    args = _inputs(lf, lh)
    _force_workers(monkeypatch, 2)
    sent = []
    map_slabs = pipeline._map_slabs

    def recording(fn, slabs, diag, counts, idle=()):
        out = map_slabs(fn, slabs, diag, counts, idle)
        sent.append((slabs, list(counts)))
        return out

    monkeypatch.setattr(pipeline, "_map_slabs", recording)
    coupling._pair_record.cache_clear()
    with caplog.at_level(logging.INFO, logger="so3filter"):
        denoise_with_diagnostics(*args)
    (record,) = [r for r in caplog.records if r.name == "so3filter.pipeline"]
    ((slabs, (hits, misses, families)),) = sent
    # from a cold cache the worker builds each record of its shells once
    assert misses == len(slabs[1]) * lh and families > 0 and hits > 0
    pairs, own = coupling.cache_info()
    msg = record.getMessage()
    assert "; 2 workers; " in msg
    assert (
        f"degree-pair records {pairs.hits + hits} hits {pairs.misses + misses} misses "
        f"{pairs.currsize}/{pairs.maxsize} held"
    ) in msg
    assert f"{own + families} 3j families evaluated" in msg
    _force_workers(monkeypatch, 1)
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="so3filter"):
        denoise_with_diagnostics(*args)
    assert "; 1 worker; " in caplog.records[-1].getMessage()
