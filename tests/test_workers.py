"""Denoise worker processes: the estimate, the diagnostics and the cleanup.

A denoise deals the shells ``v`` of its harmonic index ``u`` round-robin to
its workers, top shell first; this process runs the last slot and a forked
worker each other one.  The worker count comes from
``pipeline._worker_count``, which these tests replace to force 1 to 4
workers whatever the machine has.
"""

import logging
import math
import os
import pickle
import signal
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


def _on_first_shell(monkeypatch, shells, action):
    """Make ``design_component`` call ``action()`` at the first ``u`` of ``shells``."""
    first = shells[0] ** 2
    design = pipeline.design_component

    def acting(u, *rest):
        if u == first:
            action()
        return design(u, *rest)

    monkeypatch.setattr(pipeline, "design_component", acting)


@pytest.mark.parametrize("lf, lh", [(8, 4), (16, 8)])
def test_estimate_and_diagnostics_do_not_depend_on_the_worker_count(monkeypatch, lf, lh):
    args = _inputs(lf, lh)
    runs = []
    for workers in (1, 2, 3, 4):
        assert len(pipeline._deal(lf + lh - 1, workers)) == workers
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
    shells = pipeline._deal(lf + lh - 1, 2)[0]  # the worker's slot

    def fail():
        raise ArithmeticError("forced failure in the worker's shells")

    _on_first_shell(monkeypatch, shells, fail)
    with pytest.raises(RuntimeError) as exc:
        denoise(*args)
    assert f"denoise worker for shells {', '.join(map(str, shells))} failed:\n" in str(exc.value)
    assert "ArithmeticError: forced failure in the worker's shells" in str(exc.value)
    assert "Traceback" in str(exc.value)
    _assert_no_child_left()


def _exit_early(monkeypatch, shells):
    """Make the worker end with exit code 3 in its first shell."""
    _on_first_shell(monkeypatch, shells, lambda: os._exit(3))


def _kill_itself(monkeypatch, shells):
    """Make the worker send itself SIGKILL in its first shell, as the OOM killer would."""
    _on_first_shell(monkeypatch, shells, lambda: os.kill(os.getpid(), signal.SIGKILL))


def _send_truncated(monkeypatch, shells):
    """Make every worker send its result without the last byte."""
    monkeypatch.setattr(pickle, "dump", lambda msg, fh, protocol: fh.write(pickle.dumps(msg, protocol)[:-1]))


@pytest.mark.parametrize("break_worker, reason", [
    (_exit_early, "exit code 3"),
    (_kill_itself, "signal 9"),
    (_send_truncated, "exit code 0"),
], ids=["exit", "sigkill", "truncated"])
def test_a_dead_worker_is_named_with_its_exit_status(monkeypatch, break_worker, reason):
    lf, lh = 6, 4
    args = _inputs(lf, lh)
    _force_workers(monkeypatch, 2)
    shells = pipeline._deal(lf + lh - 1, 2)[0]
    break_worker(monkeypatch, shells)
    with pytest.raises(RuntimeError) as exc:
        denoise(*args)
    assert str(exc.value) == (
        f"denoise worker for shells {', '.join(map(str, shells))} failed:\n"
        f"the worker ended without a whole result, {reason}"
    )
    _assert_no_child_left()


def test_a_failure_here_kills_the_workers(monkeypatch):
    lf, lh = 6, 4
    args = _inputs(lf, lh)
    _force_workers(monkeypatch, 3)
    design = pipeline.design_component

    def failing(u, *rest):
        if u == 0:  # shell 0 runs here, after the workers were forked
            raise ArithmeticError("forced failure in this process's shells")
        return design(u, *rest)

    monkeypatch.setattr(pipeline, "design_component", failing)
    with pytest.raises(ArithmeticError, match="this process's shells"):
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


def test_deal_gives_every_shell_once_and_evens_the_counts():
    for lf, lh in ((1, 1), (1, 3), (4, 3), (8, 4), (16, 8), (32, 12), (64, 20)):
        lg = lf + lh - 1
        for workers in range(1, 6):
            slots = pipeline._deal(lg, workers)
            assert len(slots) == min(workers, lg)
            assert sorted(v for slot in slots for v in slot) == list(range(lg))
            sizes = [len(slot) for slot in slots]
            assert max(sizes) - min(sizes) <= 1
            if len(slots) > 1:
                assert lg - 1 not in slots[-1]  # this process never runs the top shell


def test_verbose_line_sums_the_workers_counts(monkeypatch, caplog):
    lf, lh = 6, 4
    args = _inputs(lf, lh)
    _force_workers(monkeypatch, 2)
    sent = []
    map_shells = pipeline._map_shells

    def recording(fn, slots, diag, counts, idle=()):
        out = map_shells(fn, slots, diag, counts, idle)
        sent.append((slots, list(counts)))
        return out

    monkeypatch.setattr(pipeline, "_map_shells", recording)
    coupling._pair_record.cache_clear()
    with caplog.at_level(logging.INFO, logger="so3filter"):
        denoise_with_diagnostics(*args)
    (record,) = [r for r in caplog.records if r.name == "so3filter.pipeline"]
    ((slots, (hits, misses, families)),) = sent
    # from a cold cache the worker builds each record of its shells once
    assert misses == len(slots[0]) * lh and families > 0 and hits > 0
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
