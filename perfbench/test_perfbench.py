"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from scale import denoise_counts, gram_cost  # noqa: E402
from spans import Tracer  # noqa: E402


class TinyCli(workloads.CliOneshot):
    """The cli-oneshot op at a bandlimit small enough for a unit test."""

    lf, lh = 4, 3


class TinyDesk(workloads.DeskSweep):
    """The desk-sweep op at a bandlimit small enough for a unit test."""

    lf, lh = 4, 3


def run_ops(wl, n):
    wl.setup()
    ops = [workloads.Op(k, wl.first_inputs if k == 0 else wl.op_inputs(k)) for k in range(n)]
    for op in ops:
        wl.run(op)
    return ops


@pytest.fixture
def cli(tmp_path):
    wl = TinyCli(7, tmp_path, HERE.parent / "src")
    return wl, run_ops(wl, 2)


@pytest.fixture
def desk(tmp_path):
    wl = TinyDesk(7, tmp_path, HERE.parent / "src")
    return wl, run_ops(wl, 1)


def test_exact_ops_pass(cli, desk):
    for wl, ops in (cli, desk):
        run.check_ops(wl, ops, refs=[])
        assert [op.failed for op in ops] == [0] * len(ops)
        assert max(op.max_rel_err for op in ops) <= workloads.TOLERANCE


def test_chain_checks_only_the_last_unreferenced_ops(cli):
    wl, ops = cli
    wl.chain_checks = 1
    ops.append(workloads.Op(2, wl.op_inputs(2)))
    wl.run(ops[2])
    refs = [wl.reference_values(ops[0])]
    ops[1].estimates = [ops[1].estimates[0] * 2.0]  # neither referenced nor chain-checked
    run.check_ops(wl, ops, refs)
    assert [op.ref_rel_err is not None for op in ops] == [True, False, False]
    assert [op.max_rel_err is not None for op in ops] == [False, False, True]
    assert [op.failed for op in ops] == [0, 0, 0]


def test_perturbed_estimate_counts_as_failed(cli):
    wl, ops = cli
    est = ops[1].estimates[0].copy()
    est[np.argmax(np.abs(est))] *= 1.0 + 1e-9
    ops[1].estimates = [est]
    run.check_ops(wl, ops, refs=[])
    assert [op.failed for op in ops] == [0, 1]


def test_perturbed_sweep_row_counts_as_failed(desk):
    wl, ops = desk
    ops[0].snr_out[5] *= 1.0 + 1e-9
    run.check_ops(wl, ops, refs=[])
    assert ops[0].failed == ops[0].denoises == 12


def test_reference_mismatch_counts_as_failed(cli):
    wl, ops = cli
    refs = [wl.reference_values(op) for op in ops]
    refs[0][0] *= 1.0 + 1e-9
    run.check_ops(wl, ops, refs)
    assert [op.failed for op in ops] == [1, 0]


def test_traced_op_must_match_untraced(desk):
    wl, ops = desk
    run.check_ops(wl, ops, refs=[])
    again = [workloads.Op(op.index, op.inputs) for op in ops]
    for op in again:
        wl.run(op)
    run.same_outputs(ops, again)
    assert again[0].failed == 0
    again[0].snr_out[0] += 1e-15
    run.same_outputs(ops, again)
    assert again[0].failed == 12


def traced(wl, op):
    tracer = Tracer()
    tracer.install()
    try:
        wl.run(workloads.Op(op.index, op.inputs))
    finally:
        tracer.uninstall()
    return tracer


def test_selection_rule_counts_match_the_trace(desk):
    wl, ops = desk
    tracer = traced(wl, ops[0])
    totals = tracer.totals()
    counts = denoise_counts(wl.lf, wl.lh)
    n = ops[0].denoises
    assert totals["pipeline.denoise"][0] == n
    assert totals["coupling.triple_product_rows"][0] == n * counts["row_calls"]
    assert totals["filtering.design_block"][0] == n * counts["blocks"]
    sizes = tracer.block_sizes
    flop, byte = gram_cost(sizes[0::2], sizes[1::2])
    assert (flop, byte) == (n * counts["gram_flop"], n * counts["gram_byte"])
    assert sum(tracer.design_kinds.values()) == n * counts["blocks"]
    assert tracer.design_kinds["empty"] == n * counts["empty_blocks"]


def test_self_time_excludes_children(desk):
    wl, ops = desk
    spans = list(traced(wl, ops[0]).spans())
    child = [0.0] * len(spans)
    for name, t0, t1, parent, op, self_t in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    for (name, t0, t1, parent, op, self_t), c in zip(spans, child):
        assert self_t == pytest.approx(t1 - t0 - c, abs=1e-9)


def test_benchmark_json_names_match_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(w.name for w in workloads.WORKLOADS.values()) == sorted(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_fails_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    (bare / "perfbench").mkdir(parents=True)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
