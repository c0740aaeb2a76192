#!/usr/bin/env python3
"""Benchmark of the streaming MMSE denoiser.

    python3 perfbench/run.py --workload desk-sweep --seed 0 --seconds 20 --trace 0

Runs one workload (see ``workloads.py``) in this process for at least
``--seconds`` seconds, checks every op against the materialised chain and
the recorded references, and prints the metrics.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` repeats the same ops with every layer
function wrapped and reports the per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object; the full record, with
the environment and every op, goes to ``perfbench/out/``.  The program is
imported from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

BLAS_THREADS = 1  # at most nproc
HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
REFERENCES = HERE / "references"  # one <workload>.json per workload

END_TO_END = {
    "setup_s": "s",
    "denoises_per_s": "1/s",
    "first_denoise_s": "s",
    "denoise_p50_s": "s",
    "snr_gain_db": "dB",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "coupling.rows_calls": "count/denoise",
    "coupling.rows_s": "s/denoise",
    "coupling.rows_reuse_ratio": "ratio",
    "coupling.block_calls": "count/denoise",
    "coupling.block_s": "s/denoise",
    "coupling.family_misses": "count/denoise",
    "coupling.family_hit_ratio": "ratio",
    "dslsht.forward_calls": "count/denoise",
    "dslsht.forward_self_s": "s/denoise",
    "filtering.design_calls": "count/denoise",
    "filtering.design_self_s": "s/denoise",
    "filtering.gram_flops_computed": "flop/denoise",
    "filtering.gram_bytes_computed": "B/denoise",
    "filtering.blocks_empty": "count/denoise",
    "filtering.blocks_truncated": "count/denoise",
    "filtering.blocks_solved": "count/denoise",
    "estimator.accumulate_calls": "count/denoise",
    "estimator.accumulate_self_s": "s/denoise",
    "pipeline.denoise_calls": "count/denoise",
    "pipeline.denoise_s": "s/denoise",
    "pipeline.denoise_self_s": "s/denoise",
    "pipeline.sweep_self_s": "s/denoise",
    "slepian.window_s": "s",
    "io.read_s": "s/denoise",
    "io.read_bytes": "B/denoise",
    "io.write_s": "s/denoise",
    "cli.startup_s": "s",
    "trace.overhead_frac": "ratio",
    "extrap.full_blocks": "count/denoise",
    "extrap.full_row_calls": "count/denoise",
    "extrap.full_gram_flops": "flop/denoise",
    "extrap.full_denoise_s": "s",
}


WORKLOAD_NAMES = ("desk-sweep", "cli-oneshot")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0, help="workload seed (>= 0)")
    ap.add_argument("--seconds", type=float, default=20.0, help="minimum timed-phase length")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    return args


def finite(value: float) -> float:
    """JSON has no NaN or infinity; such a value (only from failed ops) prints as 0."""
    return value if math.isfinite(value) else 0.0


def pin_blas_threads() -> None:
    """Cap BLAS at ``BLAS_THREADS``; must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def run_op(wl, op, trace_base=None) -> None:
    """One op; a raised exception marks it failed instead of ending the run."""
    try:
        wl.run(op, trace_base)
    except Exception:  # the op boundary must keep the loop going
        op.error = traceback.format_exc(limit=3)
        print(f"op {op.index} failed:\n{op.error}", file=sys.stderr)


def timed_setup(wl) -> float:
    """Set the workload up ``setup_repeats`` times; the median wall time."""
    times = []
    for _ in range(wl.setup_repeats):
        t0 = time.perf_counter()
        wl.setup()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def closed_loop(wl, seconds: float):
    """Ops back to back until ``seconds`` have passed and ``min_ops`` are done."""
    from workloads import Op

    ops = []
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds or len(ops) < wl.min_ops:
        k = len(ops)
        op = Op(k, wl.first_inputs if k == 0 else wl.op_inputs(k))
        run_op(wl, op)
        ops.append(op)
    return ops, time.perf_counter() - t0


def traced_pass(wl, untraced_ops):
    """Repeat the untraced ops (same inputs) with every layer function wrapped."""
    from spans import Tracer, clear_family_cache, family_cache_info
    from workloads import Op

    ops = [Op(o.index, o.inputs) for o in untraced_ops]
    chunks, startups, family = [], [], None
    if wl.in_process:
        tracer = Tracer()
        clear_family_cache()
        tracer.install()
        try:
            tracer.op_id = -1
            fam0 = family_cache_info()
            wl.setup()
            t0 = time.perf_counter()
            for op in ops:
                tracer.op_id = op.index
                run_op(wl, op)
            wall = time.perf_counter() - t0
            fam1 = family_cache_info()
        finally:
            tracer.uninstall()
        chunks.append(tracer)
        if fam0 is not None:
            family = [fam1[0] - fam0[0], fam1[1] - fam0[1]]
        return ops, wall, chunks, family, startups

    base = lambda tag: str(wl.workdir / f"trace-{tag}")  # noqa: E731
    wl.setup(trace_base=base("setup"))
    t0 = time.perf_counter()
    for op in ops:
        run_op(wl, op, base(op.index))
    wall = time.perf_counter() - t0
    chunks.append(Tracer.load(base("setup"), -1)[0])
    for op in ops:
        if op.error:
            continue
        tracer, meta = Tracer.load(base(op.index), op.index)
        chunks.append(tracer)
        startups.append(meta["main_start"] - op.launch)
        if meta["family"] is not None:
            family = [a + b for a, b in zip(family or [0, 0], meta["family"])]
    return ops, wall, chunks, family, startups


def load_references(workload: str, seed: int) -> list:
    path = REFERENCES / f"{workload}.json"
    if not path.exists():
        return []
    with open(path) as fh:
        return json.load(fh).get(str(seed), [])


def check_ops(wl, ops, refs) -> None:
    """Mark failed denoises: errors, or a mismatch beyond ``TOLERANCE``.

    An op whose seed and index have a recorded reference is compared with it.
    Any other op is compared with the materialised chain, which costs about
    as much as the op; only the last ``wl.chain_checks`` of them are, so a
    faster program that fits more ops into the timed phase does not
    lengthen the run.
    """
    from workloads import TOLERANCE, rel_err

    for op in [op for op in ops if op.index >= len(refs)][-wl.chain_checks:]:
        if op.error is None:
            try:
                wl.check(op)
            except Exception:  # a crash in the check fails the op, not the run
                op.error = traceback.format_exc(limit=3)
    for op in ops:
        if op.error is None and op.index < len(refs):
            op.ref_rel_err = rel_err(wl.reference_values(op), refs[op.index])
        ok = op.error is None and all(
            err is None or err <= TOLERANCE for err in (op.max_rel_err, op.ref_rel_err)
        )
        op.failed = 0 if ok else op.denoises


def same_outputs(ops, again) -> None:
    """A traced op must give bit-identical outputs to its untraced twin."""
    for op, twin in zip(ops, again):
        equal = (
            twin.error is None
            and twin.snr_out == op.snr_out
            and all((a == b).all() for a, b in zip(twin.estimates, op.estimates))
        )
        twin.max_rel_err = op.max_rel_err if equal else math.inf
        twin.ref_rel_err = op.ref_rel_err
        twin.failed = op.failed if equal else twin.denoises


def end_to_end(wl, ops, wall, setup_s, rss_kb) -> dict:
    import numpy as np

    per_denoise = [op.latency / op.denoises for op in ops]
    cold = per_denoise[:1] if wl.in_process else per_denoise  # ops that start cold
    gains = [o - i for op in ops for i, o in zip(op.snr_in, op.snr_out)]
    return {
        "setup_s": setup_s,
        "denoises_per_s": sum(op.denoises for op in ops) / wall,
        "first_denoise_s": statistics.median(cold),
        "denoise_p50_s": statistics.median(per_denoise),
        "snr_gain_db": float(np.mean(gains)) if gains else math.nan,
        "peak_rss_mb": rss_kb / 1024.0,
    }


def per_layer(wl, chunks, family, startups, denoises, traced_wall, untraced_wall):
    """Per-layer metrics from the spans, per denoise; names with no source are absent."""
    from scale import FULL, denoise_counts, gram_cost

    installed = set().union(*(tr.installed for tr in chunks))

    def merged(setup):
        out: dict[str, list] = {}
        for tr in chunks:
            for name, (n, dur, self_t) in tr.totals(setup).items():
                row = out.setdefault(name, [0, 0.0, 0.0])
                row[0] += n
                row[1] += dur
                row[2] += self_t
        return out

    totals, setup_totals = merged(False), merged(True)
    sizes = [n for tr in chunks for n in tr.block_sizes[0::2]]
    cols = [c for tr in chunks for c in tr.block_sizes[1::2]]
    kinds = {k: sum(tr.design_kinds.get(k, 0) for tr in chunks) for k in ("empty", "truncated", "solved")}

    m, absent = {}, []

    def span(metric, field, *fns):
        """Calls, inclusive or self seconds of ``fns``, per denoise; absent without ``fns[0]``."""
        if fns[0] not in installed:
            absent.append(metric)
            return
        column = {"calls": 0, "s": 1, "self": 2}[field]
        m[metric] = sum(totals.get(fn, [0, 0.0, 0.0])[column] for fn in fns) / denoises

    rows = "coupling.triple_product_rows"
    span("coupling.rows_calls", "calls", rows)
    span("coupling.rows_s", "s", rows)
    if rows in installed and totals.get(rows, [0])[0]:
        m["coupling.rows_reuse_ratio"] = sum(tr.distinct_rows() for tr in chunks) / totals[rows][0]
    else:
        absent.append("coupling.rows_reuse_ratio")
    span("coupling.block_calls", "calls", "coupling.triple_product_block")
    span("coupling.block_s", "s", "coupling.triple_product_block")
    if family is not None and sum(family):
        m["coupling.family_misses"] = family[1] / denoises
        m["coupling.family_hit_ratio"] = family[0] / sum(family)
    else:
        absent += ["coupling.family_misses", "coupling.family_hit_ratio"]
    span("dslsht.forward_calls", "calls", "dslsht.forward_component")
    span("dslsht.forward_self_s", "self", "dslsht.forward_component")
    span("filtering.design_calls", "calls", "filtering.design_block")
    span("filtering.design_self_s", "self", "filtering.design_block")
    if "coupling.triple_product_block" in installed:
        flop, byte = gram_cost(sizes, cols) if sizes else (0.0, 0.0)
        m["filtering.gram_flops_computed"] = flop / denoises
        m["filtering.gram_bytes_computed"] = byte / denoises
    else:
        absent += ["filtering.gram_flops_computed", "filtering.gram_bytes_computed"]
    if "filtering.design_block" in installed and not sum(tr.design_kinds.get("unknown", 0) for tr in chunks):
        for kind, n in kinds.items():
            m[f"filtering.blocks_{kind}"] = n / denoises
    else:
        absent += [f"filtering.blocks_{kind}" for kind in kinds]
    span("estimator.accumulate_calls", "calls", "estimator.accumulate_component")
    span("estimator.accumulate_self_s", "self", "estimator.accumulate_component")
    span("pipeline.denoise_calls", "calls", "pipeline.denoise")
    span("pipeline.denoise_s", "s", "pipeline.denoise")
    span("pipeline.denoise_self_s", "self", "pipeline.denoise", "pipeline.denoise_with_diagnostics")
    if totals.get("pipeline.benchmark", [0])[0]:
        span("pipeline.sweep_self_s", "self", "pipeline.benchmark")
    else:
        absent.append("pipeline.sweep_self_s")  # no sweep on this workload
    win = setup_totals.get("slepian.slepian_window", [0, 0.0])
    if win[0]:
        m["slepian.window_s"] = win[1] / win[0]
    else:
        absent.append("slepian.window_s")
    if wl.in_process:
        absent += ["io.read_s", "io.read_bytes", "io.write_s", "cli.startup_s"]  # no files, no process
    else:
        span("io.read_s", "s", "io.read_coeffs", "io.read_covariance")
        if "io.read_s" not in absent:
            m["io.read_bytes"] = sum(tr.read_bytes for tr in chunks) / denoises
        else:
            absent.append("io.read_bytes")
        span("io.write_s", "s", "io.write_coeffs")
        if startups:
            m["cli.startup_s"] = statistics.median(startups)
        else:
            absent.append("cli.startup_s")
    overhead = traced_wall / untraced_wall - 1.0
    m["trace.overhead_frac"] = overhead

    # Informational extrapolation to the full preset: per-unit self times
    # measured here, scaled by the selection-rule counts there, with the
    # tracing overhead taken out.  Not a gate.
    here, full = denoise_counts(wl.lf, wl.lh), denoise_counts(*FULL)
    m["extrap.full_blocks"] = float(full["blocks"])
    m["extrap.full_row_calls"] = float(full["row_calls"])
    m["extrap.full_gram_flops"] = full["gram_flop"]
    self_of = lambda fn: totals.get(fn, [0, 0.0, 0.0])[2] / denoises  # noqa: E731
    per_row = sum(self_of(f) for f in (rows, "dslsht.forward_component", "estimator.accumulate_component"))
    per_block = sum(self_of(f) for f in ("coupling.triple_product_block", "pipeline.denoise",
                                         "pipeline.denoise_with_diagnostics"))
    m["extrap.full_denoise_s"] = (
        per_row * full["row_calls"] / here["row_calls"]
        + per_block * full["blocks"] / here["blocks"]
        + self_of("filtering.design_block") * full["gram_flop"] / here["gram_flop"]
    ) / (1.0 + overhead)
    return m, absent


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "so3filter" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'so3filter'})", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import TOLERANCE, WORKLOADS

    env = environment()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    wl = WORKLOADS[args.workload](args.seed, workdir, SRC)
    try:
        setup_s = timed_setup(wl)
        ops, wall = closed_loop(wl, args.seconds)
        who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
        rss_kb = resource.getrusage(who).ru_maxrss
        denoises = sum(op.denoises for op in ops)
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "environment": env}
        if args.trace:
            again, traced_wall, chunks, family, startups = traced_pass(wl, ops)
            metrics, absent = per_layer(wl, chunks, family, startups, denoises, traced_wall, wall)
            units = PER_LAYER
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
            from spans import write_spans

            write_spans(spans_path, chunks, origin=min((tr.start[0] for tr in chunks if tr.start), default=0.0))
            record.update(absent=absent, spans=str(spans_path.relative_to(HERE.parent)),
                          untraced_wall_s=wall, traced_wall_s=traced_wall)
        else:
            metrics, absent = end_to_end(wl, ops, wall, setup_s, rss_kb), []
            units = END_TO_END
            again = []
        check_ops(wl, ops, load_references(args.workload, args.seed))
        same_outputs(ops, again)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checked = ops + again
    attempted = sum(op.denoises for op in checked)
    failed = sum(op.failed for op in checked)
    worst = max((op.max_rel_err for op in checked if op.max_rel_err is not None), default=math.nan)
    worst_ref = max((op.ref_rel_err for op in checked if op.ref_rel_err is not None), default=None)
    ref_ops = sum(op.ref_rel_err is not None for op in ops)
    chain_ops = sum(op.max_rel_err is not None for op in ops)
    unchecked = len(ops) - ref_ops - chain_ops
    record.update(
        ops=[{"index": op.index, "denoises": op.denoises, "latency_s": op.latency,
              "snr_in_db": op.snr_in, "snr_out_db": op.snr_out, "max_rel_err": op.max_rel_err,
              "ref_rel_err": op.ref_rel_err, "failed": op.failed, "error": op.error} for op in ops],
        metrics=metrics, units=units, worst_max_rel_err=worst, worst_ref_rel_err=worst_ref,
        tolerance=TOLERANCE, timed_wall_s=wall, unchecked_ops=unchecked,
        attempted=attempted, failed=failed,
    )
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)

    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} ops, {denoises} denoises "
          f"in {wall:.3f} s (closed loop, 1 client)")
    print(f"check: {chain_ops} ops against the materialised chain, worst max_rel_err {worst:.3e}; "
          f"{ref_ops} ops against recorded references, worst "
          f"{'n/a' if worst_ref is None else f'{worst_ref:.3e}'}; {unchecked} ops unchecked; "
          f"tolerance {TOLERANCE:g}; {failed} of {attempted} denoises failed")
    for name, unit in units.items():
        if name in metrics:
            print(f"  {name} = {metrics[name]:.6g} {unit}")
        else:
            print(f"  {name} absent")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": finite(metrics.get(name, 0.0)), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
