"""Span tracer that wraps the public layer functions of ``so3filter``.

Every wrapped call records one span: name, start, end, parent span and op
id.  Spans live in flat in-memory arrays and are written out once, at the end
of a run.  A span's self time is its duration minus the durations of its
direct children; because the program is single-threaded and calls nest,
that is exactly the part of the interval no child span covers.

The wrappers are installed from outside the program: every module attribute
that *is* one of the traced functions is replaced, so names imported with
``from .x import f`` are traced too.  Functions that a later version of the
program no longer defines are skipped, and the metrics built from them are
reported as absent.

Run as a script, this file is the traced stand-in for ``so3filter`` in the
``cli-oneshot`` workload: ``python3 spans.py <base> <cli args...>``
installs the wrappers, runs ``so3filter.cli.main`` and writes the spans to
``<base>.spans`` and the counters, with the 3j cache deltas, to
``<base>.json``.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import os
import sys
import time
from array import array

# Layer boundaries: (module, function).  Only functions on a timed user path
# are listed; ``sphere`` and ``so3`` are not on one.
TRACED = (
    ("coupling", "triple_product_rows"),
    ("coupling", "triple_product_block"),
    ("dslsht", "forward_component"),
    ("filtering", "design_block"),
    ("estimator", "accumulate_component"),
    ("pipeline", "benchmark"),
    ("pipeline", "denoise"),
    ("pipeline", "denoise_with_diagnostics"),
    ("slepian", "slepian_window"),
    ("io", "read_coeffs"),
    ("io", "read_covariance"),
    ("io", "write_coeffs"),
    ("cli", "main"),
)
MODULES = sorted({module for module, _ in TRACED})


class Tracer:
    """Collects spans and the few counters that need call arguments or results."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self.op_id = 0
        self._stack: list[list] = []  # [span index, child time]
        self.row_keys: set = set()
        self._distinct_rows: int | None = None  # set when loaded from a dump
        self.read_bytes = 0
        self.block_sizes = array("q")  # (|nn|, 2p+1) pairs of triple_product_block
        self.design_kinds = {"empty": 0, "truncated": 0, "solved": 0, "unknown": 0}
        self.installed: list[str] = []
        self._undo: list[tuple] = []

    def _wrap(self, qual: str, fn):
        nid = self.name_id.setdefault(qual, len(self.names))
        if nid == len(self.names):
            self.names.append(qual)
        clock = time.perf_counter
        stack = self._stack
        hook = {
            "coupling.triple_product_rows": self._on_rows,
            "coupling.triple_product_block": self._on_block,
            "filtering.design_block": self._on_design,
            "io.read_coeffs": self._on_read,
            "io.read_covariance": self._on_read,
        }.get(qual)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.span_name.append(nid)
            self.parent.append(stack[-1][0] if stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            self.self_time.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            self.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self.end[idx] = t1
                self.self_time[idx] = dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def distinct_rows(self) -> int:
        """Distinct ``(p, q, u)`` among the ``triple_product_rows`` calls."""
        if self._distinct_rows is not None:
            return self._distinct_rows
        return len(self.row_keys)

    def _on_rows(self, args, kwargs, result):
        self.row_keys.add(args[:3])

    def _on_block(self, args, kwargs, result):
        p = args[0]
        self.block_sizes.append(len(result[0]))
        self.block_sizes.append(2 * p + 1)

    def _on_design(self, args, kwargs, result):
        try:
            _, rank, _, flagged = result
        except (TypeError, ValueError):
            self.design_kinds["unknown"] += 1
            return
        if rank == 0:
            self.design_kinds["empty"] += 1
        elif flagged:
            self.design_kinds["truncated"] += 1
        else:
            self.design_kinds["solved"] += 1

    def _on_read(self, args, kwargs, result):
        path = args[0] if args else kwargs.get("path")
        self.read_bytes += os.path.getsize(path)

    def install(self) -> None:
        """Replace every reference to a traced function in the package."""
        mods = {}
        for name in MODULES:
            try:
                mods[name] = importlib.import_module(f"so3filter.{name}")
            except ImportError:
                continue
        mods["__init__"] = importlib.import_module("so3filter")
        for modname, fname in TRACED:
            orig = getattr(mods.get(modname), fname, None)
            if orig is None:
                continue
            wrapped = self._wrap(f"{modname}.{fname}", orig)
            for mod in mods.values():
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapped)
                        self._undo.append((mod, attr, orig))
            self.installed.append(f"{modname}.{fname}")

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._undo):
            setattr(mod, attr, orig)
        self._undo.clear()

    def spans(self):
        """Rows ``(name, start, end, parent, op, self_time)``."""
        for i in range(len(self.start)):
            yield (self.names[self.span_name[i]], self.start[i], self.end[i],
                   self.parent[i], self.op[i], self.self_time[i])

    def totals(self, setup: bool = False) -> dict:
        """Per span name: call count, summed duration and summed self time.

        Only spans of the ops (op id >= 0), or only those of the set-up.
        """
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(len(self.start)):
            if (self.op[i] < 0) != setup:
                continue
            row = out[self.names[self.span_name[i]]]
            row[0] += 1
            row[1] += self.end[i] - self.start[i]
            row[2] += self.self_time[i]
        return out

    def dump(self, base: str, **extra) -> None:
        """Write the spans (binary arrays) and counters (JSON) of a traced child."""
        with open(base + ".spans", "wb") as fh:
            for arr in self._arrays():
                arr.tofile(fh)
            self.block_sizes.tofile(fh)
        meta = {
            "names": self.names,
            "count": len(self.start),
            "installed": self.installed,
            "distinct_rows": self.distinct_rows(),
            "read_bytes": self.read_bytes,
            "design_kinds": self.design_kinds,
            "blocks": len(self.block_sizes),
            **extra,
        }
        with open(base + ".json", "w") as fh:
            json.dump(meta, fh)

    @classmethod
    def load(cls, base: str, op_id: int) -> tuple["Tracer", dict]:
        """Read what :meth:`dump` wrote; every span gets op id ``op_id``."""
        with open(base + ".json") as fh:
            meta = json.load(fh)
        tr = cls()
        tr.names = meta["names"]
        tr.installed = meta["installed"]
        tr.read_bytes = meta["read_bytes"]
        tr.design_kinds = meta["design_kinds"]
        tr._distinct_rows = meta["distinct_rows"]
        with open(base + ".spans", "rb") as fh:
            for arr in tr._arrays():
                arr.fromfile(fh, meta["count"])
            tr.block_sizes.fromfile(fh, meta["blocks"])
        tr.op = array("i", [op_id]) * meta["count"]
        return tr, meta

    def _arrays(self):
        return (self.span_name, self.parent, self.op, self.start, self.end,
                self.self_time)


def family_cache_info():
    """``(hits, misses)`` of the 3j family cache, or ``None`` if there is none."""
    try:
        from so3filter import coupling
        info = coupling._family.cache_info()
    except AttributeError:
        return None
    return info.hits, info.misses


def clear_family_cache() -> None:
    from so3filter import coupling
    clear = getattr(getattr(coupling, "_family", None), "cache_clear", None)
    if clear is not None:
        clear()


def write_spans(path, tracers, origin: float) -> None:
    """Write every span as a tab-separated line (gzip), times relative to ``origin``."""
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("name\tstart_s\tend_s\tparent\top\tself_s\n")
        for tr in tracers:
            for name, t0, t1, parent, op, self_t in tr.spans():
                fh.write(f"{name}\t{t0 - origin:.9f}\t{t1 - origin:.9f}\t"
                         f"{parent}\t{op}\t{self_t:.9f}\n")


def _child_main(argv) -> int:
    base, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from so3filter import cli
    main_start = time.perf_counter()
    fam0 = family_cache_info()
    try:
        return cli.main(cli_args)
    finally:
        fam1 = family_cache_info()
        family = None if fam0 is None else [fam1[0] - fam0[0], fam1[1] - fam0[1]]
        tracer.dump(base, main_start=main_start, family=family)


if __name__ == "__main__":
    sys.exit(_child_main(sys.argv[1:]))
