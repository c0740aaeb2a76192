#!/usr/bin/env python3
"""Record the reference outputs that every benchmark op is compared with.

    python3 perfbench/record_references.py --workload desk-sweep --seeds 0-40

Runs the first ``reference_ops`` ops of each seed (no timing) and merges what
``Workload.reference_values`` returns into ``perfbench/references/<workload>.json``.
Record from a program version whose estimates are trusted; the benchmark then
fails any later op that moves more than the tolerance away from them.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import OUT, REFERENCES, SRC, WORKLOAD_NAMES, pin_blas_threads


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seeds", required=True, type=seed_list, help="e.g. 0-10")
    args = ap.parse_args(argv)
    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, Op

    recorded = {}
    for seed in args.seeds:
        OUT.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(dir=OUT))
        try:
            wl = WORKLOADS[args.workload](seed, workdir, SRC)
            wl.setup()
            values = []
            for k in range(wl.reference_ops):
                op = Op(k, wl.first_inputs if k == 0 else wl.op_inputs(k))
                wl.run(op)
                values.append(wl.reference_values(op))
            recorded[str(seed)] = values
            print(f"{args.workload} seed {seed}: {len(values)} ops", flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    path = REFERENCES / f"{args.workload}.json"
    REFERENCES.mkdir(exist_ok=True)
    with open(path, "a+") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)  # recordings of other seeds may run at once
        fh.seek(0)
        text = fh.read()
        data = json.loads(text) if text else {}
        data.update(recorded)
        lines = [f" {json.dumps(seed)}: {json.dumps(data[seed])}" for seed in sorted(data, key=int)]
        fh.seek(0)
        fh.truncate()
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
