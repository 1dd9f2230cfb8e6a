"""Record the reference CSVs that run.py measures result_drift against.

    python3 perfbench/record_reference.py

Runs each workload's spec once per size and seed in REFERENCE_SEEDS, in a
fresh interpreter the way run.py does, refuses any output that fails the
correctness gate, and writes perfbench/reference/<workload>.json keyed "<size>-seed<seed>".  Only
specs that run.py executes are recorded: a workload with a fixed timed_seed
gets its full size at that seed alone.  Re-record, and say so in CHANGES.md,
only when a change to the program is meant to change its outputs.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import gate
from run import HERE, RUN_LIMIT_S, run_worker
from workloads import SIZES, WORKLOADS

REFERENCE_SEEDS = range(20)


def main() -> int:
    work = HERE / "out" / "record"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    status = 0
    try:
        for name, wl in WORKLOADS.items():
            recorded = {}
            for size in SIZES:
                fixed = size == "full" and wl.timed_seed is not None
                for seed in [wl.timed_seed] if fixed else REFERENCE_SEEDS:
                    rep = run_worker(work, time.monotonic() + RUN_LIMIT_S, wl, seed, size)
                    if "error" in rep or rep.get("rc") != 0:
                        failed, problems = wl.ops(size), [rep.get("error", "nonzero rc")]
                    else:
                        failed, problems, _ = gate.check(wl, size, rep["files"])
                    if failed or problems:
                        print(f"{name} {size} seed {seed}: not recorded: {problems}",
                              file=sys.stderr)
                        status = 1
                        continue
                    recorded[f"{size}-seed{seed}"] = rep["files"]
                    print(f"{name} {size} seed {seed}: recorded", flush=True)
            path = HERE / "reference" / f"{name}.json"
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
