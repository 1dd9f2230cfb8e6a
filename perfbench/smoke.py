"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at the tiny size, untraced and traced, and checks that
each prints every metric BENCHMARK.json names, by name and with its unit,
plus the gate figures failed_share and result_drift; that the gate passes,
which includes traced counts repeating and every layer a workload must reach
recording calls; and that the benchmark refuses to run without the program's
source.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

from run import E2E_UNITS, GATE_UNITS, HERE, ROOT, TRACE_UNITS
from tracer import LAYERS
from workloads import DEFAULT_SEED, WORKLOADS

METRIC_LINE = re.compile(r"^metric (\S+) = (\S+) (\S+)$")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def expect(ok: bool, what: str) -> None:
    if not ok:
        print(f"FAIL: {what}")
        sys.exit(1)


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect({w["name"]: w["why"] for w in declared["workloads"]}
           == {w.name: w.why for w in WORKLOADS.values()},
           "BENCHMARK.json workloads match workloads.py")
    lists = {0: declared["end_to_end"], 1: declared["per_layer"]}
    expect({m["name"]: m["unit"] for m in lists[0]} == E2E_UNITS, "end_to_end metrics")
    expect({m["name"]: m["unit"] for m in lists[1]} == TRACE_UNITS, "per_layer metrics")
    expect(set(LAYERS) == {layer for w in WORKLOADS.values() for layer in w.layers},
           "every wrapped function is on some workload's path")

    for name in WORKLOADS:
        for trace in (0, 1):
            proc = bench("--workload", name, "--seed", str(DEFAULT_SEED), "--seconds", "1",
                         "--trace", str(trace), "--size", "tiny")
            label = f"{name} --trace {trace}"
            expect(proc.returncode == 0, f"{label} exits 0; stderr: {proc.stderr[-1000:]}")
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{label} result keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label} passes the gate: {lines[-1][:300]}")
            printed = {m.group(1): m.group(3) for m in map(METRIC_LINE.match, lines) if m}
            for metric in lists[trace]:
                got = result["metrics"].get(metric["name"], {})
                expect(got.get("unit") == metric["unit"] and isinstance(got.get("value"), float | int),
                       f"{label} reports {metric['name']} in {metric['unit']}")
                expect(printed.get(metric["name"]) == metric["unit"],
                       f"{label} prints {metric['name']} with its unit")
            for metric, unit in GATE_UNITS.items():
                expect(printed.get(metric) == unit, f"{label} prints {metric} with its unit")
            samples = json.loads(next(l for l in lines if l.startswith("samples "))[8:])
            if trace:
                expect(samples["traced_repetitions"] >= 2,
                       f"{label} ran two traced repetitions, so counts were compared")
            print(f"ok: {label}")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench("--workload", "vr_is", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=bare)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "without src/ the benchmark exits non-zero and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok: refuses to run without the program's source")
    return 0


if __name__ == "__main__":
    sys.exit(main())
