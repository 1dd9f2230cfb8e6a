"""Campaign benchmark for orderest.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size tiny]

Runs one workload's frozen campaign spec (workloads.py) through
experiments.parse_spec -> experiments.run, the path `orderest campaign --spec`
takes, in one process with no worker pool.  Every repetition runs in a fresh
interpreter, so each pays import and first-call costs as a CLI user does and
no process-wide cache carries over.  Repetitions of the same spec repeat until
--seconds have passed, at least twice (four times when traced).

--trace 0 reports the end-to-end metrics: the median ops_per_s and peak_rss_mb
over the repetitions, and the median setup_s over at least five fresh
interpreters.  --trace 1 alternates untraced and traced repetitions and
reports the per-layer metrics of tracer.py, medians over the traced ones, plus
trace.overhead.  Both check the campaign's CSVs (gate.py): invariants for any
seed, byte-identical CSVs across repetitions of one spec, and drift from the
CSVs recorded in reference/ where one exists for the spec.  A summary with the
environment goes to perfbench/out/, the spans of the last traced repetition
to perfbench/out/spans-*.csv.gz.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import tracer  # noqa: E402
from workloads import SIZES, WORKLOADS, Workload  # noqa: E402

E2E_UNITS = {"ops_per_s": "ops/s", "setup_s": "s", "peak_rss_mb": "MB"}
# Gate figures, printed by name but kept out of the JSON metrics: both read
# exactly 0 on a correct program, so they feed `failed` and `correct` instead.
GATE_UNITS = {"failed_share": "fraction", "result_drift": "abs"}
TRACE_UNITS = {**tracer.metric_units(), "trace.overhead": "ratio"}
TIME_UNITS = ("s", "ms")

MIN_SETUP_SAMPLES = 5
RUN_LIMIT_S = 170  # a run must end within 180 s, whatever its repetitions do

_REP_IDS = itertools.count()


def run_worker(work: Path, deadline: float, wl: Workload, seed: int, size: str,
               *extra: str) -> dict:
    """One repetition in a fresh interpreter; the worker's JSON plus setup_s and CSVs."""
    rep_dir = work / f"rep{next(_REP_IDS)}"
    rep_dir.mkdir()
    spec_path = rep_dir / "spec.txt"
    spec_path.write_text(wl.spec_text(seed, size, str(rep_dir / "out")))
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path), *extra],
                              capture_output=True, text=True, cwd=ROOT,
                              timeout=max(1.0, deadline - spawned))
        lines = proc.stdout.splitlines()
        res = json.loads(lines[-1]) if lines else {"error": proc.stderr[-2000:]}
    except subprocess.TimeoutExpired:
        res = {"error": f"repetition stopped at the {RUN_LIMIT_S} s run limit"}
    except ValueError:
        res = {"error": f"unreadable worker output: {proc.stdout[-500:]!r}"}
    if "ready" in res:
        res["setup_s"] = res["ready"] - spawned
    res["files"] = {p.name: p.read_text() for p in sorted((rep_dir / "out").glob("*.csv"))}
    res.update(seed=seed, size=size)
    return res


def repeat(work: Path, deadline: float, wl: Workload, args) -> list[dict]:
    """Repetitions of the timed spec until --seconds pass, at least two.

    Under --trace 1 every second one is traced, and at least two of each kind
    run, so traced counts can be compared between runs of one spec.
    """
    min_reps = 4 if args.trace else 2
    seed = args.seed if wl.timed_seed is None else wl.timed_seed
    spans = HERE / "out" / f"spans-{wl.name}-seed{args.seed}.csv.gz"
    reps: list[dict] = []
    start = time.monotonic()
    longest = 0.0
    while True:
        traced = args.trace == 1 and len(reps) % 2 == 1
        t = time.monotonic()
        extra = ("--trace", wl.name, str(spans)) if traced else ()
        reps.append({**run_worker(work, deadline, wl, seed, args.size, *extra),
                     "traced": traced})
        longest = max(longest, time.monotonic() - t)
        if len(reps) >= min_reps and time.monotonic() - start + longest > args.seconds:
            return reps


def check_outputs(wl: Workload, reps: list[dict]) -> tuple[int, int, float | None,
                                                         list[str], list[str]]:
    """(attempted, failed, result_drift, problems, notes) over the repetitions."""
    attempted = failed = 0
    problems: list[str] = []
    notes: list[str] = []
    first_files: dict[str, dict] = {}
    for rep in reps:
        ops = wl.ops(rep["size"])
        attempted += ops
        if "error" in rep or rep.get("rc") != 0:
            failed += ops
            problems.append(f"repetition failed: {rep.get('error', 'rc=%s' % rep.get('rc'))}")
            continue
        bad_ops, found, noted = gate.check(wl, rep["size"], rep["files"])
        failed += bad_ops
        problems += found
        notes += noted
        key = f"{rep['size']}-seed{rep['seed']}"
        if rep["files"] != first_files.setdefault(key, rep["files"]):
            problems.append(f"{key}: CSVs differ between repetitions of one spec")
    ref_path = HERE / "reference" / f"{wl.name}.json"
    references = json.loads(ref_path.read_text()) if ref_path.is_file() else {}
    drifts = []
    for key, files in first_files.items():
        if key in references:
            value, found = gate.drift(files, references[key])
            drifts.append(value)
            problems += [f"{key} drifted from the reference: {p}" for p in found]
    return (attempted, failed, max(drifts) if drifts else None,
            list(dict.fromkeys(problems)), list(dict.fromkeys(notes)))


def ops_per_s(wl: Workload, rep: dict) -> float:
    return wl.ops(rep["size"]) / rep["run_s"]


def trace_metrics(wl: Workload, reps: list[dict]) -> tuple[dict, list[str], list[str]]:
    """(metrics, problems, notes) from the traced and untraced repetitions of one run."""
    traced = [r for r in reps if r["traced"] and "trace" in r]
    plain = [r for r in reps if not r["traced"] and "run_s" in r]
    if not traced or not plain:
        return {}, ["no complete traced and untraced repetition pair"], []
    problems = []
    # times are medians over the traced repetitions; everything else must repeat exactly
    metrics = {k: statistics.median(r["trace"][k] for r in traced) if unit in TIME_UNITS
               else traced[0]["trace"][k] for k, unit in tracer.metric_units().items()}
    if any(r["trace"][k] != metrics[k] for r in traced for k, unit in
           tracer.metric_units().items() if unit not in TIME_UNITS):
        problems.append("counts differ between traced repetitions of one spec")
    problems += [f"{layer} recorded zero calls" for layer in wl.layers
                 if metrics[f"{layer}.calls"] == 0]
    metrics["trace.overhead"] = (statistics.median(ops_per_s(wl, r) for r in traced)
                                 / statistics.median(ops_per_s(wl, r) for r in plain))
    off_path = [layer for layer in tracer.LAYERS if layer not in wl.layers]
    notes = [f"not on {wl.name}'s path, reported as 0: {', '.join(off_path)}",
             f"fitting.profile.p50_ms/p90_ms over {metrics['fitting.profile.calls']:g} "
             f"profile calls; fitting.vr.sweeps counts VR profiles only; "
             f"deviations.is.ess_ratio is 0 where no importance sampling ran"]
    return metrics, problems, notes


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) CPU ticks of the whole machine so far, where the kernel reports them."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7], sum(fields)) if len(fields) > 7 else None


def environment(versions: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    src = sorted((ROOT / "src" / "orderest").glob("*.py"))
    digest = hashlib.sha1()
    for path in src:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(), **versions,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
            "git_commit": _git_commit(), "source_sha1": digest.hexdigest()}


def _git_commit() -> str | None:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=SIZES, default="full")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "orderest" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'orderest'}; run the "
              "benchmark from a checkout of the repository", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    deadline = time.monotonic() + RUN_LIMIT_S
    ticks_before = cpu_ticks()
    work = HERE / "out" / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        reps = repeat(work, deadline, wl, args)
        gate_reps = [] if wl.timed_seed is None else [
            run_worker(work, deadline, wl, args.seed, "tiny")]
        setup = [r["setup_s"] for r in reps + gate_reps if "setup_s" in r]
        while args.trace == 0 and len(setup) < MIN_SETUP_SAMPLES:
            probe = run_worker(work, deadline, wl, args.seed, args.size, "--setup-only")
            if "setup_s" not in probe:
                break
            setup.append(probe["setup_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ticks_after = cpu_ticks()
    attempted, failed, drift, problems, notes = check_outputs(wl, reps + gate_reps)
    timed = [r for r in reps if "run_s" in r and not r["traced"]]
    versions = next((r["versions"] for r in reps if "versions" in r), {})
    gate_metrics = {"failed_share": failed / attempted, "result_drift": drift}
    if drift is None:
        notes.append(f"result_drift not measured: no reference CSVs for {wl.name} "
                     f"at seed {args.seed}")
    if args.trace:
        metrics, trace_problems, trace_notes = trace_metrics(wl, reps)
        problems += trace_problems
        notes += trace_notes
        units = TRACE_UNITS
    elif timed and setup:
        metrics = {"ops_per_s": statistics.median(ops_per_s(wl, r) for r in timed),
                   "setup_s": statistics.median(setup),
                   "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed)}
        units = E2E_UNITS
    else:
        metrics, units = {}, E2E_UNITS
        problems.append("no repetition completed")
    correct = not problems and failed == 0 and set(metrics) == set(units)

    summary = {
        "workload": wl.name, "seed": args.seed, "size": args.size, "trace": args.trace,
        "seconds": args.seconds, "environment": environment(versions),
        # share of CPU time the hypervisor gave to other guests during the run
        "cpu_steal_share": None if not (ticks_before and ticks_after) else
        (ticks_after[0] - ticks_before[0]) / max(1, ticks_after[1] - ticks_before[1]),
        "samples": {"repetitions": len(timed),
                    "traced_repetitions": sum(r["traced"] for r in reps),
                    "gate_repetitions": len(gate_reps),
                    "setup": len(setup), "ops_per_repetition": wl.ops(args.size),
                    "timed_spec_seed": wl.timed_seed if wl.timed_seed is not None else args.seed},
        "ops_per_s_each": [ops_per_s(wl, r) for r in timed], "setup_s_each": setup,
        "metrics": metrics, "gate": gate_metrics, "problems": problems, "notes": notes,
    }
    out_file = HERE / "out" / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(summary, indent=2) + "\n")

    print("run " + json.dumps({k: summary[k] for k in ("workload", "seed", "size", "trace",
                                                        "seconds")}))
    print("env " + json.dumps({**summary["environment"],
                               "cpu_steal_share": summary["cpu_steal_share"]}))
    print("samples " + json.dumps(summary["samples"]))
    for line in problems:
        print(f"gate problem: {line}")
    for line in notes:
        print(f"note: {line}")
    for name, value in gate_metrics.items():
        shown = "n/a" if value is None else repr(value)
        print(f"metric {name} = {shown} {GATE_UNITS[name]}")
    for name, value in metrics.items():
        print(f"metric {name} = {value!r} {units[name]}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
