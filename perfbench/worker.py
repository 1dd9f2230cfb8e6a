"""One benchmark repetition in a fresh interpreter.

    python3 perfbench/worker.py SPEC_FILE [--setup-only | --trace WORKLOAD SPANS_FILE]

Imports orderest from the checkout's src/, parses the spec, then runs
`experiments.run` on it, the path `orderest campaign --spec` takes.  Prints
one JSON line: `ready` (the CLOCK_MONOTONIC reading once parse_spec returned,
so the parent can time set-up from before it spawned this process), `run_s`,
`peak_rss_mb`, library versions and, when traced, the per-layer metrics.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv: list[str]) -> dict:
    sys.path.insert(0, str(SRC))
    import orderest
    from orderest import experiments
    spec = experiments.parse_spec(Path(argv[1]).read_text())
    out = {"ready": time.monotonic()}
    if Path(orderest.__file__).resolve().parent != SRC / "orderest":
        return {"error": f"imported orderest from {orderest.__file__}, not from {SRC}"}
    if argv[2:] == ["--setup-only"]:
        return out

    tracer = None
    if argv[2:3] == ["--trace"]:
        sys.path.insert(0, str(HERE))
        from tracer import Tracer
        from workloads import WORKLOADS
        tracer = Tracer(WORKLOADS[argv[3]].op_roots)
        tracer.install()
    captured = io.StringIO()  # the campaign's own printout
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            start = time.perf_counter()
            out["rc"] = experiments.run(spec, command="orderest campaign")
            out["run_s"] = time.perf_counter() - start
    except Exception:
        out["error"] = traceback.format_exc()
    finally:
        if tracer is not None:
            tracer.uninstall()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import numpy
    import scipy
    out["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                       "scipy": scipy.__version__}
    if tracer is not None:
        out["trace"] = tracer.metrics()
        tracer.write_spans(argv[4])
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv)))
