"""Outside-in tracing of the program's layer boundaries.

The tracer wraps each function in LAYERS at every module namespace that binds
it, because callers import by name (`deviations` binds `simulate` and
`profile`; `fitting.profile` reaches `log_likelihood` through its own
globals), so patching the defining module alone would miss most calls.  It
records one span per call, (name, start, end, parent span, op id), in memory,
and reads the counts it reports from the objects the functions return, never
from program internals.  uninstall() puts every original back.
"""

from __future__ import annotations

import functools
import gzip
import math
import sys
import time
from collections import Counter, defaultdict

# Wrapped layer-boundary functions, "<module>.<function>" in orderest.
LAYERS = (
    "models.simulate", "models.log_likelihood",
    "fitting.profile", "fitting.fit_lm_em", "fitting.fit_ac",
    "guillotine.fit_tree_empirical",
    "criterion.crit_values",
    "entropy.project_entropy", "entropy.stein_bound", "entropy.kl_mixture_quadrature",
    "deviations.mc_error_probs", "deviations.order_trials",
    "deviations.is_underestimation_prob",
    "experiments.run", "experiments.write_artifact",
)

# Their self time is the campaign loop: trial iteration, seed derivation,
# tallies and importance weights.
CAMPAIGN_LOOP = ("deviations.mc_error_probs", "deviations.order_trials",
                 "deviations.is_underestimation_prob")

# kl_mixture_quadrature returns the achieved panel-doubling difference as tol;
# at or above its target it stopped at max_panels.
KL_TARGET_TOL = 1e-8

EXTRA_UNITS = {
    "fitting.profile.p50_ms": "ms",
    "fitting.profile.p90_ms": "ms",
    "fitting.profile.dip_repairs": "count",
    "fitting.vr.sweeps": "count",
    "fitting.fit_lm_em.iterations": "count",
    "fitting.fit_lm_em.nonconverged": "count",
    "entropy.kl.max_panels_hits": "count",
    "deviations.campaign.self_s": "s",
    "deviations.is.ess_ratio": "ratio",
    "deviations.is.low_ess": "count",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced repetition reports, with its unit."""
    units = {}
    for name in LAYERS:
        units.update({f"{name}.calls": "count", f"{name}.self_s": "s",
                      f"{name}.errors": "count"})
    units.update(EXTRA_UNITS)
    return units


def _nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Tracer:
    def __init__(self, op_roots: tuple[str, ...]):
        self.op_roots = frozenset(op_roots)
        self.spans: list = []  # (name, start, end, parent index, op id)
        self.stack: list[list] = []  # [span index, child time] per open call
        self.op = 0
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.profile_ms: list[float] = []
        self.ess_ratio = math.inf
        self._patched: list = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "orderest" or name.startswith("orderest.")]
        for qual in LAYERS:
            module, fn_name = qual.split(".")
            original = getattr(sys.modules[f"orderest.{module}"], fn_name)
            wrapper = self._wrap(qual, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)
        starts_op = name in self.op_roots
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if starts_op:
                self.op += 1
            op = self.op
            index = len(spans)
            parent = stack[-1][0] if stack else -1
            frame = [index, 0.0]
            spans.append(None)
            stack.append(frame)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, op)
                self.calls[name] += 1
                self.self_s[name] += (end - start) - frame[1]
                if stack:
                    stack[-1][1] += end - start
            if observe is not None:
                observe(self, out, end - start)
            return out

        return wrapper

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in LAYERS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
            out[f"{name}.errors"] = self.errors[name]
        ms = self.profile_ms
        out["fitting.profile.p50_ms"] = _nearest_rank(ms, 0.5) if ms else 0.0
        out["fitting.profile.p90_ms"] = _nearest_rank(ms, 0.9) if ms else 0.0
        for key in ("fitting.profile.dip_repairs", "fitting.vr.sweeps",
                    "fitting.fit_lm_em.iterations", "fitting.fit_lm_em.nonconverged",
                    "entropy.kl.max_panels_hits", "deviations.is.low_ess"):
            out[key] = self.counts[key]
        out["deviations.campaign.self_s"] = sum(self.self_s[n] for n in CAMPAIGN_LOOP)
        out["deviations.is.ess_ratio"] = 0.0 if math.isinf(self.ess_ratio) else self.ess_ratio
        return out

    def write_spans(self, path) -> None:
        """Spans as CSV, times in seconds from the first span's start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1, newline="\n") as fh:
            fh.write("span,name,start_s,end_s,parent,op\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i},{name},{start - t0:.9f},{end - t0:.9f},{parent},{op}\n")


def _observe_profile(tracer: Tracer, curve, seconds: float) -> None:
    tracer.profile_ms.append(seconds * 1e3)
    tracer.counts["fitting.profile.dip_repairs"] += sum(
        e.starts_used == 0 for e in curve.entries)
    if curve.family.value == "VR":
        tracer.counts["fitting.vr.sweeps"] += sum(e.iterations for e in curve.entries)


def _observe_em(tracer: Tracer, fit, seconds: float) -> None:
    tracer.counts["fitting.fit_lm_em.iterations"] += fit.iterations
    tracer.counts["fitting.fit_lm_em.nonconverged"] += not fit.converged


def _observe_quadrature(tracer: Tracer, value, seconds: float) -> None:
    tracer.counts["entropy.kl.max_panels_hits"] += value.tol >= KL_TARGET_TOL


def _observe_is(tracer: Tracer, est, seconds: float) -> None:
    tracer.ess_ratio = min(tracer.ess_ratio, est.ess / est.trials)
    tracer.counts["deviations.is.low_ess"] += bool(est.low_ess)


_OBSERVERS = {
    "fitting.profile": _observe_profile,
    "fitting.fit_lm_em": _observe_em,
    "entropy.kl_mixture_quadrature": _observe_quadrature,
    "deviations.is_underestimation_prob": _observe_is,
}
