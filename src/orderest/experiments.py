"""Experiment specs, the campaign runner, and the invariant suite.

A spec is a line-oriented text file with three sections::

    [model]
    family = VR
    sigma = 1.0
    m_lo = -2.0
    m_hi = 2.0
    theta.coeffs = 1.0 0.5

    [schedule]
    spec = power:0.4 D=dim

    [run]
    mode = consistency
    estimator = global
    n_grid = 500 1000 2000
    trials = 200
    seed = 20240801
    k_max = 4
    output_dir = out

Unknown keys are errors (no silent defaults for misspellings); duplicates
are errors.  Specs round-trip losslessly through to_text()/parse_spec().

run() writes a results CSV (and a fit CSV where a rate is fitted) plus a
manifest JSON per output file.  CSVs are byte-identical across reruns of the
same spec; wall-clock timestamps live only in the manifest.  The manifest
embeds the full spec text and its git-style blob hash, which is everything
needed to re-run the experiment.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .criterion import PenaltySchedule, parse_schedule, validate_schedule
from .deviations import (
    ErrorProbEstimate, FitError, fit_exponent, fit_moderate_rate,
    is_underestimation_prob, mc_error_probs, peeling_assert,
)
from .entropy import kl_divergence, project_entropy, stein_bound
from .fitting import fit_lm_em, profile
from .models import (
    Family, ModelConfig, Theta, UsageError, config_from_kv, config_to_kv,
    derive_seed, fmt, random_theta, rng_for, simulate, theta_from_kv, theta_to_kv,
    true_order, validate_theta,
)

MODES = ("consistency", "under_exponent", "over_rate", "entropy_table", "invariants")

_MODEL_KEYS = {"family", "sigma", "m_lo", "m_hi", "ac_depth_max"}
_RUN_KEYS = {"mode", "estimator", "n_grid", "trials", "seed", "k_max", "output_dir"}


@dataclass(frozen=True)
class ExperimentSpec:
    config: ModelConfig
    theta_star: Theta
    schedule_spec: str
    estimator: str = "global"
    n_grid: tuple[int, ...] = (1000,)
    trials: int = 100
    seed: int = 0
    output_dir: str = "out"
    mode: str = "consistency"
    k_max: int = 4

    def __post_init__(self):
        if self.mode not in MODES:
            raise UsageError(f"unknown mode {self.mode!r}")
        if self.estimator not in ("local", "global"):
            raise UsageError(f"unknown estimator {self.estimator!r}")
        grid = tuple(int(n) for n in self.n_grid)
        if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
            raise UsageError("n_grid must be nonempty and strictly increasing")
        object.__setattr__(self, "n_grid", grid)
        if self.mode in ("consistency", "under_exponent", "over_rate") and self.trials < 1:
            raise UsageError(f"mode={self.mode} needs trials >= 1")
        if self.k_max < 1:
            raise UsageError("k_max must be >= 1")

    def schedule(self) -> PenaltySchedule:
        # the local scan needs crit at K_scan_max + 1 = k_max + 1
        return parse_schedule(self.schedule_spec, self.config.family, self.k_max + 1)

    def to_text(self) -> str:
        out = ["[model]", config_to_kv(self.config).rstrip()]
        out += ["theta." + line for line in theta_to_kv(self.theta_star).rstrip().splitlines()]
        out += ["", "[schedule]", f"spec = {self.schedule_spec}", "", "[run]"]
        out += [f"mode = {self.mode}",
                f"estimator = {self.estimator}",
                f"n_grid = {' '.join(str(n) for n in self.n_grid)}",
                f"trials = {self.trials}",
                f"seed = {self.seed}",
                f"k_max = {self.k_max}",
                f"output_dir = {self.output_dir}"]
        return "\n".join(out) + "\n"


def parse_spec(text: str) -> ExperimentSpec:
    """Parse the sectioned key = value format; unknown keys raise."""
    sections: dict[str, dict[str, str]] = {}
    current: dict[str, str] | None = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name in sections:
                raise UsageError(f"duplicate section [{name}]")
            if name not in ("model", "schedule", "run"):
                raise UsageError(f"unknown section [{name}]")
            current = sections.setdefault(name, {})
            continue
        if current is None:
            raise UsageError(f"key outside any section: {raw!r}")
        if "=" not in line:
            raise UsageError(f"not a key = value line: {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key in current:
            raise UsageError(f"duplicate key {key!r}")
        current[key] = val
    for required in ("model", "schedule", "run"):
        if required not in sections:
            raise UsageError(f"missing section [{required}]")

    model = dict(sections["model"])
    theta_lines = []
    for key in list(model):
        if key == "theta.kind" or key.startswith("theta."):
            theta_lines.append(f"{key[len('theta.'):]} = {model.pop(key)}")
    unknown = set(model) - _MODEL_KEYS
    if unknown:
        raise UsageError(f"unknown [model] keys: {sorted(unknown)}")
    config = config_from_kv("\n".join(f"{k} = {v}" for k, v in model.items()))
    if not theta_lines:
        raise UsageError("missing theta.* keys in [model]")
    theta = theta_from_kv("\n".join(theta_lines))

    sched = dict(sections["schedule"])
    if set(sched) != {"spec"}:
        raise UsageError(f"[schedule] takes exactly the key 'spec'; got {sorted(sched)}")

    run_kv = dict(sections["run"])
    unknown = set(run_kv) - _RUN_KEYS
    if unknown:
        raise UsageError(f"unknown [run] keys: {sorted(unknown)}")
    try:
        spec = ExperimentSpec(
            config=config,
            theta_star=theta,
            schedule_spec=sched["spec"],
            estimator=run_kv.get("estimator", "global"),
            n_grid=tuple(int(v) for v in run_kv.get("n_grid", "1000").split()),
            trials=int(run_kv.get("trials", "100")),
            seed=int(run_kv.get("seed", "0")),
            output_dir=run_kv.get("output_dir", "out"),
            mode=run_kv.get("mode", "consistency"),
            k_max=int(run_kv.get("k_max", "4")),
        )
    except ValueError as exc:
        if isinstance(exc, UsageError):
            raise
        raise UsageError(f"bad [run] value: {exc}") from exc
    # fail at parse time, not mid-campaign: theta must be admissible for the
    # config and the schedule string must build
    validate_theta(config, theta)
    spec.schedule()
    return spec


# ---------------------------------------------------------------------------
# Manifests and CSV plumbing
# ---------------------------------------------------------------------------

def git_blob_sha1(data: bytes) -> str:
    return hashlib.sha1(b"blob %d\0" % len(data) + data).hexdigest()


def write_artifact(path: Path, content: str, spec_text: str, command: str) -> None:
    """Write a CSV plus its manifest; only the manifest carries a timestamp."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content, newline="\n")
    manifest = {
        "artifact": path.name,
        "spec_text": spec_text,
        "spec_hash": git_blob_sha1(spec_text.encode()),
        "command": command,
        "package": f"orderest {__version__}",
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    Path(str(path) + ".manifest.json").write_text(
        json.dumps(manifest, indent=2) + "\n", newline="\n")


RESULTS_HEADER = "n,trials,p_under,p_over,p_correct,ci_lo,ci_hi,method,ess"


def _results_csv(rows: list[ErrorProbEstimate], ci_of: str) -> str:
    """ci columns carry the under CI in under_exponent mode, the over CI otherwise."""
    buf = io.StringIO()
    buf.write(RESULTS_HEADER + "\n")
    for r in rows:
        ci = r.ci_under if ci_of == "under" else r.ci_over
        buf.write(f"{r.n},{r.trials},{fmt(r.p_under)},{fmt(r.p_over)},{fmt(r.p_correct)},"
                  f"{fmt(ci[0])},{fmt(ci[1])},{r.method},{fmt(r.ess)}\n")
    return buf.getvalue()


def _fit_csv(fit) -> str:
    buf = io.StringIO()
    buf.write("x,neg_log_p\n")
    for x, y in fit.points:
        buf.write(f"{fmt(x)},{fmt(y)}\n")
    return buf.getvalue()


def _warn_schedule(spec: ExperimentSpec, regime: str) -> None:
    report = validate_schedule(spec.schedule(), regime,
                               n_grid=[10, 10**3, 10**4, 10**5, 10**6],
                               k_grid=list(range(1, spec.k_max + 1)))
    if not report.passed:
        failing = [c.name for c in report.checks if not c.passed]
        print(f"warning: schedule {spec.schedule_spec!r} fails {regime} checks: "
              f"{', '.join(failing)} (finite-grid diagnostic; continuing)", file=sys.stderr)


# ---------------------------------------------------------------------------
# Invariant suite
# ---------------------------------------------------------------------------

def _configs_for_suite() -> list[tuple[ModelConfig, Theta]]:
    from .models import Leaf, Split, ThetaAC, ThetaLM, ThetaVR
    return [
        (ModelConfig(Family.VR, sigma=1.0), ThetaVR((1.0, 0.5))),
        (ModelConfig(Family.LM, sigma=1.0), ThetaLM((0.5, 0.5), (-2.0, 2.0))),
        (ModelConfig(Family.AC, sigma=1.0, ac_depth_max=2),
         ThetaAC(Split(1, 0.5, Leaf(0.0), Leaf(1.0)))),
    ]


_FAMILY_TAG = {Family.LM: 0, Family.AC: 1, Family.VR: 2}


def invariant_suite(seed: int = 0) -> list[tuple[str, bool, str]]:
    """Desk-scale run of the KL, EM, profile and peeling property suites."""
    results = []

    worst = 0.0
    worst_same = 0.0
    for config, _ in _configs_for_suite():
        rng = rng_for(seed, 11, _FAMILY_TAG[config.family])
        for _ in range(20):
            a = random_theta(config, 2, rng)
            b = random_theta(config, 2, rng)
            worst = min(worst, kl_divergence(a, b, config).value)
            worst_same = max(worst_same, abs(kl_divergence(a, a, config).value))
    ok = worst >= -1e-8 and worst_same <= 1e-8
    results.append(("kl_nonnegativity", ok,
                    f"min H = {worst:.3g}, max |H(a,a)| = {worst_same:.3g}"))

    ok = True
    detail = ""
    config = ModelConfig(Family.LM, sigma=1.0)
    for i in range(20):
        theta = random_theta(config, 2, rng_for(seed, 12, i))
        sample = simulate(config, theta, 200, derive_seed(seed, 13, i))
        for k in (1, 2, 3):
            res = fit_lm_em(sample, k, config, starts=4, track_paths=True)
            for path in res.loglik_paths:
                steps = np.diff(np.asarray(path))
                if steps.size and steps.min() < -1e-9:
                    ok = False
                    detail = f"EM step {steps.min():.3g} at dataset {i}, K={k}"
    results.append(("em_monotonicity", ok, detail or "all EM paths nondecreasing"))

    ok = True
    detail = ""
    for config, theta in _configs_for_suite():
        for i in range(5):
            sample = simulate(config, theta, 120, derive_seed(seed, 14, i))
            prof = profile(sample, config, 4 if config.family is not Family.AC else 3)
            lls = [prof.loglik(k) for k in range(1, prof.k_top + 1)]
            if any(b < a for a, b in zip(lls, lls[1:])):
                ok = False
                detail = f"profile dip for {config.family.value} dataset {i}"
    results.append(("profile_monotonicity", ok, detail or "profiles nondecreasing in K"))

    ok = True
    detail = ""
    for config, theta in _configs_for_suite():
        k_star = true_order(config, theta)
        for i in range(10):
            n = 40 + 10 * i
            sample = simulate(config, theta, n, derive_seed(seed, 15, i))
            rep = peeling_assert(sample, config, k_star, k_star + 1, theta,
                                 n_probes=50, seed=seed)
            if not (rep.ok_plain and rep.ok_scaled):
                ok = False
                detail = (f"violation for {config.family.value} dataset {i}: "
                          f"right={rep.right_side:.6g} left={rep.left_plain:.6g}/"
                          f"{rep.left_scaled:.6g}")
    results.append(("peeling", ok, detail or "no violations of either inequality"))
    return results


def report_invariants(seed: int) -> int:
    """Run invariant_suite, print one PASS/FAIL line per suite; exit status 1 on failure."""
    failures = []
    for name, ok, detail in invariant_suite(seed):
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        if not ok:
            failures.append(name)
    if failures:
        print(f"invariant suite failed: {', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


def entropy_table(spec: ExperimentSpec, k_top: int) -> str:
    """CSV of both projection directions of theta* onto the classes K = 1..k_top."""
    buf = io.StringIO()
    buf.write("K,direction,value,method,tol\n")
    for k in range(1, k_top + 1):
        p = project_entropy(spec.config, spec.theta_star, k)
        s = stein_bound(spec.config, spec.theta_star, k)
        buf.write(f"{k},target_to_class,{fmt(p.value)},{p.method},{fmt(p.tol)}\n")
        buf.write(f"{k},class_to_target,{fmt(s.value)},{s.method},{fmt(s.tol)}\n")
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

def run(spec: ExperimentSpec, command: str = "orderest campaign") -> int:
    """Dispatch one experiment; returns the process exit status."""
    spec_text = spec.to_text()
    schedule = spec.schedule()
    out_dir = Path(spec.output_dir)
    prefix = spec.mode

    if spec.mode == "consistency":
        _warn_schedule(spec, "thm3")
        rows = [mc_error_probs(spec.config, spec.theta_star, schedule, spec.estimator,
                               n, spec.trials, spec.seed, spec.k_max)
                for n in spec.n_grid]
        write_artifact(out_dir / f"{prefix}_results.csv", _results_csv(rows, "over"),
                       spec_text, command)
        return 0

    if spec.mode == "under_exponent":
        rows = [is_underestimation_prob(spec.config, spec.theta_star, None, schedule,
                                        spec.estimator, n, spec.trials, spec.seed,
                                        spec.k_max)
                for n in spec.n_grid]
        write_artifact(out_dir / f"{prefix}_results.csv", _results_csv(rows, "under"),
                       spec_text, command)
        try:
            fit = fit_exponent([(r.n, r.p_under) for r in rows])
            write_artifact(out_dir / f"{prefix}_fit.csv", _fit_csv(fit), spec_text, command)
            print(f"under_exponent: slope={fit.slope:.6g} r2={fit.r2:.4f} "
                  f"excluded={fit.n_excluded}")
        except FitError as exc:
            print(f"warning: exponent fit skipped: {exc}", file=sys.stderr)
        return 0

    if spec.mode == "over_rate":
        _warn_schedule(spec, "thm10")
        rows = [mc_error_probs(spec.config, spec.theta_star, schedule, spec.estimator,
                               n, spec.trials, spec.seed, spec.k_max)
                for n in spec.n_grid]
        write_artifact(out_dir / f"{prefix}_results.csv", _results_csv(rows, "over"),
                       spec_text, command)
        try:
            fit = fit_moderate_rate([(r.n, r.p_over) for r in rows], schedule)
            write_artifact(out_dir / f"{prefix}_fit.csv", _fit_csv(fit), spec_text, command)
            msg = f"over_rate: slope={fit.slope:.6g} r2={fit.r2:.4f} on {fit.x_axis}"
            try:
                fit_n = fit_exponent([(r.n, r.p_over) for r in rows])
                msg += f"; n-axis r2={fit_n.r2:.4f} (diagnostic)"
            except FitError:
                pass
            print(msg)
        except FitError as exc:
            print(f"warning: moderate-rate fit skipped: {exc}", file=sys.stderr)
        return 0

    if spec.mode == "entropy_table":
        table = entropy_table(spec, spec.k_max)
        write_artifact(out_dir / f"{prefix}_results.csv", table, spec_text, command)
        print(table, end="")
        return 0

    return report_invariants(spec.seed)
