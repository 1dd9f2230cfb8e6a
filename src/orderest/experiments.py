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

Unknown and duplicate keys are errors; a missing key takes the ModelConfig
or ExperimentSpec default.  Specs round-trip losslessly through to_text()/parse_spec().

run() writes a results CSV (and a fit CSV where a rate is fitted) plus a
manifest JSON per output file.  CSVs are byte-identical across reruns of the
same spec; wall-clock timestamps live only in the manifest.  The manifest
embeds the full spec text and its git-style blob hash, which is everything
needed to re-run the experiment.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .criterion import PenaltySchedule, parse_schedule, validate_schedule
from .deviations import (
    ESTIMATORS, FitError, fit_exponent, fit_moderate_rate,
    is_underestimation_prob, mc_error_probs, peeling_assert,
)
from .entropy import kl_divergence, project_entropy, stein_bound
from .fitting import fit_lm_em, profile
from .models import (
    Family, ModelConfig, Theta, UsageError, _config_from_map, _kv_lines, _kv_parse, _kv_text,
    _theta_from_map, config_to_kv, csv_text, derive_seed, random_theta, rng_for, simulate,
    theta_to_kv, true_order, validate_theta,
)

MODES = ("consistency", "under_exponent", "over_rate", "entropy_table", "invariants")


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment; building it checks theta against the config and builds
    the schedule, so every spec that exists can run (and its text re-parses)."""

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
        if self.estimator not in ESTIMATORS:
            raise UsageError(f"unknown estimator {self.estimator!r}")
        grid = tuple(int(n) for n in self.n_grid)
        if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
            raise UsageError("n_grid must be nonempty and strictly increasing")
        object.__setattr__(self, "n_grid", grid)
        if self.mode in ("consistency", "under_exponent", "over_rate") and self.trials < 1:
            raise UsageError(f"mode={self.mode} needs trials >= 1")
        if self.k_max < 1:
            raise UsageError("k_max must be >= 1")
        # fail here, not mid-campaign
        validate_theta(self.config, self.theta_star)
        if self.config.family is Family.AC and self.mode != "invariants":
            # the MC modes profile K = 1..k_max + 1, the entropy table K = 1..k_max
            k_top = self.k_max + (self.mode != "entropy_table")
            depth = self.config.ac_depth_max
            if k_top > 2 ** depth:
                raise UsageError(
                    f"mode={self.mode} fits K up to {k_top} (k_max = {self.k_max}), but a tree "
                    f"of ac_depth_max = {depth} has at most {2 ** depth} leaves")
        self.schedule()

    def schedule(self) -> PenaltySchedule:
        # the local scan needs crit at K_scan_max + 1 = k_max + 1
        return parse_schedule(self.schedule_spec, self.config.family, self.k_max + 1)

    def to_text(self) -> str:
        theta = "".join("theta." + line
                        for line in theta_to_kv(self.theta_star).splitlines(keepends=True))
        return (f"[model]\n{config_to_kv(self.config)}{theta}\n"
                f"[schedule]\nspec = {self.schedule_spec}\n\n[run]\n{_kv_text(RUN_KEYS, self)}")


# The [run] keys of spec text, each with its parser, in the line order to_text
# writes; a missing key takes ExperimentSpec's default.  CLI overrides go
# through the same parsers.
RUN_KEYS = {"mode": str, "estimator": str, "n_grid": lambda text: tuple(map(int, text.split())),
            "trials": int, "seed": int, "k_max": int, "output_dir": str}


def parse_spec(text: str) -> ExperimentSpec:
    """Parse the sectioned key = value format; unknown keys raise."""
    return ExperimentSpec(**_spec_fields(text))


def _spec_fields(text: str) -> dict:
    """The ExperimentSpec arguments that spec text gives; each value is parsed
    and checked on its own, the spec as a whole only when it is built."""
    sections: dict[str, list[str]] = {}
    lines = None
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name in sections:
                raise UsageError(f"duplicate section [{name}]")
            if name not in ("model", "schedule", "run"):
                raise UsageError(f"unknown section [{name}]")
            lines = sections[name] = []
        elif lines is not None:
            lines.append(raw)
        elif line and not line.startswith("#"):
            raise UsageError(f"key outside any section: {raw!r}")
    for required in ("model", "schedule", "run"):
        if required not in sections:
            raise UsageError(f"missing section [{required}]")
    model, sched, run_kv = (_kv_lines("\n".join(sections[name]))
                            for name in ("model", "schedule", "run"))

    theta = {key[len("theta."):]: model.pop(key) for key in list(model)
             if key.startswith("theta.")}
    if not theta:
        raise UsageError("missing theta.* keys in [model]")
    if set(sched) != {"spec"}:
        raise UsageError(f"[schedule] takes exactly the key 'spec'; got {sorted(sched)}")
    return dict(config=_config_from_map(model), theta_star=_theta_from_map(theta),
                schedule_spec=sched["spec"], **_kv_parse(RUN_KEYS, run_kv, "[run]"))


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
    rows = []
    for k in range(1, k_top + 1):
        p = project_entropy(spec.config, spec.theta_star, k)
        s = stein_bound(spec.config, spec.theta_star, k)
        rows += [(k, "target_to_class", p.value, p.method, p.tol),
                 (k, "class_to_target", s.value, s.method, s.tol)]
    return csv_text("K,direction,value,method,tol", rows)


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

def run(spec: ExperimentSpec, command: str = "orderest campaign") -> int:
    """Dispatch one experiment; returns the process exit status."""
    if spec.mode == "invariants":
        return report_invariants(spec.seed)
    spec_text = spec.to_text()
    schedule = spec.schedule()

    def save(kind: str, content: str) -> None:
        write_artifact(Path(spec.output_dir) / f"{spec.mode}_{kind}.csv", content, spec_text,
                       command)

    if spec.mode == "entropy_table":
        table = entropy_table(spec, spec.k_max)
        save("results", table)
        print(table, end="")
        return 0

    under = spec.mode == "under_exponent"
    if under:
        rows = [is_underestimation_prob(spec.config, spec.theta_star, None, schedule,
                                        spec.estimator, n, spec.trials, spec.seed,
                                        spec.k_max)
                for n in spec.n_grid]
    else:
        _warn_schedule(spec, "thm3" if spec.mode == "consistency" else "thm10")
        rows = [mc_error_probs(spec.config, spec.theta_star, schedule, spec.estimator,
                               n, spec.trials, spec.seed, spec.k_max)
                for n in spec.n_grid]
    # the ci columns carry the under CI in under_exponent mode, the over CI otherwise
    save("results", csv_text(RESULTS_HEADER, (
        (r.n, r.trials, r.p_under, r.p_over, r.p_correct,
         *(r.ci_under if under else r.ci_over), r.method, r.ess) for r in rows)))
    if spec.mode == "consistency":
        return 0
    try:
        if under:
            fit = fit_exponent([(r.n, r.p_under) for r in rows])
            msg = (f"under_exponent: slope={fit.slope:.6g} r2={fit.r2:.4f} "
                   f"excluded={fit.n_excluded}")
        else:
            fit = fit_moderate_rate([(r.n, r.p_over) for r in rows], schedule)
            msg = f"over_rate: slope={fit.slope:.6g} r2={fit.r2:.4f} on {fit.x_axis}"
            try:
                fit_n = fit_exponent([(r.n, r.p_over) for r in rows])
                msg += f"; n-axis r2={fit_n.r2:.4f} (diagnostic)"
            except FitError:
                pass
        save("fit", csv_text("x,neg_log_p", fit.points))
        print(msg)
    except FitError as exc:
        print(f"warning: {'exponent' if under else 'moderate-rate'} fit skipped: {exc}",
              file=sys.stderr)
    return 0
