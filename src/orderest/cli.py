"""Command line: simulate | fit | order | entropy | campaign | invariants.

Every subcommand takes --spec FILE (the sectioned text form documented in
experiments.py); `campaign` runs the spec's mode end to end, the others use
the spec's model/schedule and take task flags.  All emitted CSVs use comma
separation, '.' decimals, LF line endings and a mandatory header row, and are
byte-identical across reruns; timestamps appear only in manifests.
"""

from __future__ import annotations

import argparse
import io
import sys
from pathlib import Path

from .criterion import crit, estimate_orders
from .experiments import (
    ExperimentSpec, entropy_table, parse_spec, report_invariants, run, write_artifact,
)
from .fitting import fit_k, profile
from .models import UsageError, fmt, sample_from_csv, sample_to_csv, simulate


def _load_spec(path: str) -> ExperimentSpec:
    return parse_spec(Path(path).read_text())


def _apply_overrides(spec: ExperimentSpec, args) -> ExperimentSpec:
    from dataclasses import replace
    updates = {}
    if getattr(args, "mode", None):
        updates["mode"] = args.mode
    if getattr(args, "estimator", None):
        updates["estimator"] = args.estimator
    if getattr(args, "n_grid", None):
        updates["n_grid"] = tuple(int(v) for v in args.n_grid.split())
    if getattr(args, "trials", None) is not None:
        updates["trials"] = args.trials
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    if getattr(args, "schedule", None):
        updates["schedule_spec"] = args.schedule
    if getattr(args, "output_dir", None):
        updates["output_dir"] = args.output_dir
    if getattr(args, "k_max", None) is not None:
        updates["k_max"] = args.k_max
    return replace(spec, **updates) if updates else spec


def cmd_simulate(args) -> int:
    spec = _apply_overrides(_load_spec(args.spec), args)
    n = args.n if args.n is not None else spec.n_grid[0]
    sample = simulate(spec.config, spec.theta_star, n, spec.seed)
    out = Path(args.out or Path(spec.output_dir) / "sample.csv")
    write_artifact(out, sample_to_csv(sample), spec.to_text(), "orderest simulate")
    print(f"wrote {out} ({n} observations, seed {spec.seed})")
    return 0


def cmd_fit(args) -> int:
    spec = _apply_overrides(_load_spec(args.spec), args)
    sample = sample_from_csv(Path(args.sample).read_text(), seed=spec.seed)
    if sample.family is not spec.config.family:
        raise UsageError(f"sample family {sample.family.value} does not match spec")
    if args.k is not None:
        res = fit_k(sample, args.k, spec.config)
        content = ("K,loglik,converged,iterations\n"
                   f"{args.k},{fmt(res.loglik)},{int(res.converged)},{res.iterations}\n")
    else:
        prof = profile(sample, spec.config, args.k_top or spec.k_max + 1)
        content = prof.to_csv()
    out = Path(args.out or Path(spec.output_dir) / "fit.csv")
    write_artifact(out, content, spec.to_text(), "orderest fit")
    print(f"wrote {out}")
    return 0


def cmd_order(args) -> int:
    spec = _apply_overrides(_load_spec(args.spec), args)
    sample = sample_from_csv(Path(args.sample).read_text(), seed=spec.seed)
    if sample.family is not spec.config.family:
        raise UsageError(f"sample family {sample.family.value} does not match spec")
    schedule = spec.schedule()
    prof = profile(sample, spec.config, spec.k_max + 1)
    est = estimate_orders(prof, schedule, sample.n, spec.k_max)
    values = crit(prof, schedule, sample.n)
    buf = io.StringIO()
    buf.write("K,loglik,penalty,crit\n")
    for k in sorted(values):
        buf.write(f"{k},{fmt(prof.loglik(k))},{fmt(schedule.penalty(sample.n, k))},"
                  f"{fmt(values[k])}\n")
    out = Path(args.out or Path(spec.output_dir) / "order.csv")
    write_artifact(out, buf.getvalue(), spec.to_text(), "orderest order")
    print(f"k_local={est.k_local} k_global={est.k_global} "
          f"scan_cap_hit={int(est.scan_cap_hit)}")
    return 0


def cmd_entropy(args) -> int:
    spec = _apply_overrides(_load_spec(args.spec), args)
    print(entropy_table(spec, args.k_top or spec.k_max), end="")
    return 0


def cmd_campaign(args) -> int:
    spec = _apply_overrides(_load_spec(args.spec), args)
    return run(spec, command="orderest campaign --spec " + args.spec)


def cmd_invariants(args) -> int:
    return report_invariants(args.seed or 0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="orderest",
                                     description="order estimation experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, spec_required=True):
        p.add_argument("--spec", required=spec_required, help="experiment spec file")
        p.add_argument("--seed", type=int, help="override the spec seed")
        p.add_argument("--estimator", choices=("local", "global"))
        p.add_argument("--schedule", help="override the schedule spec string")
        p.add_argument("--n-grid", dest="n_grid", help="override, e.g. '500 1000 2000'")
        p.add_argument("--trials", type=int)
        p.add_argument("--k-max", dest="k_max", type=int)
        p.add_argument("--output-dir", dest="output_dir")

    p = sub.add_parser("simulate", help="draw a sample and write its CSV")
    common(p)
    p.add_argument("--n", type=int, help="sample size (default: first n_grid entry)")
    p.add_argument("--out", help="output CSV path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit one K or a profile curve to a sample CSV")
    common(p)
    p.add_argument("--sample", required=True, help="sample CSV path")
    p.add_argument("--k", type=int, help="single K to fit")
    p.add_argument("--k-top", dest="k_top", type=int, help="profile up to this K")
    p.add_argument("--out", help="output CSV path")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("order", help="estimate the order of a sample CSV")
    common(p)
    p.add_argument("--sample", required=True, help="sample CSV path")
    p.add_argument("--out", help="output CSV path")
    p.set_defaults(func=cmd_order)

    p = sub.add_parser("entropy", help="print the projection table for theta*")
    common(p)
    p.add_argument("--k-top", dest="k_top", type=int)
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("campaign", help="run the spec's mode end to end")
    common(p)
    p.add_argument("--mode", choices=("consistency", "under_exponent", "over_rate",
                                      "entropy_table", "invariants"))
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser("invariants", help="run the invariant suites")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_invariants)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
