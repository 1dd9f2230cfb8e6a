"""Command line: simulate | fit | order | entropy | campaign | invariants.

Every subcommand takes --spec FILE (the sectioned text form documented in
experiments.py); `campaign` runs the spec's mode end to end, the others use
the spec's model/schedule and take task flags.  All emitted CSVs use comma
separation, '.' decimals, LF line endings and a mandatory header row, and are
byte-identical across reruns; timestamps appear only in manifests.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .criterion import estimate_orders
from .deviations import ESTIMATORS
from .experiments import (
    MODES, RUN_KEYS, ExperimentSpec, _spec_fields, entropy_table, report_invariants, run,
    write_artifact,
)
from .fitting import fit, fits_csv, profile
from .models import (
    Sample, UsageError, _kv_parse, csv_text, sample_from_csv, sample_to_csv, simulate,
)


def _load_spec(args) -> ExperimentSpec:
    """The --spec file with each [run] flag given in place of its key.  Flags
    go through the spec's own parsers and checks, as if they were spec lines,
    so the spec is checked only as the flags leave it."""
    fields = _spec_fields(Path(args.spec).read_text())
    fields.update(_kv_parse(RUN_KEYS, {key: getattr(args, key) for key in RUN_KEYS
                                       if getattr(args, key, None) is not None}, "[run]"))
    if args.schedule is not None:
        fields["schedule_spec"] = args.schedule
    return ExperimentSpec(**fields)


def _load_sample(args, spec: ExperimentSpec) -> Sample:
    sample = sample_from_csv(Path(args.sample).read_text())
    if sample.family is not spec.config.family:
        raise UsageError(f"sample family {sample.family.value} does not match spec")
    return sample


def cmd_simulate(args) -> int:
    spec = _load_spec(args)
    n = args.n if args.n is not None else spec.n_grid[0]
    sample = simulate(spec.config, spec.theta_star, n, spec.seed)
    out = Path(args.out or Path(spec.output_dir) / "sample.csv")
    write_artifact(out, sample_to_csv(sample), spec.to_text(), "orderest simulate")
    print(f"wrote {out} ({n} observations, seed {spec.seed})")
    return 0


def cmd_fit(args) -> int:
    spec = _load_spec(args)
    k_top = (args.k if args.k is not None else args.k_top if args.k_top is not None
             else spec.k_max)
    spec.check_reach(k_top, "orderest fit")
    sample = _load_sample(args, spec)
    if args.k is not None:
        fits = zip((args.k,), fit(sample, spec.config, (args.k,)))
    else:
        fits = enumerate(profile(sample, spec.config, k_top).entries, start=1)
    content = fits_csv(fits)
    out = Path(args.out or Path(spec.output_dir) / "fit.csv")
    write_artifact(out, content, spec.to_text(), "orderest fit")
    print(f"wrote {out}")
    return 0


def cmd_order(args) -> int:
    spec = _load_spec(args)
    spec.check_reach(spec.k_max, "orderest order")
    sample = _load_sample(args, spec)
    schedule = spec.schedule()
    prof = profile(sample, spec.config, spec.k_max)
    est = estimate_orders(prof, schedule, spec.k_max)
    content = csv_text("K,loglik,penalty,crit",
                       ((k, prof.loglik(k), schedule.penalty(sample.n, k), crit)
                        for k, crit in sorted(est.crit_values.items())))
    out = Path(args.out or Path(spec.output_dir) / "order.csv")
    write_artifact(out, content, spec.to_text(), "orderest order")
    print(f"k_local={est.k_local} k_global={est.k_global}")
    return 0


def cmd_entropy(args) -> int:
    spec = _load_spec(args)
    k_top = args.k_top if args.k_top is not None else spec.k_max
    spec.check_reach(k_top, "orderest entropy")
    print(entropy_table(spec, k_top), end="")
    return 0


def cmd_campaign(args) -> int:
    return run(_load_spec(args), command="orderest campaign --spec " + args.spec)


def cmd_invariants(args) -> int:
    return report_invariants(args.seed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="orderest",
                                     description="order estimation experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--spec", required=True, help="experiment spec file")
        p.add_argument("--seed", help="override the spec seed")
        p.add_argument("--estimator", choices=ESTIMATORS)
        p.add_argument("--schedule", help="override the schedule spec string")
        p.add_argument("--n-grid", dest="n_grid", help="override, e.g. '500 1000 2000'")
        p.add_argument("--trials")
        p.add_argument("--k-max", dest="k_max")
        p.add_argument("--output-dir", dest="output_dir")

    p = sub.add_parser("simulate", help="draw a sample and write its CSV")
    common(p)
    p.add_argument("--n", type=int, help="sample size (default: first n_grid entry)")
    p.add_argument("--out", help="output CSV path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit one K or a profile curve to a sample CSV")
    common(p)
    p.add_argument("--sample", required=True, help="sample CSV path")
    reach = p.add_mutually_exclusive_group()
    reach.add_argument("--k", type=int, help="single K to fit")
    reach.add_argument("--k-top", dest="k_top", type=int, help="profile up to this K")
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
    p.add_argument("--mode", choices=MODES)
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
