"""Correctness gate for one campaign's output CSVs.

check() counts the ops whose output is non-finite or breaks an invariant that
holds for any seed.  drift() compares against CSVs recorded at an earlier
commit for the same spec.
"""

from __future__ import annotations

import math

from workloads import Workload

RESULTS_HEADER = ["n", "trials", "p_under", "p_over", "p_correct", "ci_lo", "ci_hi",
                  "method", "ess"]
ENTROPY_HEADER = ["K", "direction", "value", "method", "tol"]

# A recorded number counts as reproduced when it is within this share of its
# size, or within the row's own reported `tol` where the CSV has one.
REL_TOL = 1e-9


def _table(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _finite(fields: list[str]) -> bool:
    return all(math.isfinite(float(f)) for f in fields)


def check(wl: Workload, size: str,
          files: dict[str, str]) -> tuple[int, list[str], list[str]]:
    """(failed ops, problems, notes) for one campaign's CSVs."""
    name = f"{wl.mode}_results.csv"
    if name not in files:
        return wl.ops(size), [f"{name} missing"], []
    notes: list[str] = []
    if wl.mode == "entropy_table":
        failed, problems = _check_entropy(wl, files[name])
    else:
        failed, problems = _check_probs(wl, size, files[name], notes)
    fit = files.get(f"{wl.mode}_fit.csv")
    if fit is not None and not all(_finite(row) for row in _table(fit)[1]):
        problems.append("non-finite value in the exponent fit")
    return failed, problems, notes


def _check_probs(wl: Workload, size: str, text: str,
                 notes: list[str]) -> tuple[int, list[str]]:
    header, rows = _table(text)
    trials = wl.trials[size]
    if header != RESULTS_HEADER or [int(r[0]) for r in rows] != list(wl.n_grid):
        return wl.ops(size), ["results table has the wrong header or n column"]
    failed, problems = 0, []
    for row in rows:
        numbers = row[:7] + row[8:]
        if not _finite(numbers):
            bad = ["non-finite value"]
        else:
            n, t, p_under, p_over, p_correct, ci_lo, ci_hi, ess = map(float, numbers)
            # the ci columns bracket p_under in under_exponent mode, p_over otherwise
            p_ci = p_under if wl.mode == "under_exponent" else p_over
            plain = row[7] == "plain_mc"
            # Importance sampling targets p_under.  Its p_over and p_correct are
            # unnormalized likelihood-ratio averages: unbiased, but not bounded
            # by 1 (p_correct = 2.60 at seed 3, n = 100, with ESS 10).
            bounded = (p_under, p_over, p_correct) if plain else (p_under,)
            bad = [msg for ok, msg in (
                (t == trials, f"trials {t:g} != {trials}"),
                (all(0.0 <= p <= 1.0 for p in bounded), "p outside [0, 1]"),
                (min(p_over, p_correct) >= 0.0, "negative p"),
                (not plain or abs(p_under + p_over + p_correct - 1.0) <= 1e-12,
                 "p_under + p_over + p_correct != 1"),
                (ci_lo <= p_ci <= ci_hi, "CI does not bracket p"),
                (ess > 0.0, "ess <= 0"),
            ) if not ok]
            if not plain and max(p_over, p_correct) > 1.0:
                notes.append(f"n={row[0]}: importance-sampled p_over/p_correct above 1")
        if bad:
            failed += trials
            problems.append(f"n={row[0]}: {', '.join(bad)}")
    return failed, problems


def _check_entropy(wl: Workload, text: str) -> tuple[int, list[str]]:
    header, rows = _table(text)
    expected = [(str(k), d) for k in range(1, wl.k_max + 1)
                for d in ("target_to_class", "class_to_target")]
    if header != ENTROPY_HEADER or [(r[0], r[1]) for r in rows] != expected:
        return wl.ops("full"), ["entropy table has the wrong header or rows"]
    failed, problems = 0, []
    prev_t2c = math.inf
    for row in rows:
        k = int(row[0])
        value, tol = float(row[2]), float(row[4])
        if not (math.isfinite(value) and math.isfinite(tol)):
            bad = ["non-finite value"]
        else:
            bad = [msg for ok, msg in (
                (value >= 0.0, "negative divergence"),
                (k < wl.k_star or value == 0.0, f"nonzero at K >= K* = {wl.k_star}"),
                (row[1] != "target_to_class" or value <= prev_t2c,
                 "target_to_class increases in K"),
            ) if not ok]
        if row[1] == "target_to_class" and math.isfinite(value):
            prev_t2c = value
        if bad:
            failed += 1
            problems.append(f"K={k} {row[1]}: {', '.join(bad)}")
    return failed, problems


def drift(files: dict[str, str], reference: dict[str, str]) -> tuple[float, list[str]]:
    """(largest absolute difference, problems) against the reference CSVs."""
    if set(files) != set(reference):
        return math.inf, [f"files {sorted(files)} != reference {sorted(reference)}"]
    worst, problems = 0.0, []
    for name in sorted(files):
        header, rows = _table(files[name])
        ref_header, ref_rows = _table(reference[name])
        if header != ref_header or [len(r) for r in rows] != [len(r) for r in ref_rows]:
            return math.inf, [f"{name}: table shape differs from the reference"]
        tol_col = header.index("tol") if "tol" in header else None
        for row, ref in zip(rows, ref_rows):
            row_tol = float(ref[tol_col]) if tol_col is not None else 0.0
            for col, (got, want) in enumerate(zip(row, ref)):
                try:
                    a, b = float(got), float(want)
                except ValueError:
                    if got != want:
                        return math.inf, [f"{name}: {header[col]} {got!r} != {want!r}"]
                    continue
                diff = abs(a - b)
                if not math.isfinite(diff):
                    return math.inf, [f"{name} row {row[0]} {header[col]}: {got} != {want}"]
                worst = max(worst, diff)
                if diff > max(REL_TOL * max(abs(a), abs(b)), row_tol):
                    problems.append(f"{name} row {row[0]} {header[col]}: {got} != {want}")
    return worst, problems
