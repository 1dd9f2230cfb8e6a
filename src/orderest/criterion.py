"""Penalty schedules, the penalized criterion and the two order estimators.

crit(n, K) = sup-loglik(K) - pen(n, K) with pen(n, K) = v_n * D(K).  The
local estimator returns the first K whose criterion does not increase at
K+1; the global estimator returns the smallest argmax over 1..K_max.  Ties
within 1e-12 count as equal in both, which keeps the two estimators
deterministic and preserves k_global >= k_local on a common scan range.

validate_schedule() checks a named growth regime's conditions on finite
grids (a diagnostic, not a proof):

- thm3:  pen ratio in K stays above 1, sqrt(n loglog n)/pen and pen/n both
         trend to zero (strong-consistency regime).
- thm4:  pen ratio in K stays above 1 and loglog(n)/pen trends to zero
         (the relaxed regime obtained by renormalizing the likelihood-ratio
         class).
- thm10: n/v_n^2 trends to zero and v_{nk} <= A k^(1-delta) v_n holds on the
         grid (moderate-rate regime for overestimation).
- thm11: log(n)/v_n trends to zero (the log-relaxed overestimation regime).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fitting import ProfileCurve
from .models import Family, UsageError, theta_dim

TIE_TOL = 1e-12

V_FORMS = ("power", "logpower", "bic", "iterlog")
REGIMES = ("thm3", "thm4", "thm10", "thm11")

_E_E = math.exp(math.e)


def loglog(n: float) -> float:
    """log log n, truncated below so it is defined and >= 1 for all n >= 1."""
    return math.log(math.log(max(float(n), _E_E)))


@dataclass(frozen=True)
class PenaltySchedule:
    """pen(n, K) = v_n * D(K) with one of four v_n forms.

    power(delta):   v_n = n^(1-delta), delta in (0, 1)
    logpower(eps):  v_n = (log n)^(1+eps), eps > 0
    bic:            v_n = log n
    iterlog:        v_n = sqrt(n loglog n) * (loglog n)^0.05; the extra
                    factor makes sqrt(n loglog n)/pen decay to 0 strictly.
    """

    form: str
    d: tuple[float, ...]
    delta: float | None = None
    eps: float | None = None
    label: str = ""

    def __post_init__(self):
        if self.form not in V_FORMS:
            raise UsageError(f"unknown penalty form {self.form!r}")
        if self.form == "power" and not (self.delta is not None and 0.0 < self.delta < 1.0):
            raise UsageError("power form needs delta in (0, 1)")
        if self.form == "logpower" and not (self.eps is not None and self.eps > 0.0):
            raise UsageError("logpower form needs eps > 0")
        d = tuple(float(v) for v in self.d)
        if len(d) < 1 or any(v <= 0.0 for v in d):
            raise UsageError("D must be a nonempty sequence of positive weights")
        if any(b <= a for a, b in zip(d, d[1:])):
            raise UsageError("D must be strictly increasing")
        object.__setattr__(self, "d", d)

    @property
    def k_cap(self) -> int:
        return len(self.d)

    def v(self, n: float) -> float:
        if n < 1:
            raise UsageError("n must be >= 1")
        if self.form == "power":
            return float(n) ** (1.0 - self.delta)
        if self.form == "logpower":
            return math.log(n) ** (1.0 + self.eps)
        if self.form == "bic":
            return math.log(n)
        return math.sqrt(n * loglog(n)) * loglog(n) ** 0.05

    def penalty(self, n: float, k: int) -> float:
        """pen(n, K) = v_n * D(K)."""
        if not 1 <= k <= len(self.d):
            raise UsageError(f"K={k} outside 1..{len(self.d)}")
        return self.v(n) * self.d[k - 1]


def dim_weights(family: Family, k_max: int, scale: float = 1.0) -> tuple[float, ...]:
    """D(K) = scale * dim(Theta_K)."""
    return tuple(scale * theta_dim(family, k) for k in range(1, k_max + 1))


def linear_weights(k_max: int, scale: float = 1.0) -> tuple[float, ...]:
    """D(K) = scale * K."""
    return tuple(scale * k for k in range(1, k_max + 1))


def parse_schedule(text: str, family: Family | None, k_max: int) -> PenaltySchedule:
    """Parse a schedule spec string, e.g. "power:0.25 D=dim" or "bic D=linear*0.5".

    Grammar: "<form>[:<param>] [D=dim|linear[*<scale>]]"; D defaults to dim,
    which needs the family.  The optional *scale suffix scales the weights.
    """
    parts = text.split()
    if not parts:
        raise UsageError("empty schedule spec")
    head = parts[0]
    form, _, param = head.partition(":")
    if form not in V_FORMS:
        raise UsageError(f"unknown penalty form {form!r}")
    delta = eps = None
    if form == "power":
        if not param:
            raise UsageError("power form needs a delta, e.g. power:0.25")
        delta = float(param)
    elif form == "logpower":
        if not param:
            raise UsageError("logpower form needs an eps, e.g. logpower:0.1")
        eps = float(param)
    elif param:
        raise UsageError(f"form {form!r} takes no parameter")
    d_spec = "dim"
    for extra in parts[1:]:
        if extra.startswith("D="):
            d_spec = extra[2:]
        else:
            raise UsageError(f"unrecognized schedule token {extra!r}")
    base, _, scale_txt = d_spec.partition("*")
    scale = float(scale_txt) if scale_txt else 1.0
    if base == "dim":
        if family is None:
            raise UsageError("D=dim needs the model family")
        d = dim_weights(family, k_max, scale)
    elif base == "linear":
        d = linear_weights(k_max, scale)
    else:
        raise UsageError(f"unknown D spec {d_spec!r}")
    return PenaltySchedule(form=form, d=d, delta=delta, eps=eps, label=text)


# ---------------------------------------------------------------------------
# Criterion and estimators
# ---------------------------------------------------------------------------

def crit_values(logliks: dict[int, float], schedule: PenaltySchedule, n: int) -> dict[int, float]:
    if max(logliks) > schedule.k_cap:
        raise UsageError(f"profile reaches K={max(logliks)} but D stops at {schedule.k_cap}")
    return {k: ll - schedule.penalty(n, k) for k, ll in logliks.items()}


def crit(profile: ProfileCurve, schedule: PenaltySchedule, n: int) -> dict[int, float]:
    """crit(n, K) = sup-loglik(K) - pen(n, K) for every K the profile covers."""
    return crit_values(profile.logliks(), schedule, n)


def _local_from_crit(values: dict[int, float], k_scan_max: int) -> tuple[int, bool]:
    for k in range(1, k_scan_max + 1):
        if values[k] >= values[k + 1] - TIE_TOL:
            return k, False
    return k_scan_max, True


def _global_from_crit(values: dict[int, float], k_max: int) -> int:
    best = max(values[k] for k in range(1, k_max + 1))
    for k in range(1, k_max + 1):
        if values[k] >= best - TIE_TOL:
            return k
    raise AssertionError("unreachable")


def estimate_order_local(profile: ProfileCurve, schedule: PenaltySchedule, n: int,
                         k_scan_max: int) -> int:
    """First K with crit(n, K) >= crit(n, K+1); K_scan_max when none in range."""
    if profile.k_top < k_scan_max + 1:
        raise UsageError(f"local scan to {k_scan_max} needs the profile up to K={k_scan_max + 1}")
    return _local_from_crit(crit(profile, schedule, n), k_scan_max)[0]


def estimate_order_global(profile: ProfileCurve, schedule: PenaltySchedule, n: int,
                          k_max: int) -> int:
    """Smallest K attaining the maximal criterion over 1..K_max (ties downward)."""
    if profile.k_top < k_max:
        raise UsageError(f"global scan to {k_max} needs the profile up to K={k_max}")
    return _global_from_crit(crit(profile, schedule, n), k_max)


@dataclass(frozen=True)
class OrderEstimate:
    k_local: int
    k_global: int
    crit_values: dict[int, float]
    scan_cap_hit: bool


def estimate_orders(profile: ProfileCurve, schedule: PenaltySchedule, n: int,
                    k_max: int, k_scan_max: int | None = None) -> OrderEstimate:
    """Both estimators over a shared criterion map."""
    k_scan_max = k_max if k_scan_max is None else k_scan_max
    if profile.k_top < max(k_max, k_scan_max + 1):
        raise UsageError("profile does not cover the requested scan range")
    values = crit(profile, schedule, n)
    k_local, cap_hit = _local_from_crit(values, k_scan_max)
    k_global = _global_from_crit(values, k_max)
    return OrderEstimate(k_local=k_local, k_global=k_global,
                         crit_values=values, scan_cap_hit=cap_hit)


# ---------------------------------------------------------------------------
# Schedule diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionCheck:
    name: str
    passed: bool
    margin: float
    detail: str


@dataclass(frozen=True)
class ScheduleReport:
    regime: str
    checks: tuple[ConditionCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _trend_to_zero(name: str, values: list[float], n_grid) -> ConditionCheck:
    """Finite positive values, nonincreasing along the grid and strictly lower
    at the end than at the start."""
    finite = all(math.isfinite(v) and v >= 0.0 for v in values)
    diffs = [b - a for a, b in zip(values, values[1:])]
    nonincreasing = all(d <= 1e-12 + 1e-9 * abs(a) for d, a in zip(diffs, values))
    shrinks = values[-1] < values[0]
    passed = finite and nonincreasing and shrinks
    worst = max(diffs) if diffs else 0.0
    detail = (f"first={values[0]:.6g} at n={n_grid[0]}, last={values[-1]:.6g} "
              f"at n={n_grid[-1]}, worst step {worst:.3g}")
    return ConditionCheck(name, passed, values[0] - values[-1], detail)


def validate_schedule(schedule: PenaltySchedule, regime: str, n_grid, k_grid,
                      a_bound: float = 1.0) -> ScheduleReport:
    """Grid diagnostics for the named penalty-growth regime.

    Trend conditions pass when the quantity is nonincreasing along the grid
    and ends below its start; the v_{nk} bound is checked against
    A k^(1-delta) with A=a_bound and the schedule's own delta (0.5 when the
    form has none).
    """
    if regime not in REGIMES:
        raise UsageError(f"unknown regime {regime!r}")
    n_grid = [float(n) for n in n_grid]
    k_grid = [int(k) for k in k_grid]
    if not n_grid or any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise UsageError("n_grid must be nonempty and increasing")
    if not k_grid or any(b <= a for a, b in zip(k_grid, k_grid[1:])):
        raise UsageError("k_grid must be nonempty and increasing")
    checks: list[ConditionCheck] = []

    def ratio_check():
        worst = math.inf
        for n in n_grid:
            for k in k_grid:
                if k + 1 <= schedule.k_cap:
                    worst = min(worst, schedule.penalty(n, k + 1) / schedule.penalty(n, k))
        return ConditionCheck("pen_ratio_in_k_above_1", worst > 1.0, worst - 1.0,
                              f"min pen(n,K+1)/pen(n,K) = {worst:.6g}")

    if regime in ("thm3", "thm4"):
        checks.append(ratio_check())
    if regime == "thm3":
        k_lo = k_grid[0]
        vals = [math.sqrt(n * loglog(n)) / schedule.penalty(n, k_lo) for n in n_grid]
        checks.append(_trend_to_zero("sqrt_n_loglog_over_pen_to_0", vals, n_grid))
        k_hi = min(k_grid[-1], schedule.k_cap)
        vals = [schedule.penalty(n, k_hi) / n for n in n_grid]
        checks.append(_trend_to_zero("pen_over_n_to_0", vals, n_grid))
    elif regime == "thm4":
        k_lo = k_grid[0]
        vals = [loglog(n) / schedule.penalty(n, k_lo) for n in n_grid]
        checks.append(_trend_to_zero("loglog_over_pen_to_0", vals, n_grid))
    elif regime == "thm10":
        vals = [n / schedule.v(n) ** 2 for n in n_grid]
        checks.append(_trend_to_zero("n_over_v_squared_to_0", vals, n_grid))
        delta = schedule.delta if schedule.delta is not None else 0.5
        worst = 0.0
        for n in n_grid:
            for k in k_grid:
                if k < 2:
                    continue
                worst = max(worst, schedule.v(n * k) / (k ** (1.0 - delta) * schedule.v(n)))
        passed = worst <= a_bound * (1.0 + 1e-9)
        checks.append(ConditionCheck(
            "vnk_le_A_k_pow_over_vn", passed, a_bound - worst,
            f"max v(nk)/(k^(1-{delta:g}) v(n)) = {worst:.9g}, A = {a_bound:g}"))
    else:  # thm11
        vals = [math.log(n) / schedule.v(n) for n in n_grid]
        checks.append(_trend_to_zero("log_n_over_v_to_0", vals, n_grid))
    return ScheduleReport(regime=regime, checks=tuple(checks))
