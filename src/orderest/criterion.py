"""Penalty schedules, the penalized criterion and the two order estimators.

crit(n, K) = sup-loglik(K) - pen(n, K) with pen(n, K) = v_n * D(K).  Both
estimators scan K = 1..K_max: the local one returns the first K < K_max whose
criterion does not increase at K+1 (K_max when none), the global one the
smallest argmax.  Ties within 1e-12 count as equal in both, which keeps the
two estimators deterministic and preserves k_global >= k_local.
estimate_orders() reads both from one crit_values() map at the profile's own
n and K = 1..K_max, so a trial, CLI profile or spec schedule reaches K_max
and no further.

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
_A_BOUND = 1.0  # the constant A of the thm10 bound v(nk) <= A k^(1-delta) v(n)

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

    def __post_init__(self):
        if self.form not in V_FORMS:
            raise UsageError(f"unknown penalty form {self.form!r}")
        for name, owner in (("delta", "power"), ("eps", "logpower")):
            if getattr(self, name) is not None and self.form != owner:
                raise UsageError(f"{self.form} form takes no {name}; only {owner} does")
        if self.form == "power" and not (self.delta is not None and 0.0 < self.delta < 1.0):
            raise UsageError(f"power form needs delta in (0, 1), got {self.delta}")
        if self.form == "logpower" and not (self.eps is not None and 0.0 < self.eps < math.inf):
            raise UsageError(f"logpower form needs a finite eps > 0, got {self.eps}")
        d = tuple(float(v) for v in self.d)
        if len(d) < 1 or not all(0.0 < v < math.inf for v in d):
            raise UsageError(f"D must be a nonempty sequence of positive finite weights, got {d}")
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


def _number(text: str, token: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise UsageError(f"bad number {text!r} in schedule token {token!r}") from None


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
        delta = _number(param, head)
    elif form == "logpower":
        if not param:
            raise UsageError("logpower form needs an eps, e.g. logpower:0.1")
        eps = _number(param, head)
    elif param:
        raise UsageError(f"form {form!r} takes no parameter")
    d_spec = "dim"
    for extra in parts[1:]:
        if extra.startswith("D="):
            d_spec = extra[2:]
        else:
            raise UsageError(f"unrecognized schedule token {extra!r}")
    base, _, scale_txt = d_spec.partition("*")
    scale = _number(scale_txt, "D=" + d_spec) if scale_txt else 1.0
    if base == "dim":
        if family is None:
            raise UsageError("D=dim needs the model family")
        d = dim_weights(family, k_max, scale)
    elif base == "linear":
        d = linear_weights(k_max, scale)
    else:
        raise UsageError(f"unknown D spec {d_spec!r}")
    return PenaltySchedule(form=form, d=d, delta=delta, eps=eps)


# ---------------------------------------------------------------------------
# Criterion and estimators
# ---------------------------------------------------------------------------

def crit_values(logliks: dict[int, float], schedule: PenaltySchedule, n: int) -> dict[int, float]:
    """crit(n, K) = sup-loglik(K) - pen(n, K) for every K of logliks."""
    if max(logliks) > schedule.k_cap:
        raise UsageError(f"profile reaches K={max(logliks)} but D stops at {schedule.k_cap}")
    return {k: ll - schedule.penalty(n, k) for k, ll in logliks.items()}


@dataclass(frozen=True)
class OrderEstimate:
    k_local: int
    k_global: int
    crit_values: dict[int, float]


def estimate_orders(profile: ProfileCurve, schedule: PenaltySchedule,
                    k_max: int) -> OrderEstimate:
    """The local estimator (first K < k_max with crit(K) >= crit(K+1), else
    k_max) and the global one (smallest argmax of crit over 1..k_max), with
    crit at K = 1..k_max and the profile's sample size."""
    if profile.k_top < k_max:
        raise UsageError(f"the estimators need the profile up to K={k_max}, "
                         f"not {profile.k_top}")
    values = crit_values({k: profile.loglik(k) for k in range(1, k_max + 1)},
                         schedule, profile.n)
    k_local = next((k for k in range(1, k_max) if values[k] >= values[k + 1] - TIE_TOL), k_max)
    best = max(values.values())
    k_global = next(k for k in values if values[k] >= best - TIE_TOL)
    return OrderEstimate(k_local=k_local, k_global=k_global, crit_values=values)


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


def validate_schedule(schedule: PenaltySchedule, regime: str, n_grid, k_grid) -> ScheduleReport:
    """Grid diagnostics for the named penalty-growth regime.

    Trend conditions pass when the quantity is nonincreasing along the grid
    and ends below its start; the v_{nk} bound is checked against
    A k^(1-delta) with A = _A_BOUND and the schedule's own delta (0.5 when the
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
        passed = worst <= _A_BOUND * (1.0 + 1e-9)
        checks.append(ConditionCheck(
            "vnk_le_A_k_pow_over_vn", passed, _A_BOUND - worst,
            f"max v(nk)/(k^(1-{delta:g}) v(n)) = {worst:.9g}, A = {_A_BOUND:g}"))
    else:  # thm11
        vals = [math.log(n) / schedule.v(n) for n in n_grid]
        checks.append(_trend_to_zero("log_n_over_v_to_0", vals, n_grid))
    return ScheduleReport(regime=regime, checks=tuple(checks))
