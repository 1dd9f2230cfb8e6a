"""Monte Carlo estimation of order-selection error probabilities.

Trial t of an experiment draws its randomness from (seed, t) only as derived
streams, so trials can run in any order or partition and results are merged
by writing into the trial-indexed slot; tallies are integer sums and hence
identical under any execution order.

Underestimation probabilities decay exponentially in n and leave plain Monte
Carlo reach almost immediately; is_underestimation_prob() samples instead
from a reference parameter theta0 one class below the truth and reweights
each trial by the likelihood ratio exp(ell_n(theta*) - ell_n(theta0)), an
unbiased change of measure whose weights concentrate exactly on the dominant
error mode.  All weight arithmetic is done in log space.

fit_exponent / fit_moderate_rate regress -log p_hat on n, resp. v_n^2/n.
peeling_assert evaluates both sides of the two empirical-process
inequalities that control overestimation (the plain and the renormalized
one); slln_trace follows sup-loglik-ratio / n along one growing sample path.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .criterion import PenaltySchedule, estimate_orders
from .entropy import kl_divergence, project_entropy
from .fitting import fit, profile
from .models import (
    Family, ModelConfig, Sample, Theta, UsageError, derive_seed,
    log_likelihood, logsumexp_rows, mixture_log_components, random_theta, rng_for,
    simulate, true_order,
)

ESTIMATORS = ("local", "global")

_TRIAL_STREAM = 201
_PROBE_STREAM = 202

Z95 = 1.959963984540054


class FitError(ValueError):
    """Too few usable points to fit an exponent."""


@dataclass(frozen=True)
class ErrorProbEstimate:
    n: int
    trials: int
    p_under: float
    p_over: float
    p_correct: float
    ci_under: tuple[float, float]
    ci_over: tuple[float, float]
    method: str  # plain_mc | importance_sampling
    ess: float
    low_ess: bool = False


@dataclass(frozen=True)
class ExponentFit:
    slope: float
    intercept: float
    r2: float
    x_axis: str  # "n" | "vn2_over_n"
    points: tuple[tuple[float, float], ...]  # (x, -log p_hat) actually used
    slope_se: float
    n_excluded: int


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval; well behaved at p_hat in {0, 1}.  No trials
    give [0, 1]; successes outside 0..trials raise UsageError."""
    if not 0 <= successes <= max(trials, 0):
        raise UsageError(f"successes = {successes} lies outside 0..trials = {trials}")
    if trials <= 0:
        return (0.0, 1.0)
    p = successes / trials
    zz = Z95 * Z95
    denom = 1.0 + zz / trials
    center = p + zz / (2.0 * trials)
    half = Z95 * math.sqrt(p * (1.0 - p) / trials + zz / (4.0 * trials * trials))
    # the endpoints are exact at the boundary; rounding must not exclude p_hat
    lo = 0.0 if successes == 0 else max(0.0, (center - half) / denom)
    hi = 1.0 if successes == trials else min(1.0, (center + half) / denom)
    return (min(lo, p), max(hi, p))


def _trial(config: ModelConfig, theta: Theta, schedule: PenaltySchedule, n: int,
           seed: int, t: int, k_max: int) -> tuple[Sample, int, int]:
    """Trial t: simulate from theta, profile, estimate.  Returns (sample,
    k_local, k_global); depends only on (seed, t)."""
    sample = simulate(config, theta, n, derive_seed(seed, _TRIAL_STREAM, t))
    prof = profile(sample, config, k_max)
    est = estimate_orders(prof, schedule, k_max)
    return sample, est.k_local, est.k_global


def order_trials(config: ModelConfig, theta_star: Theta, schedule: PenaltySchedule,
                 n: int, trials: int, seed: int, k_max: int,
                 first_trial: int = 0) -> np.ndarray:
    """(trials, 2) array of (k_local, k_global), rows indexed by trial."""
    if trials < 1:
        raise UsageError("trials must be >= 1")
    out = np.empty((trials, 2), dtype=np.int64)
    for i, t in enumerate(range(first_trial, first_trial + trials)):
        out[i] = _trial(config, theta_star, schedule, n, seed, t, k_max)[1:]
    return out


def tally_orders(orders: np.ndarray, k_star: int, estimator: str) -> tuple[int, int, int]:
    """(n_under, n_correct, n_over) for the chosen estimator column."""
    if estimator not in ESTIMATORS:
        raise UsageError(f"estimator must be one of {ESTIMATORS}")
    col = orders[:, 0 if estimator == "local" else 1]
    return int((col < k_star).sum()), int((col == k_star).sum()), int((col > k_star).sum())


def mc_error_probs(config: ModelConfig, theta_star: Theta, schedule: PenaltySchedule,
                   estimator: str, n: int, trials: int, seed: int, k_max: int
                   ) -> ErrorProbEstimate:
    """Plain Monte Carlo estimate of the three order-selection probabilities."""
    k_star = true_order(config, theta_star)
    orders = order_trials(config, theta_star, schedule, n, trials, seed, k_max)
    n_under, n_correct, n_over = tally_orders(orders, k_star, estimator)
    return ErrorProbEstimate(
        n=n, trials=trials,
        p_under=n_under / trials, p_over=n_over / trials, p_correct=n_correct / trials,
        ci_under=wilson_interval(n_under, trials), ci_over=wilson_interval(n_over, trials),
        method="plain_mc", ess=float(trials))


def _weighted_stats(logw: np.ndarray, mask: np.ndarray, trials: int) -> tuple[float, float, float]:
    """(estimate, se, ess) of mean(exp(logw) * mask), computed in log space."""
    if not mask.any():
        return 0.0, 0.0, 0.0
    lw = logw[mask]
    shift = float(lw.max())
    w = np.exp(lw - shift)
    s1 = float(w.sum())
    s2 = float((w * w).sum())
    est = math.exp(shift) * s1 / trials
    mean_sq = math.exp(2.0 * shift) * s2 / trials
    var = max(mean_sq - est * est, 0.0) / trials
    return est, math.sqrt(var), s1 * s1 / s2


def is_underestimation_prob(config: ModelConfig, theta_star: Theta, theta0: Theta | None,
                            schedule: PenaltySchedule, estimator: str, n: int, trials: int,
                            seed: int, k_max: int) -> ErrorProbEstimate:
    """Importance-sampled P*{K_hat < K*}, sampling from theta0 in the K*-1 class.

    theta0 defaults to the divergence projection of theta_star onto the
    (K*-1)-th class, the change of measure matched to the dominant
    underestimation mode.  Each trial is weighted by the likelihood ratio
    exp(ell_n(theta*) - ell_n(theta0)); the weighted tallies of all three
    events are unbiased for the corresponding P*-probabilities.  The reported
    ess is the Kish size (sum w)^2 / sum w^2 of the weights attached to the
    underestimation event, the quantity that governs the p_under estimate;
    trials outside the event carry weight zero there.
    """
    if estimator not in ESTIMATORS:
        raise UsageError(f"estimator must be one of {ESTIMATORS}")
    if n < 1 or trials < 1:
        raise UsageError("need n >= 1 and trials >= 1")
    k_star = true_order(config, theta_star)
    if k_star < 2:
        raise UsageError("underestimation needs K* >= 2")
    if theta0 is None:
        [(_, theta0)] = project_entropy(config, theta_star, (k_star - 1,))
    if true_order(config, theta0) > k_star - 1:
        raise UsageError("theta0 must lie in the (K*-1)-th class")
    logw = np.empty(trials)
    khat = np.empty(trials, dtype=np.int64)
    for t in range(trials):
        sample, k_local, k_global = _trial(config, theta0, schedule, n, seed, t, k_max)
        khat[t] = k_local if estimator == "local" else k_global
        logw[t] = (log_likelihood(config, theta_star, sample)
                   - log_likelihood(config, theta0, sample))
    p_under, se_under, ess = _weighted_stats(logw, khat < k_star, trials)
    p_over, se_over, _ = _weighted_stats(logw, khat > k_star, trials)
    p_correct, _, _ = _weighted_stats(logw, khat == k_star, trials)
    ci_under = (max(0.0, p_under - Z95 * se_under), min(1.0, p_under + Z95 * se_under))
    ci_over = (max(0.0, p_over - Z95 * se_over), min(1.0, p_over + Z95 * se_over))
    return ErrorProbEstimate(
        n=n, trials=trials, p_under=p_under, p_over=p_over, p_correct=p_correct,
        ci_under=ci_under, ci_over=ci_over, method="importance_sampling",
        ess=ess, low_ess=ess < 10.0)


# ---------------------------------------------------------------------------
# Exponent fits
# ---------------------------------------------------------------------------

def _ols(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float, float, float]:
    n = xs.size
    xbar, ybar = xs.mean(), ys.mean()
    sxx = float(((xs - xbar) ** 2).sum())
    if sxx == 0.0:
        raise FitError("x values are all equal")
    slope = float(((xs - xbar) * (ys - ybar)).sum()) / sxx
    intercept = ybar - slope * xbar
    resid = ys - (intercept + slope * xs)
    ss_res = float((resid ** 2).sum())
    ss_tot = float(((ys - ybar) ** 2).sum())
    if ss_res <= 1e-30:
        r2 = 1.0
    elif ss_tot == 0.0:
        r2 = 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    se = math.sqrt(ss_res / (n - 2) / sxx) if n > 2 else math.inf
    return slope, intercept, r2, se


def _fit_on_axis(points, x_of, x_axis: str) -> ExponentFit:
    usable = []
    excluded = 0
    for n, p_hat in points:
        if 0.0 < p_hat < 1.0:
            usable.append((x_of(n), -math.log(p_hat)))
        else:
            excluded += 1
    if len(usable) < 3:
        raise FitError(f"need >= 3 points with p_hat in (0,1); got {len(usable)} "
                       f"({excluded} excluded)")
    xs = np.asarray([u[0] for u in usable])
    ys = np.asarray([u[1] for u in usable])
    slope, intercept, r2, se = _ols(xs, ys)
    return ExponentFit(slope=slope, intercept=intercept, r2=r2, x_axis=x_axis,
                       points=tuple(usable), slope_se=se, n_excluded=excluded)


def fit_exponent(points) -> ExponentFit:
    """Least squares of -log p_hat on n; the slope is the empirical exponent."""
    return _fit_on_axis(points, float, "n")


def fit_moderate_rate(points, schedule: PenaltySchedule) -> ExponentFit:
    """Least squares of -log p_hat on v_n^2 / n (the moderate-deviations speed)."""
    return _fit_on_axis(points, lambda n: schedule.v(n) ** 2 / n, "vn2_over_n")


# ---------------------------------------------------------------------------
# Peeling inequalities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PeelingReport:
    right_side: float
    left_plain: float
    left_scaled: float
    ok_plain: bool
    ok_scaled: bool
    probes_used: int
    probes_skipped: int  # probes with zero divergence, excluded from the scaled class


@functools.lru_cache(maxsize=200_000)
def _probe_divergence(config: ModelConfig, theta_star: Theta, theta: Theta) -> float:
    return kl_divergence(theta_star, theta, config).value


def peeling_assert(sample: Sample, config: ModelConfig, k1: int, k2: int,
                   theta_star: Theta, n_probes: int = 200, tol: float = 1e-9,
                   seed: int = 0) -> PeelingReport:
    """Evaluate both empirical-process inequalities on one dataset.

    Right side: (sup-loglik over the K2-th class minus over the K1-th) / n.
    Left sides: the plain and divergence-renormalized suprema of
    |(P_n - P*)(ell_theta - ell*)|, approximated over a probe cloud that
    always contains the fitted parameters (which provably makes the
    approximated left sides dominate the right side, so the asserted
    direction is exact, not probabilistic).  Probes with zero divergence are
    skipped in the renormalized class.
    """
    k_star = true_order(config, theta_star)
    if not k_star <= k1 <= k2:
        raise UsageError(f"need K* <= K1 <= K2, got K*={k_star}, K1={k1}, K2={k2}")
    n = sample.n
    if n < 1:
        raise UsageError("need a nonempty sample")
    fits = fit(sample, config, sorted({k1, k2}), warm=theta_star)
    fit1, fit2 = fits[0], fits[-1]
    # sup over the K1-th class must dominate ell_n(theta*) for the algebra below
    ll_star = log_likelihood(config, theta_star, sample)
    ll1 = max(fit1.loglik, ll_star)
    right = (fit2.loglik - ll1) / n

    rng = rng_for(seed, _PROBE_STREAM)
    cloud = [random_theta(config, k2, rng) for _ in range(n_probes)]
    probes = [fit1.theta, fit2.theta] + cloud
    lls = [log_likelihood(config, theta, sample) for theta in probes[:2]]
    if config.family is Family.LM and cloud:
        # every cloud probe has K2 components: one stacked (S, n, K2) pass,
        # equal bit for bit to one log_likelihood call per probe
        comps = mixture_log_components(sample.points, [t.weights for t in cloud],
                                       [t.means for t in cloud], config.sigma)
        lls += [float(v) for v in logsumexp_rows(comps).sum(axis=1)]
    else:
        lls += [log_likelihood(config, theta, sample) for theta in cloud]
    left_plain = 0.0
    left_scaled_root = 0.0
    skipped = 0
    for theta, ll in zip(probes, lls):
        emp = (ll - ll_star) / n
        h = _probe_divergence(config, theta_star, theta)
        dev = abs(emp + h)  # (P_n - P*)(ell_theta - ell*) since P* term is -H
        left_plain = max(left_plain, dev)
        if h > 1e-15:
            left_scaled_root = max(left_scaled_root, dev / math.sqrt(h))
        else:
            skipped += 1
    left_scaled = left_scaled_root ** 2
    return PeelingReport(
        right_side=right, left_plain=left_plain, left_scaled=left_scaled,
        ok_plain=right <= left_plain + tol, ok_scaled=right <= left_scaled + tol,
        probes_used=len(probes) - skipped, probes_skipped=skipped)


# ---------------------------------------------------------------------------
# Strong-law trace
# ---------------------------------------------------------------------------

def slln_trace(config: ModelConfig, theta_star: Theta, k: int, n_grid,
               seed: int) -> tuple[tuple[int, float], ...]:
    """sup over the K-th class of (ell_n(theta) - ell_n(theta*)) / n along one
    growing path; converges to minus the class projection distance."""
    n_grid = [int(n) for n in n_grid]
    if not n_grid or any(b <= a for a, b in zip(n_grid, n_grid[1:])) or n_grid[0] < 1:
        raise UsageError("n_grid must be increasing and positive")
    k_star = true_order(config, theta_star)
    full = simulate(config, theta_star, n_grid[-1], seed)
    out = []
    for n in n_grid:
        sub = full.head(n)
        ll = fit(sub, config, (k,), warm=theta_star if k >= k_star else None)[0].loglik
        ll_star = log_likelihood(config, theta_star, sub)
        if k >= k_star:  # theta* is feasible, the supremum cannot fall below it
            ll = max(ll, ll_star)
        out.append((n, (ll - ll_star) / n))
    return tuple(out)
