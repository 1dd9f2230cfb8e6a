"""Relative entropies, projections onto the nested classes, and the
projection characterizations used to certify them.

For the Gaussian regression families the divergence between two parameters
is ||f_a - f_b||_2^2 / (2 sigma^2) in L2 of the design measure, which gives
closed forms: a coefficient-difference sum for VR (orthonormal basis) and an
area-weighted mark-difference sum over the overlay partition for AC.  The
same identity makes the two projection directions (class-to-target and
target-to-class) coincide for these families.  project_entropy and
stein_bound take one target and a sequence of K: the target's true order is
found once per call, and for AC one population DP answers every K.

Location mixtures have no closed form; their divergences are computed by
composite Gauss-Legendre quadrature and their projections by local search over
the class from the starts of models.lm_start_means, as LM's EM fits are
(reported as method="optimized", with no claim of global optimality).  Every
LM divergence is one 8-point Gauss-Legendre rule on one kind of grid
(_lm_grid): panels sigma/8 wide, reaching 13 sigmas past the means in play,
and at most 2^16 of them.  A projection minimizes the divergence discretized
on the grid of the box and the target's means, on which the target's
log-density is evaluated once, by a projected BFGS search (_projected_bfgs)
on the exact gradient of that discretized objective.  The forward projection
at K = 1 needs no search: it is the Gaussian at the target's clipped mean.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import guillotine
from .models import (
    Family, ModelConfig, Theta, ThetaAC, ThetaLM, ThetaVR, UsageError, check_k, embed,
    lm_start_means, logsumexp_rows, mixture_log_components, true_order, validate_theta,
)

_PROJECTION_STARTS = 8  # starts of an LM projection search (models.lm_start_means)
_LOGIT_BOUND = 30.0  # the box of a projection's free logits
# _projected_bfgs stops when no projected-gradient entry exceeds _SEARCH_GTOL,
# or after _SEARCH_MAX_STEPS steps; a step is halved at most _SEARCH_HALVINGS
# times to gain _ARMIJO of its first-order decrease.
_SEARCH_GTOL = 1e-8
_SEARCH_MAX_STEPS = 1000
_SEARCH_HALVINGS = 40
_ARMIJO = 1e-4
# The grid of every LM divergence (_lm_grid) reaches this many sigmas past the
# means in play, so it covers their mass, in panels this many sigmas wide; a
# grid of more panels than the cap is refused.
_LM_HALF_WIDTH = 13.0
_LM_PANEL_SIGMAS = 0.125
_LM_MAX_PANELS = 2 ** 16
# The Gauss-Legendre rule of every panel, on [-1, 1].
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


@dataclass(frozen=True)
class EntropyValue:
    value: float
    method: str  # closed_form | quadrature | optimized
    tol: float


# ---------------------------------------------------------------------------
# Closed forms (regression families)
# ---------------------------------------------------------------------------

def kl_regression(theta_a: Theta, theta_b: Theta, config: ModelConfig) -> EntropyValue:
    """H(P_a | P_b) = ||f_a - f_b||^2 / (2 sigma^2) for the VR and AC families."""
    if config.family is Family.LM:
        raise UsageError("no closed form for mixtures; use kl_mixture_quadrature")
    validate_theta(config, theta_a)
    validate_theta(config, theta_b)
    s2 = 2.0 * config.sigma ** 2
    if config.family is Family.VR:
        a = np.asarray(theta_a.coeffs)
        b = np.asarray(theta_b.coeffs)
        k = max(a.size, b.size)
        a = np.pad(a, (0, k - a.size))
        b = np.pad(b, (0, k - b.size))
        return EntropyValue(float(((a - b) ** 2).sum()) / s2, "closed_form", 0.0)
    sq = guillotine.overlay_sq_integral(theta_a.tree, theta_b.tree)
    return EntropyValue(sq / s2, "closed_form", 1e-12)


# ---------------------------------------------------------------------------
# Mixture quadrature
# ---------------------------------------------------------------------------

def _panel_grid(lo: float, hi: float, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite Gauss-Legendre rule on [lo, hi]."""
    edges = np.linspace(lo, hi, panels + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    z = (centers[:, None] + half * _GL_NODES[None, :]).ravel()
    w = (half * np.broadcast_to(_GL_WEIGHTS, (panels, _GL_NODES.size))).ravel()
    return z, w


def _mixture_kl_panels(theta_a: ThetaLM, theta_b: ThetaLM, config: ModelConfig,
                       lo: float, hi: float, panels: int) -> float:
    z, w = _panel_grid(lo, hi, panels)
    la = logsumexp_rows(mixture_log_components(z, theta_a.weights, theta_a.means,
                                               config.sigma))
    lb = logsumexp_rows(mixture_log_components(z, theta_b.weights, theta_b.means,
                                               config.sigma))
    return float(np.sum(w * np.exp(la) * (la - lb)))


def _lm_grid(config: ModelConfig, m_min: float, m_max: float) -> tuple[float, float, int]:
    """(lo, hi, panels) of an LM divergence's grid: [m_min, m_max] widened by
    _LM_HALF_WIDTH sigmas, in panels at most _LM_PANEL_SIGMAS sigmas wide.  A
    grid past _LM_MAX_PANELS panels raises UsageError."""
    sigma = config.sigma
    lo = m_min - _LM_HALF_WIDTH * sigma
    hi = m_max + _LM_HALF_WIDTH * sigma
    panels = math.ceil((hi - lo) / (_LM_PANEL_SIGMAS * sigma))
    if panels > _LM_MAX_PANELS:
        raise UsageError(
            f"LM divergence at sigma={sigma!r} over [{m_min!r}, {m_max!r}] needs "
            f"{panels} panels of sigma/8, more than {_LM_MAX_PANELS}; raise sigma "
            f"or narrow the range")
    return lo, hi, panels


def kl_mixture_quadrature(theta_a: ThetaLM, theta_b: ThetaLM,
                          config: ModelConfig) -> EntropyValue:
    """H(P_a | P_b) for location mixtures on the _lm_grid of both parameters'
    means.  Its tol is the difference from the same range in half as many
    panels, rounded up."""
    if config.family is not Family.LM:
        raise UsageError("kl_mixture_quadrature is for the LM family")
    validate_theta(config, theta_a)
    validate_theta(config, theta_b)
    means = theta_a.means + theta_b.means
    lo, hi, panels = _lm_grid(config, min(means), max(means))
    value = _mixture_kl_panels(theta_a, theta_b, config, lo, hi, panels)
    coarse = _mixture_kl_panels(theta_a, theta_b, config, lo, hi, -(-panels // 2))
    return EntropyValue(value, "quadrature", abs(value - coarse))


def kl_divergence(theta_a: Theta, theta_b: Theta, config: ModelConfig) -> EntropyValue:
    """Family dispatch: closed form for VR/AC, quadrature for LM."""
    if config.family is Family.LM:
        return kl_mixture_quadrature(theta_a, theta_b, config)
    return kl_regression(theta_a, theta_b, config)


# ---------------------------------------------------------------------------
# Projections onto the K-th class, in both directions
# ---------------------------------------------------------------------------

def _decode_lm(x: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Weights and means of the search point x: K-1 free logits (the last
    logit is 0), then K means."""
    if k == 1:
        return np.ones(1), x[:1]
    logits = np.append(x[: k - 1], 0.0)
    w = np.exp(logits - logits.max())
    return w / w.sum(), x[k - 1:]


def _projection_objective(config: ModelConfig, target: ThetaLM, k: int, reverse: bool,
                          lo: float, hi: float, panels: int):
    """x -> (divergence, gradient) on the composite rule over [lo, hi].

    The value is the _mixture_kl_panels sum between target and decoded x:
    H(target | theta) for reverse=False, H(theta | target) for reverse=True.
    The gradient is exact for that sum.  With responsibilities
    r_j = exp(comp_j - l_theta), l_theta has gradient r_j (z - mu_j) / sigma^2
    in mean j and r_i - w_i in free logit i, and the divergence's gradient is
    the quadrature sum of c(z) * grad l_theta(z), with c = -w p_t forward and
    c = w p_theta (l_theta - l_t + 1) reverse.
    """
    sigma = config.sigma
    z, w = _panel_grid(lo, hi, panels)
    l_t = logsumexp_rows(mixture_log_components(z, target.weights, target.means, sigma))
    wp_t = w * np.exp(l_t)

    def objective(x: np.ndarray) -> tuple[float, np.ndarray]:
        weights, means = _decode_lm(x, k)
        comp = mixture_log_components(z, weights, means, sigma)
        l_th = logsumexp_rows(comp)
        if reverse:
            wp_th = w * np.exp(l_th)
            value = float(np.sum(wp_th * (l_th - l_t)))
            c = wp_th * (l_th - l_t + 1.0)
        else:
            value = float(np.sum(wp_t * (l_t - l_th)))
            c = -wp_t
        cr = c[:, None] * np.exp(comp - l_th[:, None])
        # einsum, not a BLAS product, whose summation order can depend on its
        # thread count
        cr_sum = np.einsum("ij->j", cr)
        grad_means = (np.einsum("i,ij->j", z, cr) - cr_sum * means) / sigma ** 2
        grad_logits = cr_sum[: k - 1] - weights[: k - 1] * c.sum()
        return value, np.concatenate([grad_logits, grad_means])

    return objective


def _projection_grid(config: ModelConfig, target: ThetaLM) -> tuple[float, float, int]:
    """The _lm_grid of a projection: over the box and the target's means, so
    it covers every candidate's mass."""
    return _lm_grid(config, min(min(target.means), config.m_lo),
                    max(max(target.means), config.m_hi))


def _projected_bfgs(objective, x0: np.ndarray, lo: np.ndarray,
                    hi: np.ndarray) -> tuple[float, np.ndarray]:
    """(value, point) of a local minimum of objective in the box [lo, hi], from x0.

    A projected quasi-Newton search (Bertsekas 1982, SIAM J. Control Optim.
    20(2)): the coordinates at a bound whose gradient points out of the box are
    held there, the others step along -H g with H a BFGS inverse Hessian on
    them, scaled at its first update by y.s / y.y (Shanno & Phua 1978, Math.
    Programming 14), and the step is halved along the projected path until it
    gains an Armijo fraction of its first-order decrease.  When no step gains,
    H is reset to a projected gradient step, and the search stops when that
    fails too, or when the projected gradient's largest entry is at most
    _SEARCH_GTOL."""
    x = np.clip(x0, lo, hi)
    f, g = objective(x)
    h = None  # the inverse Hessian, from the first update that sees curvature
    for _ in range(_SEARCH_MAX_STEPS):
        if np.max(np.abs(x - np.clip(x - g, lo, hi))) <= _SEARCH_GTOL:
            break
        free = ~(((x <= lo) & (g > 0)) | ((x >= hi) & (g < 0)))
        d = np.zeros_like(x)
        if h is None:
            d[free] = -g[free] / max(1.0, np.max(np.abs(g[free])))
        else:
            d[free] = -np.einsum("ij,j->i", h[np.ix_(free, free)], g[free])
        step = 1.0
        for _ in range(_SEARCH_HALVINGS):
            x_new = np.clip(x + step * d, lo, hi)
            f_new, g_new = objective(x_new)
            if f_new <= f + _ARMIJO * float(np.dot(g, x_new - x)) and f_new < f:
                break
            step *= 0.5
        else:
            if h is None:
                break
            h = None
            continue
        s, y = x_new - x, np.where(free, g_new - g, 0.0)
        sy = float(np.dot(s, y))
        if sy > 1e-12 * math.sqrt(float(np.dot(s, s)) * float(np.dot(y, y))):
            if h is None:
                h = np.eye(x.size) * (sy / float(np.dot(y, y)))
            hy = np.einsum("ij,j->i", h, y)
            h += ((sy + float(np.dot(y, hy))) / sy ** 2 * np.outer(s, s)
                  - (np.outer(hy, s) + np.outer(s, hy)) / sy)
        x, f, g = x_new, f_new, g_new
    return f, x


def _project_lm(config: ModelConfig, target: ThetaLM, k: int,
                reverse: bool) -> tuple[EntropyValue, ThetaLM]:
    """inf over Theta_K of H(target | theta), or of H(theta | target) with
    reverse.  Forward at K = 1 it is attained at N(clip(sum w_i m_i)): the
    divergence is a quadratic in the one mean, plus a constant.  Otherwise
    _projected_bfgs runs from _PROJECTION_STARTS starts on the grid of
    _projection_grid, over logits in [-30, 30] and means in the box; a grid
    past the panel cap is refused in both cases, so whether a sigma projects
    does not depend on K.  The grid only steers the search: the value at the
    optimum is re-evaluated by kl_mixture_quadrature, on the grid of its own
    two parameters' means."""
    grid = _projection_grid(config, target)
    if k == 1 and not reverse:
        mean = np.clip(np.dot(target.weights, target.means), config.m_lo, config.m_hi)
        theta_hat = ThetaLM((1.0,), (float(mean),))
    else:
        objective = _projection_objective(config, target, k, reverse, *grid)
        spread = np.quantile(np.asarray(target.means), (np.arange(k) + 0.5) / k) if k > 1 \
            else np.asarray([float(np.dot(target.weights, target.means))])
        scale = max(config.sigma, (max(target.means) - min(target.means)) / k)
        lo = np.concatenate([np.full(k - 1, -_LOGIT_BOUND), np.full(k, config.m_lo)])
        hi = np.concatenate([np.full(k - 1, _LOGIT_BOUND), np.full(k, config.m_hi)])
        best_val, best_x = math.inf, None
        for means0 in lm_start_means(config, spread, scale, _PROJECTION_STARTS):
            value, x = _projected_bfgs(objective, np.concatenate([np.zeros(k - 1), means0]),
                                       lo, hi)
            if value < best_val:
                best_val, best_x = value, x
        weights, means = _decode_lm(best_x, k)
        theta_hat = ThetaLM(tuple(weights), tuple(means))
    a, b = (theta_hat, target) if reverse else (target, theta_hat)
    acc = kl_mixture_quadrature(a, b, config)
    return EntropyValue(max(acc.value, 0.0), "optimized", max(acc.tol, 1e-6)), theta_hat


def _project(config: ModelConfig, target: Theta, ks: Iterable[int], reverse: bool):
    """(divergence, argmin) at each K of ks, in their order.  The target's
    true order K* and reduced form are found once; below K*, AC reads every K
    from one population DP over K = 1..its leaf count."""
    ks = tuple(ks)
    for k in ks:
        check_k(config, k)
    validate_theta(config, target)
    if isinstance(target, ThetaAC):
        fits = guillotine.fit_tree_population(target.tree, range(1, target.k + 1),
                                              config.ac_depth_max, config.m_lo, config.m_hi)
        k_star = guillotine.exact_leaf_count(lambda k: fits[k - 1], target.k)
        reduced = ThetaAC(fits[k_star - 1][0])
    else:
        k_star = true_order(config, target)
        reduced = _reduced(target, k_star)
    s2 = 2.0 * config.sigma ** 2
    out = []
    for k in ks:
        if k >= k_star:
            out.append((EntropyValue(0.0, "closed_form", 0.0), embed(config, reduced, k)))
        elif config.family is Family.LM:
            out.append(_project_lm(config, target, k, reverse))
        elif config.family is Family.VR:
            coeffs = np.asarray(target.coeffs)
            out.append((EntropyValue(float((coeffs[k:] ** 2).sum()) / s2, "closed_form", 0.0),
                        ThetaVR(tuple(coeffs[:k]))))
        else:
            tree, sse = fits[k - 1]
            out.append((EntropyValue(sse / s2, "closed_form", 1e-12), ThetaAC(tree)))
    return out


def project_entropy(config: ModelConfig, target: Theta, ks: Iterable[int]):
    """H(P_target | Pi_K) and its argmin at each K of ks: the closed forms
    for VR and AC, multi-start local search over Theta_K for LM."""
    return _project(config, target, ks, reverse=False)


def stein_bound(config: ModelConfig, target: Theta, ks: Iterable[int]):
    """H(Pi_K | P_target) and its argmin at each K of ks: at K = K*-1, the
    bound on the underestimation exponent.  It equals project_entropy for VR
    and AC by the L2 identity; LM swaps the divergence's arguments."""
    return _project(config, target, ks, reverse=True)


def _reduced(theta: ThetaLM | ThetaVR, k_star: int) -> ThetaLM | ThetaVR:
    """theta re-expressed in its own true order's class."""
    if isinstance(theta, ThetaVR):
        return ThetaVR(theta.coeffs[:k_star])
    merged: dict[float, float] = {}
    for w, m in zip(theta.weights, theta.means):
        if w > 0.0:
            merged[m] = merged.get(m, 0.0) + w
    w = np.asarray(list(merged.values()))
    return ThetaLM(tuple(w / w.sum()), tuple(merged.keys()))


# ---------------------------------------------------------------------------
# Projection characterizations
# ---------------------------------------------------------------------------

def pythagorean_residual(p: Theta, q_prime: Theta, q: Theta, config: ModelConfig) -> float:
    """H(P|Q) - H(P|Q') - H(Q'|Q); nonnegative for all P in the convex set
    exactly when Q' is the divergence projection of Q onto it."""
    h_pq = kl_divergence(p, q, config).value
    h_pqp = kl_divergence(p, q_prime, config).value
    h_qpq = kl_divergence(q_prime, q, config).value
    return h_pq - h_pqp - h_qpq


@dataclass(frozen=True)
class ReversedProjectionReport:
    min_kl_residual: float
    min_inner_residual: float
    accepted: bool
    argmin_probe: int


def reversed_projection_check_vr(q_coeffs, theta_bar, probe_grid, config: ModelConfig,
                                 tol: float = 1e-9) -> ReversedProjectionReport:
    """Certify theta_bar as the minimizer of H(Q | .) over its class.

    For every probe theta the report evaluates both the three-term divergence
    residual H(Q|P_theta) - H(Q|P_bar) - H(P_bar|P_theta) and its
    inner-product reduction (theta_bar - theta) . (q_head - theta_bar), where
    q_head keeps the first K* coefficients of Q.  theta_bar is accepted iff
    both stay above -tol over the whole grid.
    """
    if config.family is not Family.VR:
        raise UsageError("reversed projection check is implemented for VR")
    q = np.asarray(q_coeffs, dtype=float)
    tb = np.asarray(theta_bar, dtype=float)
    k_star = tb.size
    if q.size < k_star:
        q = np.pad(q, (0, k_star - q.size))
    s2 = 2.0 * config.sigma ** 2
    q_head = q[:k_star]
    tb_full = np.pad(tb, (0, q.size - k_star))
    min_kl = math.inf
    min_inner = math.inf
    worst = math.inf
    argmin = -1
    for i, probe in enumerate(probe_grid):
        th = np.asarray(probe, dtype=float)
        if th.size > k_star:
            raise UsageError(f"probe {i} has {th.size} coefficients, class allows {k_star}")
        if th.size < k_star:
            th = np.pad(th, (0, k_star - th.size))
        th_full = np.pad(th, (0, q.size - th.size))
        r_kl = (float(((q - th_full) ** 2).sum()) - float(((q - tb_full) ** 2).sum())
                - float(((tb_full - th_full) ** 2).sum())) / s2
        r_inner = float((tb - th) @ (q_head - tb))
        if min(r_kl, r_inner) < worst:
            worst = min(r_kl, r_inner)
            argmin = i
        min_kl = min(min_kl, r_kl)
        min_inner = min(min_inner, r_inner)
    accepted = min_kl >= -tol and min_inner >= -tol
    return ReversedProjectionReport(min_kl, min_inner, accepted, argmin)
