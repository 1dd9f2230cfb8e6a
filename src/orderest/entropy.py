"""Relative entropies, projections onto the nested classes, and the
projection characterizations used to certify them.

For the Gaussian regression families the divergence between two parameters
is ||f_a - f_b||_2^2 / (2 sigma^2) in L2 of the design measure, which gives
closed forms: a coefficient-difference sum for VR (orthonormal basis) and an
area-weighted mark-difference sum over the overlay partition for AC.  The
same identity makes the two projection directions (class-to-target and
target-to-class) coincide for these families.

Location mixtures have no closed form; their divergences are computed by
composite Gauss-Legendre quadrature and their projections by multi-start
local search over the class (reported as method="optimized", with no claim
of global optimality).  Every quadrature uses one 8-point Gauss-Legendre
rule.  A projection minimizes the divergence discretized on one fixed panel
grid, on which the target's log-density is evaluated once, and L-BFGS-B
gets the exact gradient of that discretized objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from . import guillotine
from .models import (
    Family, ModelConfig, Theta, ThetaAC, ThetaLM, ThetaVR, UsageError, embed,
    logsumexp_rows, mixture_log_components, rng_for, true_order, validate_theta,
)

_PROJECTION_STREAM = 301
_PROJECTION_STARTS = 8  # L-BFGS starts of an LM projection
_PROJECTION_SEED = 7  # seed of their jitter
_QUAD_HALF_WIDTH = 12.0  # quadrature reaches this many sigmas past the outermost means
# The projection grid reaches this many sigmas past the box and the target's
# means, so it covers every candidate's mass; it has this many panels.
_PROJECTION_HALF_WIDTH = 13.0
_PROJECTION_PANELS = 600
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


def kl_mixture_quadrature(theta_a: ThetaLM, theta_b: ThetaLM, config: ModelConfig,
                          panels: int = 400, target_tol: float = 1e-8,
                          max_panels: int = 25600) -> EntropyValue:
    """H(P_a | P_b) for location mixtures by composite Gauss-Legendre panels.

    Panels double, the last step capped at max_panels, until two successive
    estimates differ by less than target_tol; at max_panels the finest value
    is returned with the achieved difference as its (large) tol.
    """
    if config.family is not Family.LM:
        raise UsageError("kl_mixture_quadrature is for the LM family")
    if panels < 1:
        raise UsageError(f"panels must be >= 1, got {panels!r}")
    if max_panels < panels:
        raise UsageError(f"max_panels must be >= panels ({panels}), got {max_panels!r}")
    if not (math.isfinite(target_tol) and target_tol > 0.0):
        raise UsageError(f"target_tol must be finite and > 0, got {target_tol!r}")
    validate_theta(config, theta_a)
    validate_theta(config, theta_b)
    means = theta_a.means + theta_b.means
    lo = min(means) - _QUAD_HALF_WIDTH * config.sigma
    hi = max(means) + _QUAD_HALF_WIDTH * config.sigma
    value = _mixture_kl_panels(theta_a, theta_b, config, lo, hi, panels)
    achieved = math.inf
    while panels < max_panels:
        panels = min(2 * panels, max_panels)
        refined = _mixture_kl_panels(theta_a, theta_b, config, lo, hi, panels)
        achieved = abs(refined - value)
        value = refined
        if achieved < target_tol:
            break
    return EntropyValue(max(value, 0.0), "quadrature", achieved)


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


def _project_lm(config: ModelConfig, target: ThetaLM, k: int,
                reverse: bool) -> tuple[EntropyValue, ThetaLM]:
    """Multi-start local search for inf over Theta_K of the mixture divergence.

    reverse=False minimizes H(target | theta); reverse=True minimizes
    H(theta | target).  L-BFGS-B minimizes the divergence discretized on one
    fixed panel grid, wide enough for any candidate in the box, with the exact
    gradient of that sum (_projection_objective); the reported value is
    re-evaluated with the adaptive quadrature at the optimum.
    """
    lo_z = min(min(target.means), config.m_lo) - _PROJECTION_HALF_WIDTH * config.sigma
    hi_z = max(max(target.means), config.m_hi) + _PROJECTION_HALF_WIDTH * config.sigma
    objective = _projection_objective(config, target, k, reverse, lo_z, hi_z,
                                      _PROJECTION_PANELS)

    spread = np.quantile(np.asarray(target.means), (np.arange(k) + 0.5) / k) if k > 1 \
        else np.asarray([float(np.dot(target.weights, target.means))])
    spread = np.clip(spread, config.m_lo, config.m_hi)
    rng = rng_for(_PROJECTION_SEED, _PROJECTION_STREAM, k)
    scale = max(config.sigma, (max(target.means) - min(target.means)) / max(k, 1))
    bounds = ([(-30.0, 30.0)] * (k - 1)) + [(config.m_lo, config.m_hi)] * k
    best_val, best_x = math.inf, None
    for s in range(_PROJECTION_STARTS):
        means0 = spread if s == 0 else np.clip(
            spread + 0.5 * scale * rng.standard_normal(k), config.m_lo, config.m_hi)
        x0 = np.concatenate([np.zeros(k - 1), means0])
        res = minimize(objective, x0, method="L-BFGS-B", jac=True, bounds=bounds)
        if res.fun < best_val:
            best_val, best_x = float(res.fun), res.x
    weights, means = _decode_lm(best_x, k)
    theta_hat = ThetaLM(tuple(weights), tuple(means))
    a, b = (theta_hat, target) if reverse else (target, theta_hat)
    acc = kl_mixture_quadrature(a, b, config)
    return EntropyValue(max(acc.value, 0.0), "optimized", max(acc.tol, 1e-6)), theta_hat


def _project_regression(config: ModelConfig, target: Theta, k: int) -> tuple[EntropyValue, Theta]:
    if config.family is Family.VR:
        coeffs = np.asarray(target.coeffs)
        tail = float((coeffs[k:] ** 2).sum()) if coeffs.size > k else 0.0
        head = tuple(coeffs[:k]) + (0.0,) * max(0, k - coeffs.size)
        return (EntropyValue(tail / (2.0 * config.sigma ** 2), "closed_form", 0.0),
                ThetaVR(head))
    tree, sse = guillotine.fit_tree_population(target.tree, k, config.ac_depth_max,
                                               config.m_lo, config.m_hi)
    return (EntropyValue(sse / (2.0 * config.sigma ** 2), "closed_form", 1e-12),
            ThetaAC(tree))


def _project(config: ModelConfig, target: Theta, k: int, return_argmin: bool, reverse: bool):
    if k < 1:
        raise UsageError("K must be >= 1")
    validate_theta(config, target)
    if true_order(config, target) <= k:
        out = EntropyValue(0.0, "closed_form", 0.0)
        argmin = embed(config, _reduced(config, target), k)
    elif config.family is Family.LM:
        out, argmin = _project_lm(config, target, k, reverse)
    else:
        out, argmin = _project_regression(config, target, k)
    return (out, argmin) if return_argmin else out


def project_entropy(config: ModelConfig, target: Theta, k: int, return_argmin: bool = False):
    """H(P_target | Pi_K): distance from the target to the K-th class.

    Closed form for VR (orthonormal tail sum) and AC (population tree DP);
    multi-start local search over Theta_K for LM.
    """
    return _project(config, target, k, return_argmin, reverse=False)


def stein_bound(config: ModelConfig, target: Theta, k: int, return_argmin: bool = False):
    """H(Pi_K | P_target): the class-to-target infimum.

    This is the quantity bounding the achievable underestimation error
    exponent (at K = K*-1).  For the Gaussian regression families it equals
    project_entropy by the L2 identity; for LM the optimization runs with the
    divergence arguments swapped.
    """
    return _project(config, target, k, return_argmin, reverse=True)


def _reduced(config: ModelConfig, theta: Theta) -> Theta:
    """theta re-expressed in its own true order's class."""
    k_star = true_order(config, theta)
    if isinstance(theta, ThetaLM):
        merged: dict[float, float] = {}
        for w, m in zip(theta.weights, theta.means):
            if w > 0.0:
                merged[m] = merged.get(m, 0.0) + w
        w = np.asarray(list(merged.values()))
        return ThetaLM(tuple(w / w.sum()), tuple(merged.keys()))
    if isinstance(theta, ThetaVR):
        return ThetaVR(theta.coeffs[:k_star])
    tree, _ = guillotine.fit_tree_population(theta.tree, k_star, config.ac_depth_max,
                                             config.m_lo, config.m_hi)
    return ThetaAC(tree)


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
