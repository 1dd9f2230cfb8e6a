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
of global optimality).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.special import logsumexp

from . import guillotine
from .models import (
    Family, ModelConfig, Theta, ThetaAC, ThetaLM, ThetaVR, UsageError, embed,
    mixture_log_components, rng_for, true_order, validate_theta,
)

_PROJECTION_STREAM = 301


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

def _mixture_kl_panels(theta_a: ThetaLM, theta_b: ThetaLM, config: ModelConfig,
                       lo: float, hi: float, panels: int, nodes: int = 8) -> float:
    pts, wts = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(lo, hi, panels + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    z = (centers[:, None] + half * pts[None, :]).ravel()
    w = (half * np.broadcast_to(wts, (panels, nodes))).ravel()
    la = logsumexp(mixture_log_components(z, theta_a.weights, theta_a.means, config.sigma),
                   axis=1)
    lb = logsumexp(mixture_log_components(z, theta_b.weights, theta_b.means, config.sigma),
                   axis=1)
    return float(np.sum(w * np.exp(la) * (la - lb)))


def _quad_interval(theta_a: ThetaLM, theta_b: ThetaLM, config: ModelConfig,
                   half_width_sigmas: float) -> tuple[float, float]:
    means = theta_a.means + theta_b.means
    return (min(means) - half_width_sigmas * config.sigma,
            max(means) + half_width_sigmas * config.sigma)


def kl_mixture_quadrature(theta_a: ThetaLM, theta_b: ThetaLM, config: ModelConfig,
                          half_width_sigmas: float = 12.0, panels: int = 400,
                          target_tol: float = 1e-8, max_panels: int = 25600) -> EntropyValue:
    """H(P_a | P_b) for location mixtures by composite Gauss-Legendre panels.

    Panels double until two successive estimates differ by less than
    target_tol; past max_panels the best value is returned with the achieved
    difference as its (large) tol.
    """
    if config.family is not Family.LM:
        raise UsageError("kl_mixture_quadrature is for the LM family")
    validate_theta(config, theta_a)
    validate_theta(config, theta_b)
    lo, hi = _quad_interval(theta_a, theta_b, config, half_width_sigmas)
    value = _mixture_kl_panels(theta_a, theta_b, config, lo, hi, panels)
    achieved = math.inf
    while panels < max_panels:
        panels *= 2
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

def _project_lm(config: ModelConfig, target: ThetaLM, k: int, reverse: bool,
                starts: int, seed: int) -> tuple[EntropyValue, ThetaLM]:
    """Multi-start local search for inf over Theta_K of the mixture divergence.

    reverse=False minimizes H(target | theta); reverse=True minimizes
    H(theta | target).  Fixed-panel quadrature keeps the objective smooth for
    the finite-difference gradients; the reported value is re-evaluated with
    the adaptive quadrature at the optimum.
    """
    # fixed node grid wide enough for any candidate in the box: the objective
    # stays smooth under the optimizer's finite differences
    lo_z = min(min(target.means), config.m_lo) - 13.0 * config.sigma
    hi_z = max(max(target.means), config.m_hi) + 13.0 * config.sigma
    opt_panels = 600

    def decode(x: np.ndarray) -> ThetaLM:
        if k == 1:
            return ThetaLM((1.0,), (float(x[0]),))
        logits = np.append(x[: k - 1], 0.0)
        w = np.exp(logits - logits.max())
        w = w / w.sum()
        return ThetaLM(tuple(w), tuple(float(v) for v in x[k - 1:]))

    def objective(x: np.ndarray) -> float:
        th = decode(x)
        a, b = (th, target) if reverse else (target, th)
        return _mixture_kl_panels(a, b, config, lo_z, hi_z, opt_panels)

    spread = np.quantile(np.asarray(target.means), (np.arange(k) + 0.5) / k) if k > 1 \
        else np.asarray([float(np.dot(target.weights, target.means))])
    spread = np.clip(spread, config.m_lo, config.m_hi)
    rng = rng_for(seed, _PROJECTION_STREAM, k)
    scale = max(config.sigma, (max(target.means) - min(target.means)) / max(k, 1))
    bounds = ([(-30.0, 30.0)] * (k - 1)) + [(config.m_lo, config.m_hi)] * k
    best_val, best_x = math.inf, None
    for s in range(starts):
        means0 = spread if s == 0 else np.clip(
            spread + 0.5 * scale * rng.standard_normal(k), config.m_lo, config.m_hi)
        x0 = np.concatenate([np.zeros(k - 1), means0])
        res = minimize(objective, x0, method="L-BFGS-B", bounds=bounds)
        if res.fun < best_val:
            best_val, best_x = float(res.fun), res.x
    theta_hat = decode(best_x)
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


def _project(config: ModelConfig, target: Theta, k: int, return_argmin: bool,
             starts: int, seed: int, reverse: bool):
    if k < 1:
        raise UsageError("K must be >= 1")
    validate_theta(config, target)
    if true_order(config, target) <= k:
        out = EntropyValue(0.0, "closed_form", 0.0)
        argmin = embed(config, _reduced(config, target), k)
    elif config.family is Family.LM:
        out, argmin = _project_lm(config, target, k, reverse, starts, seed)
    else:
        out, argmin = _project_regression(config, target, k)
    return (out, argmin) if return_argmin else out


def project_entropy(config: ModelConfig, target: Theta, k: int,
                    return_argmin: bool = False, starts: int = 8, seed: int = 7):
    """H(P_target | Pi_K): distance from the target to the K-th class.

    Closed form for VR (orthonormal tail sum) and AC (population tree DP);
    multi-start local search over Theta_K for LM.
    """
    return _project(config, target, k, return_argmin, starts, seed, reverse=False)


def stein_bound(config: ModelConfig, target: Theta, k: int,
                return_argmin: bool = False, starts: int = 8, seed: int = 7):
    """H(Pi_K | P_target): the class-to-target infimum.

    This is the quantity bounding the achievable underestimation error
    exponent (at K = K*-1).  For the Gaussian regression families it equals
    project_entropy by the L2 identity; for LM the optimization runs with the
    divergence arguments swapped.
    """
    return _project(config, target, k, return_argmin, starts, seed, reverse=True)


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
