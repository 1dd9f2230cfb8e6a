"""Maximum-likelihood fitting per family and the per-K profile curve.

- LM: multi-start EM with known sigma, stopped when the log-likelihood gains
  less than EM_TOL or after EM_MAX_ITER steps.  E-step computes posterior
  responsibilities from models.mixture_log_components; M-step sets weights
  to responsibility averages and means to responsibility-weighted means
  clipped to [m_lo, m_hi] (the constrained argmax, so the usual EM ascent
  property survives the clipping).
- VR: maximizing the likelihood is a box-constrained least-squares problem.
  _box_qp runs cyclic coordinate descent with exact clipped coordinate
  updates, which converges to the global optimum of the convex quadratic;
  fit_vr and profile() both call it, each with its own Gram matrix.
- AC: exact dynamic programming over guillotine trees (see guillotine.py).

fit_k() dispatches a single-K fit by family.  profile() fits K = 1..K_top,
warm-starting each level from the embedded previous solution, and enforces
the nestedness property that the maximized log-likelihood never decreases
in K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import logsumexp

from . import guillotine
from .models import (
    Family, ModelConfig, ParameterError, Sample, Theta, ThetaAC, ThetaLM, ThetaVR,
    UsageError, csv_text, embed, log_likelihood, mixture_log_components, rng_for, vr_basis_matrix,
)

K_HARD_CAP = 64  # mixture sizes past this are a usage error, not a model
EM_TOL = 1e-8  # stop EM once a step gains less log-likelihood than this
EM_MAX_ITER = 500
VR_TOL = 1e-10  # coordinate descent stops when no coefficient moves this far
_VR_MAX_SWEEPS = 10000

_EM_STREAM = 101  # rng_for sub-stream tag of the jittered EM starts


@dataclass(frozen=True)
class FitResult:
    theta: Theta
    loglik: float
    iterations: int
    converged: bool
    starts_used: int
    loglik_paths: tuple[tuple[float, ...], ...] | None = None


@dataclass(frozen=True)
class ProfileCurve:
    """Per-K maximized log-likelihood and maximizer, K = 1..k_top."""

    n: int
    family: Family
    entries: tuple[FitResult, ...]

    @property
    def k_top(self) -> int:
        return len(self.entries)

    def result(self, k: int) -> FitResult:
        if not 1 <= k <= self.k_top:
            raise UsageError(f"profile covers K=1..{self.k_top}, asked for {k}")
        return self.entries[k - 1]

    def loglik(self, k: int) -> float:
        return self.result(k).loglik

    def theta(self, k: int) -> Theta:
        return self.result(k).theta

    def logliks(self) -> dict[int, float]:
        return {k: r.loglik for k, r in enumerate(self.entries, start=1)}

    def to_csv(self) -> str:
        return fits_csv(enumerate(self.entries, start=1))


def fits_csv(fits) -> str:
    """CSV of (K, FitResult) pairs, one row each: K,loglik,converged,iterations."""
    return csv_text("K,loglik,converged,iterations",
                    ((k, r.loglik, int(r.converged), r.iterations) for k, r in fits))


# ---------------------------------------------------------------------------
# LM: EM
# ---------------------------------------------------------------------------

def _em_run(z: np.ndarray, config: ModelConfig, w0: np.ndarray,
            m0: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, int, bool, tuple]:
    w = np.asarray(w0, dtype=float).copy()
    m = np.asarray(m0, dtype=float).copy()
    n = z.shape[0]
    if n == 0:
        return w, m, 0.0, 0, True, (0.0,)
    path = []
    prev = -np.inf
    converged = False
    iters = 0

    def eval_ll(w, m):
        comp = mixture_log_components(z, w, m, config.sigma)
        per_obs = logsumexp(comp, axis=1)
        ll = float(per_obs.sum())
        if not math.isfinite(ll):
            raise ParameterError(f"EM at K={w.size}: log-likelihood is {ll}; the data are "
                                 f"too extreme for sigma={config.sigma:g}")
        return comp, per_obs, ll

    for iters in range(1, EM_MAX_ITER + 1):
        comp, per_obs, ll = eval_ll(w, m)
        path.append(ll)
        if ll - prev < EM_TOL:
            converged = True
            break
        prev = ll
        resp = np.exp(comp - per_obs[:, None])
        nk = resp.sum(axis=0)
        w = nk / n
        with np.errstate(invalid="ignore"):
            new_m = resp.T @ z / nk
        m = np.where(nk > 0.0, np.clip(new_m, config.m_lo, config.m_hi), m)
    if not converged:
        path.append(eval_ll(w, m)[2])  # loglik of the params actually returned
    return w, m, path[-1], iters, converged, tuple(path)


def _lm_start_list(z: np.ndarray, k: int, config: ModelConfig, starts: int,
                   seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Quantile-spread means (first start exact, the rest jittered), uniform weights."""
    qs = np.quantile(z, (np.arange(k) + 0.5) / k) if z.size else np.zeros(k)
    qs = np.clip(qs, config.m_lo, config.m_hi)
    uniform = np.full(k, 1.0 / k)
    out = [(uniform.copy(), qs.copy())]
    rng = rng_for(seed, _EM_STREAM, k)
    with np.errstate(over="ignore"):  # inf past a spread of ~1e154: starts at the box ends
        scale = max(float(np.std(z)) if z.size else 0.0, 1e-3)
    for _ in range(starts - 1):
        jitter = 0.5 * scale * rng.standard_normal(k)
        out.append((uniform.copy(), np.clip(qs + jitter, config.m_lo, config.m_hi)))
    return out


def fit_lm_em(sample: Sample, k: int, config: ModelConfig, starts: int = 10,
              extra_inits: list[tuple] | None = None,
              track_paths: bool = False) -> FitResult:
    """Best of `starts` EM runs; ties within 1e-12 go to the earliest start."""
    if config.family is not Family.LM or sample.family is not Family.LM:
        raise UsageError("fit_lm_em needs an LM config and sample")
    if k < 1 or starts < 1:
        raise UsageError("need K >= 1 and starts >= 1")
    if k > K_HARD_CAP:
        raise UsageError(f"K={k} exceeds the hard cap {K_HARD_CAP}")
    z = sample.z
    inits = _lm_start_list(z, k, config, starts, sample.seed)
    if extra_inits:
        inits = [(np.asarray(w, dtype=float), np.asarray(m, dtype=float))
                 for w, m in extra_inits] + inits
    best = None
    paths = []
    for w0, m0 in inits:
        w, m, ll, iters, conv, path = _em_run(z, config, w0, m0)
        paths.append(path)
        if best is None or ll > best[2] + 1e-12:
            best = (w, m, ll, iters, conv)
    w, m, _, iters, conv = best
    theta = ThetaLM(tuple(w / w.sum()), tuple(m))
    return FitResult(theta=theta, loglik=log_likelihood(config, theta, sample),
                     iterations=iters, converged=conv, starts_used=len(inits),
                     loglik_paths=tuple(paths) if track_paths else None)


# ---------------------------------------------------------------------------
# VR: box-constrained least squares by coordinate descent
# ---------------------------------------------------------------------------

def _box_qp(gram: np.ndarray, b: np.ndarray, theta: np.ndarray, lo: float, hi: float,
            tol: float) -> tuple[np.ndarray, int, bool]:
    """Minimize theta' gram theta - 2 b' theta over [lo, hi]^k, starting from
    theta and updating it in place; returns (theta, sweeps, converged)."""
    converged = False
    sweeps = 0
    for sweeps in range(1, _VR_MAX_SWEEPS + 1):
        delta = 0.0
        for j in range(theta.size):
            gjj = gram[j, j]
            if gjj <= 0.0:
                new = 0.0  # basis column vanishes on the data; coefficient is free
            else:
                resid_j = b[j] - (gram[j] @ theta - gjj * theta[j])
                new = min(max(resid_j / gjj, lo), hi)
            delta = max(delta, abs(new - theta[j]))
            theta[j] = new
        if delta < tol:
            converged = True
            break
    return theta, sweeps, converged


def fit_vr(sample: Sample, k: int, config: ModelConfig, tol: float = VR_TOL) -> FitResult:
    """Global optimum of the convex box-constrained quadratic, to tolerance tol."""
    if config.family is not Family.VR or sample.family is not Family.VR:
        raise UsageError("fit_vr needs a VR config and sample")
    if k < 1:
        raise UsageError("K must be >= 1")
    basis = vr_basis_matrix(sample.x, k)
    theta, sweeps, converged = _box_qp(basis.T @ basis, basis.T @ sample.y, np.zeros(k),
                                       config.m_lo, config.m_hi, tol)
    result = ThetaVR(tuple(theta))
    return FitResult(theta=result, loglik=log_likelihood(config, result, sample),
                     iterations=sweeps, converged=converged, starts_used=1)


# ---------------------------------------------------------------------------
# AC: guillotine DP
# ---------------------------------------------------------------------------

def fit_ac(sample: Sample, k: int, config: ModelConfig) -> FitResult:
    """Exact best <=K-leaf tree by dynamic programming."""
    if config.family is not Family.AC or sample.family is not Family.AC:
        raise UsageError("fit_ac needs an AC config and sample")
    if k < 1:
        raise UsageError("K must be >= 1")
    if k > 2 ** config.ac_depth_max:
        raise UsageError(f"K={k} exceeds 2**ac_depth_max = {2 ** config.ac_depth_max}")
    tree, _ = guillotine.fit_tree_empirical(sample.x, sample.y, k, config.ac_depth_max,
                                            config.sigma, config.m_lo, config.m_hi)
    theta = ThetaAC(tree)
    return FitResult(theta=theta, loglik=log_likelihood(config, theta, sample),
                     iterations=1, converged=True, starts_used=1)


def fit_k(sample: Sample, k: int, config: ModelConfig,
          extra_inits: list | None = None) -> FitResult:
    """Family dispatch for a single-K fit; extra_inits are extra LM EM starts."""
    if config.family is Family.LM:
        return fit_lm_em(sample, k, config, extra_inits=extra_inits)
    if config.family is Family.VR:
        return fit_vr(sample, k, config)
    return fit_ac(sample, k, config)


# ---------------------------------------------------------------------------
# Profile curve
# ---------------------------------------------------------------------------

def profile(sample: Sample, config: ModelConfig, k_top: int) -> ProfileCurve:
    """Fit K = 1..k_top with warm starts; enforce monotone loglik via embedding."""
    if k_top < 1:
        raise UsageError("k_top must be >= 1")
    entries: list[FitResult] = []

    if config.family is Family.VR:
        # one basis/Gram build at k_top, coordinate descent on leading blocks
        basis = vr_basis_matrix(sample.x, k_top)
        gram = basis.T @ basis
        b = basis.T @ sample.y
        # each K starts from the (K-1)-th solution padded with a zero
        theta = np.zeros(k_top)
        for k in range(1, k_top + 1):
            head, sweeps, converged = _box_qp(gram[:k, :k], b[:k], theta[:k],
                                              config.m_lo, config.m_hi, VR_TOL)
            th = ThetaVR(tuple(head))
            entries.append(FitResult(th, log_likelihood(config, th, sample), sweeps,
                                     converged, 1))
    else:
        prev: FitResult | None = None
        for k in range(1, k_top + 1):
            extra = None
            if config.family is Family.LM and prev is not None:
                emb = embed(config, prev.theta, k)
                extra = [(emb.weights, emb.means)]
            prev = fit_k(sample, k, config, extra_inits=extra)
            entries.append(prev)

    # nestedness: replace any dip with the embedded previous solution
    for i in range(1, len(entries)):
        if entries[i].loglik < entries[i - 1].loglik:
            emb = embed(config, entries[i - 1].theta, i + 1)
            entries[i] = replace(entries[i - 1], theta=emb, iterations=0,
                                 converged=True, starts_used=0,
                                 loglik=entries[i - 1].loglik)
    return ProfileCurve(n=sample.n, family=config.family, entries=tuple(entries))
