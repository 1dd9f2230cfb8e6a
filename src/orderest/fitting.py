"""Maximum-likelihood fitting per family and the per-K profile curve.

- LM: multi-start EM with known sigma, accelerated by SQUAREM (Varadhan &
  Roland 2008, Scand. J. Statist. 35).  An E-pass computes the component
  log-densities (models.mixture_log_components), their log-sum-exp
  (models.logsumexp_rows) and so the log-likelihood; the EM map sets weights
  to responsibility averages and means to responsibility-weighted means
  clipped to [m_lo, m_hi] (the constrained argmax, so the EM ascent property
  survives the clipping).  Each round takes two EM maps theta1, theta2 from
  the current iterate theta0 and extrapolates along them (the S3 step,
  _squarem_point); the extrapolated point is accepted when its
  log-likelihood is at least theta1's, and otherwise the round falls back to
  theta2, so the accepted log-likelihoods never decrease.  A start stops when
  theta1 (or a fall-back) gains less than EM_TOL over theta0, or after
  EM_MAX_ITER E-passes; FitResult.iterations counts E-passes.  _em_run runs
  all starts of one fit as one (S, n, K) batch and freezes each start where
  it stops, so every start follows the path it would follow alone; the best
  start wins, ties within 1e-12 going to the earliest.
- VR: maximizing the likelihood is a box-constrained least-squares problem.
  _vr_optima solves the normal equations of every requested leading block of
  one Gram matrix in a single batch; a solution inside the box is the exact
  optimum of the convex quadratic.  The identity padding and block masks of a
  set of blocks are built once and kept (_vr_blocks), and when every block's
  solution lies inside the box _vr_optima returns at once.  Where a bound
  binds or a block is singular, _box_qp (cyclic coordinate descent with exact
  clipped coordinate updates) finishes from the previous block's optimum.
  fit_vr asks for one block, profile() for all of K = 1..K_top; both read the
  sample's own basis (Sample.vr_basis), so neither rebuilds it.
- AC: exact dynamic programming over guillotine trees (see guillotine.py).

fit_k() dispatches a single-K fit by family and passes its warm= parameter
to fit_lm_em, which embeds it (a parameter of a class <= K) into the K-th
class as the first EM start, the one warm start rule; the exact VR and AC
fits need none.  profile() fits K = 1..K_top, warm from the previous level,
and enforces that the maximized log-likelihood never decreases in K.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from . import guillotine
from .models import (
    Family, ModelConfig, ParameterError, Sample, Theta, ThetaAC, ThetaLM, ThetaVR,
    UsageError, csv_text, embed, log_likelihood, logsumexp_rows, mixture_log_components,
    regression_log_densities, rng_for,
)

K_HARD_CAP = 64  # mixture sizes past this are a usage error, not a model
EM_TOL = 1e-8  # stop EM once an EM step gains less log-likelihood than this
EM_MAX_ITER = 500  # E-passes (log-likelihood evaluations) per EM start
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

def _em_map(z: np.ndarray, comp: np.ndarray, per_obs: np.ndarray, theta: np.ndarray,
            lo: float, hi: float) -> np.ndarray:
    """The EM map F from the E-pass (comp, per_obs) of the (S, 2K) parameters
    theta, weights then means: weights become responsibility averages and
    means responsibility-weighted means clipped to [lo, hi].  A component with
    no responsibility keeps weight 0 and its mean."""
    k = comp.shape[2]
    resp = np.exp(comp - per_obs[:, :, None])
    nk = resp.sum(axis=1)
    with np.errstate(invalid="ignore"):
        new_m = resp.transpose(0, 2, 1) @ z / nk
    out = np.empty_like(theta)
    out[:, :k] = nk / z.shape[0]
    out[:, k:] = np.where(nk > 0.0, np.clip(new_m, lo, hi), theta[:, k:])
    return out


def _squarem_point(t0, t1, t2, step_max, lo: float, hi: float):
    """SQUAREM's S3 extrapolation from theta0 and its two EM maps
    theta1 = F(theta0), theta2 = F(theta1), given as (S, 2K) rows of weights
    then means.

    With r = theta1 - theta0 and v = theta2 - theta1 - r, the step length is
    |r|/|v|, bounded to [1, step_max], and the point theta0 + 2 a r + a^2 v
    (alpha = -a in Varadhan & Roland's sign).  While one of its weights is
    negative, or one of its numbers is not finite, a moves halfway toward 1.
    Then the weights are renormalised and the means clipped to [lo, hi].  A
    row whose a ends at 1 gets theta2 itself.  Returns the points, which rows
    moved off theta2, and which rows reached step_max.
    """
    k = t0.shape[1] // 2
    r = t1 - t0
    v = t2 - t1 - r
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.sqrt((r * r).sum(axis=1) / (v * v).sum(axis=1))
    at_max = ratio >= step_max
    a = np.where(ratio > 1.0, np.minimum(ratio, step_max), 1.0)  # 0/0 gives 1
    out = t2.copy()
    todo = np.flatnonzero(a > 1.0)
    while todo.size:
        at = a[todo, None]
        with np.errstate(over="ignore", invalid="ignore"):
            x = t0[todo] + 2.0 * at * r[todo] + at * at * v[todo]
            total = x[:, :k].sum(axis=1)
            ok = (x[:, :k] >= 0.0).all(axis=1) & (total > 0.0) & np.isfinite(x.sum(axis=1))
        x = x[ok]
        x[:, :k] /= total[ok, None]
        x[:, k:] = np.clip(x[:, k:], lo, hi)
        out[todo[ok]] = x
        todo = todo[~ok]
        a[todo] = 0.5 * (a[todo] + 1.0)
        todo = todo[a[todo] > 1.0]
    return out, a > 1.0, at_max


def _em_run(z: np.ndarray, config: ModelConfig, w0: np.ndarray, m0: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray, list[float], np.ndarray, np.ndarray, list]:
    """SQUAREM-accelerated EM from S starts at once: w0, m0 are (S, K), one
    start per row.

    Every round, each running start theta0 takes two EM maps, theta1 and
    theta2, and their S3 extrapolation theta' (_squarem_point).  theta' is
    accepted when its log-likelihood is at least theta1's; otherwise the round
    falls back to theta2.  A start's step bound begins at 1, grows 4-fold after
    a round whose step reached it, and shrinks 4-fold (not below 1) when such a
    step is rejected.  A start stops at the first theta1 or fall-back that
    gains less than EM_TOL over theta0 (converged), or once it has taken
    EM_MAX_ITER E-passes, at its best evaluated EM iterate.  All running starts
    share one (S, n, K) array per E-pass and a start is frozen where it stops,
    so every start follows the path it would follow alone.  Returns per start,
    in order: weights, means, final loglik, E-passes, converged and the loglik
    path of its accepted iterates.
    """
    theta = np.concatenate([np.array(w0, dtype=float), np.array(m0, dtype=float)], axis=1)
    n_starts, k = theta.shape[0], theta.shape[1] // 2
    if z.shape[0] == 0:
        return (theta[:, :k], theta[:, k:], [0.0] * n_starts, np.zeros(n_starts, dtype=int),
                np.ones(n_starts, dtype=bool), [(0.0,)] * n_starts)
    lo, hi = config.m_lo, config.m_hi
    paths: list[list[float]] = [[] for _ in range(n_starts)]
    passes = np.zeros(n_starts, dtype=int)
    converged = np.zeros(n_starts, dtype=bool)

    def e_pass(run, t, strict=True):
        """Component log-densities, per-point and total loglik of the
        parameters t of the starts run; a non-finite loglik is an error
        where strict."""
        comp = mixture_log_components(z, t[:, :k], t[:, k:], config.sigma)
        per_obs = logsumexp_rows(comp)
        ll = per_obs.sum(axis=1)
        passes[run] += 1
        bad = strict & ~np.isfinite(ll)
        if bad.any():
            raise ParameterError(f"EM at K={k}: log-likelihood is {ll[bad][0]}; the data "
                                 f"are too extreme for sigma={config.sigma:g}")
        return comp, per_obs, ll

    def log_path(starts, ll):
        for s, v in zip(starts, ll.tolist()):
            paths[s].append(v)

    def finish(out, t, conv):
        """Freeze the starts run[out] at t; returns the mask of the others."""
        theta[run[out]] = t[out]
        converged[run[out]] = conv[out]
        return ~out

    run = np.arange(n_starts)
    state = [theta.copy(), *e_pass(run, theta), np.ones(n_starts)]
    log_path(run, state[3])
    keep = finish(passes >= EM_MAX_ITER, state[0], converged)
    while True:
        run, (t0, c0, p0, l0, step_max) = run[keep], [a[keep] for a in state]
        if run.size == 0:
            break
        t1 = _em_map(z, c0, p0, t0, lo, hi)
        c1, p1, l1 = e_pass(run, t1)
        stop = l1 - l0 < EM_TOL
        out = stop | (passes[run] >= EM_MAX_ITER)
        if out.any():
            log_path(run[out], l1[out])
            keep = finish(out, t1, stop)
            run, t0, l0, step_max, t1, c1, p1, l1 = (
                a[keep] for a in (run, t0, l0, step_max, t1, c1, p1, l1))
            if run.size == 0:
                break
        t2 = _em_map(z, c1, p1, t1, lo, hi)
        ta, moved, at_max = _squarem_point(t0, t1, t2, step_max, lo, hi)
        ca, pa, la = e_pass(run, ta, strict=~moved)
        back = moved & ~(la >= l1)  # theta' rejected
        if back.any():
            # at the cap the start ends at theta1, else it falls back to theta2
            at_cap = back & (passes[run] >= EM_MAX_ITER)
            ta[at_cap], ca[at_cap], pa[at_cap], la[at_cap] = (
                t1[at_cap], c1[at_cap], p1[at_cap], l1[at_cap])
            fall = np.flatnonzero(back & ~at_cap)
            if fall.size:
                ta[fall] = t2[fall]
                ca[fall], pa[fall], la[fall] = e_pass(run[fall], ta[fall])
        if at_max.any():
            step_max = np.where(at_max, np.where(back, np.maximum(step_max / 4.0, 1.0),
                                                 step_max * 4.0), step_max)
        log_path(run, la)
        stop = la - l0 < EM_TOL
        keep = finish(stop | (passes[run] >= EM_MAX_ITER), ta, stop)
        state = [ta, ca, pa, la, step_max]
    return theta[:, :k], theta[:, k:], [path[-1] for path in paths], passes, converged, paths


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
              warm: Theta | None = None, track_paths: bool = False) -> FitResult:
    """Best of `starts` EM runs, plus one from warm (a parameter of a class
    <= K, embedded into the K-th) run first when given; ties within 1e-12 go
    to the earliest start."""
    if config.family is not Family.LM or sample.family is not Family.LM:
        raise UsageError("fit_lm_em needs an LM config and sample")
    if k < 1 or starts < 1:
        raise UsageError("need K >= 1 and starts >= 1")
    if k > K_HARD_CAP:
        raise UsageError(f"K={k} exceeds the hard cap {K_HARD_CAP}")
    z = sample.z
    inits = _lm_start_list(z, k, config, starts, sample.seed)
    if warm is not None:
        emb = embed(config, warm, k)
        inits.insert(0, (np.asarray(emb.weights), np.asarray(emb.means)))
    w, m, lls, iters, conv, paths = _em_run(z, config, [w for w, _ in inits],
                                            [m for _, m in inits])
    best = 0
    for i in range(1, len(inits)):
        if lls[i] > lls[best] + 1e-12:
            best = i
    w, m = w[best], m[best]
    theta = ThetaLM(tuple(w / w.sum()), tuple(m))
    return FitResult(theta=theta, loglik=log_likelihood(config, theta, sample),
                     iterations=int(iters[best]), converged=bool(conv[best]),
                     starts_used=len(inits),
                     loglik_paths=tuple(map(tuple, paths)) if track_paths else None)


# ---------------------------------------------------------------------------
# VR: box-constrained least squares
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


@functools.lru_cache(maxsize=64)
def _vr_blocks(ks: tuple[int, ...], top: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(inside, block mask, identity) for _vr_optima: inside[i, j] marks
    j < ks[i], the mask the entries of block i, and the identity pads each
    block to top x top.  Kept per (ks, top) and read-only."""
    inside = np.arange(top) < np.asarray(ks)[:, None]
    out = (inside, inside[:, :, None] & inside[:, None, :], np.eye(top))
    for a in out:
        a.setflags(write=False)
    return out


def _vr_optima(gram: np.ndarray, b: np.ndarray, ks: tuple[int, ...], lo: float, hi: float,
               tol: float) -> tuple[np.ndarray, list[int], list[bool]]:
    """Minimize theta' gram theta - 2 b' theta over [lo, hi]^k on each leading
    block gram[:k, :k], k in ks (increasing); returns (coeffs, sweeps, converged)
    with row i of coeffs the optimum for ks[i], padded with zeros.

    Every block's normal equations are solved in one batch, each padded to full
    size with the identity.  A solution inside [lo, hi] is the exact optimum
    (0 sweeps), and when every block's is, that is the answer; the zero
    padding always lies in the box, since VR needs lo <= 0 <= hi.  Otherwise a
    bound binds or the block is singular, and _box_qp runs from the previous
    block's optimum padded with a zero, to tolerance tol.
    """
    top = gram.shape[0]
    inside, block_mask, eye = _vr_blocks(ks, top)
    try:
        coeffs = np.linalg.solve(np.where(block_mask, gram, eye),
                                 np.where(inside, b, 0.0)[..., None])[..., 0]
        coeffs = np.where(inside, coeffs, 0.0)
    except np.linalg.LinAlgError:  # one singular block fails the batch
        coeffs = np.full(inside.shape, np.nan)
    solved = ((lo <= coeffs) & (coeffs <= hi)).all(axis=1)
    sweeps = [0] * len(ks)
    converged = [True] * len(ks)
    if solved.all():
        return coeffs, sweeps, converged
    theta = np.zeros(top)
    for i, k in enumerate(ks):
        if solved[i]:
            theta[:k] = coeffs[i, :k]
            continue
        _, sweeps[i], converged[i] = _box_qp(gram[:k, :k], b[:k], theta[:k], lo, hi, tol)
        coeffs[i] = theta  # still zero past k
    return coeffs, sweeps, converged


def _vr_normal_equations(sample: Sample, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(basis, gram, b) of the least-squares problem over the first k basis
    columns.  The basis is made contiguous first: a Gram matrix taken on a
    strided view of a wider basis can differ in the last bit."""
    basis = np.ascontiguousarray(sample.vr_basis(k))
    return basis, basis.T @ basis, basis.T @ sample.y


def fit_vr(sample: Sample, k: int, config: ModelConfig) -> FitResult:
    """Global optimum of the convex box-constrained quadratic."""
    if config.family is not Family.VR or sample.family is not Family.VR:
        raise UsageError("fit_vr needs a VR config and sample")
    if k < 1:
        raise UsageError("K must be >= 1")
    _, gram, b = _vr_normal_equations(sample, k)
    coeffs, sweeps, converged = _vr_optima(gram, b, (k,), config.m_lo, config.m_hi, VR_TOL)
    result = ThetaVR(coeffs[0].tolist())
    return FitResult(theta=result, loglik=log_likelihood(config, result, sample),
                     iterations=sweeps[0], converged=converged[0], starts_used=1)


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
          warm: Theta | None = None) -> FitResult:
    """Family dispatch for a single-K fit; warm, a parameter of a class <= K,
    is LM's first EM start (the exact VR and AC fits ignore it)."""
    if config.family is Family.LM:
        return fit_lm_em(sample, k, config, warm=warm)
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
        if sample.family is not Family.VR:
            raise UsageError("profile needs a VR sample for a VR config")
        # one basis at k_top: every K's optimum and log-likelihood come from it
        basis, gram, b = _vr_normal_equations(sample, k_top)
        coeffs, sweeps, converged = _vr_optima(gram, b, tuple(range(1, k_top + 1)),
                                               config.m_lo, config.m_hi, VR_TOL)
        logliks = regression_log_densities(sample.y, coeffs @ basis.T,
                                           config.sigma).sum(axis=1).tolist()
        for k, row in enumerate(coeffs.tolist(), start=1):
            entries.append(FitResult(ThetaVR(row[:k]), logliks[k - 1], sweeps[k - 1],
                                     converged[k - 1], 1))
    else:
        prev: FitResult | None = None
        for k in range(1, k_top + 1):
            prev = fit_k(sample, k, config, warm=prev and prev.theta)
            entries.append(prev)

    # nestedness: replace any dip with the embedded previous solution
    for i in range(1, len(entries)):
        if entries[i].loglik < entries[i - 1].loglik:
            emb = embed(config, entries[i - 1].theta, i + 1)
            entries[i] = replace(entries[i - 1], theta=emb, iterations=0,
                                 converged=True, starts_used=0,
                                 loglik=entries[i - 1].loglik)
    return ProfileCurve(n=sample.n, family=config.family, entries=tuple(entries))
