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
  EM_MAX_ITER E-passes, at the better of the two (theta0 when the last step
  lost log-likelihood to rounding).  FitResult.iterations counts E-passes,
  and its weights are EM's own, as evaluated.  _em_run runs all starts of
  one fit as one (S, n, K) batch and freezes each start where it stops, so
  every start follows the path it would follow alone; the best start wins,
  ties within 1e-12 going to the earliest.  The 9 starts are z's
  quantile means and 4 mirrored pairs of fixed jitters (models.lm_start_means),
  all with uniform weights: a fit reads the data alone.
- VR: maximizing the likelihood is a box-constrained least-squares problem,
  solved in one place, _vr_fits: one contiguous basis B at the largest K
  asked (read from the sample, Sample.vr_basis), the statistics G = B'B and
  b = B'y, every K's optimum from _vr_optima, and every K's log-likelihood
  from one residual pass.  _vr_optima solves the normal equations of every
  requested leading block of G in a single batch; a solution inside the box
  is the exact optimum of the convex quadratic.  The identity padding and
  block masks of a set of blocks are built once and kept (_vr_blocks).
  Where a bound binds or a block is singular, _box_lsq (a finite active-set
  method) solves that block alone from zero: every VR fit is exact, and
  FitResult.iterations counts its active-set changes, whatever other K the
  call asked.
- AC: exact dynamic programming over guillotine trees (see guillotine.py).
  fit_ac builds one DP per call and asks it for every K it is given.

fit(sample, config, ks, warm) is the one family dispatch: the fits of one
sample at the increasing K of ks, VR and AC in one call each and LM one K at
a time, each K warm from the fit before it and the first from warm (a
parameter of a class <= ks[0]), which fit_lm_em embeds into the K-th class as
the first EM start, the one warm start rule; the exact VR and AC fits need
none.  profile() is fit over K = 1..K_top, repaired so that the maximized
log-likelihood never decreases in K.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterable
from dataclasses import dataclass, replace

import numpy as np

from . import guillotine
from .models import (
    Family, ModelConfig, ParameterError, Sample, Theta, ThetaAC, ThetaLM, ThetaVR,
    UsageError, check_k, csv_text, embed, lm_start_means, log_likelihood, logsumexp_rows,
    mixture_log_components, regression_log_densities,
)

EM_TOL = 1e-8  # stop EM once an EM step gains less log-likelihood than this
EM_MAX_ITER = 500  # E-passes (log-likelihood evaluations) per EM start


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

    def logliks(self) -> dict[int, float]:
        return {k: r.loglik for k, r in enumerate(self.entries, start=1)}


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
    EM_MAX_ITER E-passes, at its best evaluated EM iterate: theta0 when that
    last point's log-likelihood is below theta0's, and then the point stays
    off the path.  All running starts share one (S, n, K) array per E-pass
    and a start is frozen where it stops, so every start follows the path it
    would follow alone.  Returns per start, in order: weights, means, final
    loglik, E-passes, converged and the loglik path of its accepted iterates.
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

    def log_path(rows, ll):
        for s, v in zip(run[rows], ll[rows].tolist()):
            paths[s].append(v)

    def finish(out, t, conv):
        """Freeze the starts run[out] at t; returns the mask of the others."""
        theta[run[out]] = t[out]
        converged[run[out]] = conv[out]
        return ~out

    run = np.arange(n_starts)
    t0, c0, p0, l0 = theta.copy(), *e_pass(run, theta)
    step_max = np.ones(n_starts)
    log_path(slice(None), l0)
    while run.size:
        t1 = _em_map(z, c0, p0, t0, lo, hi)
        c1, p1, l1 = e_pass(run, t1)
        stop = l1 - l0 < EM_TOL
        out = stop | (passes[run] >= EM_MAX_ITER)
        if out.any():
            up = l1 >= l0  # a start that stops on a drop ends at theta0
            log_path(out & up, l1)
            keep = finish(out, np.where(up[:, None], t1, t0), stop)
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
        up = la >= l0  # only a stopping start can drop; it ends at theta0
        log_path(up, la)
        stop = la - l0 < EM_TOL
        keep = finish(stop | (passes[run] >= EM_MAX_ITER), np.where(up[:, None], ta, t0), stop)
        run, t0, c0, p0, l0, step_max = (a[keep] for a in (run, ta, ca, pa, la, step_max))
    return theta[:, :k], theta[:, k:], [path[-1] for path in paths], passes, converged, paths


def _lm_start_list(z: np.ndarray, k: int, config: ModelConfig,
                   starts: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Uniform weights and the lm_start_means of z's quantiles at (i + 1/2)/K,
    jittered at the scale of z's spread: a function of the data alone."""
    qs = np.quantile(z, (np.arange(k) + 0.5) / k) if z.size else np.zeros(k)
    with np.errstate(over="ignore"):  # inf past a spread of ~1e154: starts at the box ends
        scale = max(float(np.std(z)) if z.size else 0.0, 1e-3)
    return [(np.full(k, 1.0 / k), m) for m in lm_start_means(config, qs, scale, starts)]


def fit_lm_em(sample: Sample, k: int, config: ModelConfig, starts: int = 9,
              warm: Theta | None = None, track_paths: bool = False) -> FitResult:
    """Best of `starts` EM runs, plus one from warm (a parameter of a class
    <= K, embedded into the K-th) run first when given; ties within 1e-12 go
    to the earliest start."""
    if config.family is not Family.LM or sample.family is not Family.LM:
        raise UsageError("fit_lm_em needs an LM config and sample")
    if k < 1 or starts < 1:
        raise UsageError("need K >= 1 and starts >= 1")
    check_k(config, k)
    inits = _lm_start_list(sample.z, k, config, starts)
    if warm is not None:
        emb = embed(config, warm, k)
        inits.insert(0, (np.asarray(emb.weights), np.asarray(emb.means)))
    w, m, lls, iters, conv, paths = _em_run(sample.z, config, [w for w, _ in inits],
                                            [m for _, m in inits])
    best = 0
    for i in range(1, len(inits)):
        if lls[i] > lls[best] + 1e-12:
            best = i
    theta = ThetaLM(tuple(w[best]), tuple(m[best]))
    return FitResult(theta=theta, loglik=log_likelihood(config, theta, sample),
                     iterations=int(iters[best]), converged=bool(conv[best]),
                     starts_used=len(inits),
                     loglik_paths=tuple(map(tuple, paths)) if track_paths else None)


# ---------------------------------------------------------------------------
# VR: box-constrained least squares
# ---------------------------------------------------------------------------

def _box_lsq(gram: np.ndarray, b: np.ndarray, theta: np.ndarray, lo: float, hi: float) -> int:
    """Minimize theta' gram theta - 2 b' theta over [lo, hi]^k from the feasible
    theta, updating it in place; returns the number of active-set changes.

    Lawson & Hanson's primal active set (1974, ch. 23) with both bounds: theta
    steps toward the free coordinates' normal-equation solution (minimum-norm,
    by np.linalg.lstsq, where their block is singular), holding each one that
    meets a bound.  There the held coordinate whose gradient points furthest
    into the box, by over 1e-12 max(|gram|, |b|, 1), is freed; when none does,
    theta is the KKT optimum.  As in NNLS, a freed coordinate sent straight back
    out (its multiplier was rounding) stays held until theta moves: finite.
    """
    held = (theta <= lo) | (theta >= hi)
    stuck = np.zeros_like(held)  # held again at once since theta last moved
    for changes in itertools.count():
        free = np.flatnonzero(~held)
        want = np.linalg.lstsq(gram[np.ix_(free, free)],
                               b[free] - gram[free][:, held] @ theta[held], rcond=None)[0]
        bound = np.clip(want, lo, hi)
        out = np.flatnonzero(bound != want)
        if out.size:  # step to the first bound met on the way to want
            reach = (bound[out] - theta[free[out]]) / (want[out] - theta[free[out]])
            step, met = max(reach.min(), 0.0), out[reach == reach.min()]
            theta[free] += step * (want - theta[free])
            stuck &= step == 0.0
            theta[free[met]], held[free[met]], stuck[free[met]] = bound[met], True, step == 0.0
        else:
            stuck &= np.array_equal(theta[free], want)
            theta[free] = want
            into = np.where(held & ~stuck, (gram @ theta - b) * (2 * (theta >= hi) - 1), -np.inf)
            if into.max() <= 1e-12 * max(np.abs(gram).max(), np.abs(b).max(), 1.0):
                return changes
            held[np.argmax(into)] = False


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


def _vr_optima(gram: np.ndarray, b: np.ndarray, ks: tuple[int, ...], lo: float, hi: float
               ) -> tuple[np.ndarray, list[int]]:
    """Minimize theta' gram theta - 2 b' theta over [lo, hi]^k on each leading
    block gram[:k, :k], k in ks (increasing); returns (coeffs, active-set
    changes) with row i of coeffs the optimum for ks[i], padded with zeros.

    Every block's normal equations are solved in one batch, each padded to full
    size with the identity: _box_lsq's first step, with no bound held.  A
    solution inside [lo, hi] is the exact optimum, and when every block's is,
    that is the answer; the zero padding always lies in the box, since VR needs
    lo <= 0 <= hi.  Otherwise a bound binds or the block is singular, and
    _box_lsq runs from zero on that block alone, so its fit does not depend on
    the other K asked.
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
    changes = [0] * len(ks)
    for i in np.flatnonzero(~solved):
        k = ks[i]
        coeffs[i] = 0.0
        changes[i] = _box_lsq(gram[:k, :k], b[:k], coeffs[i, :k], lo, hi)
    return coeffs, changes


def _vr_fits(sample: Sample, config: ModelConfig, ks: tuple[int, ...]) -> list[FitResult]:
    """The VR fit at each K of ks (increasing), all from one basis at ks[-1].

    The basis is made contiguous first: a Gram matrix taken on a strided view
    of a wider basis can differ in the last bit."""
    basis = np.ascontiguousarray(sample.vr_basis(ks[-1]))
    coeffs, changes = _vr_optima(basis.T @ basis, basis.T @ sample.y, ks,
                                 config.m_lo, config.m_hi)
    logliks = regression_log_densities(sample.y, coeffs @ basis.T,
                                       config.sigma).sum(axis=1).tolist()
    return [FitResult(ThetaVR(row[:k]), ll, c, True, 1)
            for k, row, ll, c in zip(ks, coeffs.tolist(), logliks, changes)]


# ---------------------------------------------------------------------------
# AC: guillotine DP
# ---------------------------------------------------------------------------

def fit_ac(sample: Sample, config: ModelConfig, ks: Iterable[int]) -> list[FitResult]:
    """The exact best <=K-leaf tree at each K of ks, in their order, all from
    one dynamic program."""
    if config.family is not Family.AC or sample.family is not Family.AC:
        raise UsageError("fit_ac needs an AC config and sample")
    ks = tuple(ks)
    for k in ks:
        check_k(config, k)
    fits = guillotine.fit_tree_empirical(sample.x, sample.y, ks, config.ac_depth_max,
                                         config.sigma, config.m_lo, config.m_hi)
    thetas = [ThetaAC(tree) for tree, _ in fits]
    return [FitResult(theta, log_likelihood(config, theta, sample), 1, True, 1)
            for theta in thetas]


def fit(sample: Sample, config: ModelConfig, ks: Iterable[int],
        warm: Theta | None = None) -> list[FitResult]:
    """One FitResult per K of ks, which must be nonempty and strictly
    increasing; every K is checked before any fit starts.  warm, a parameter
    of a class <= ks[0], is LM's first start at ks[0], and each LM fit starts
    the next K (the exact VR and AC fits need no start)."""
    ks = tuple(ks)
    if not ks or any(b <= a for a, b in zip(ks, ks[1:])):
        raise UsageError(f"need a nonempty, strictly increasing ks, got {ks}")
    for k in ks:
        check_k(config, k)
    if sample.family is not config.family:
        raise UsageError(f"a {config.family.value} fit needs a {config.family.value} sample, "
                         f"got {sample.family.value}")
    if config.family is Family.VR:
        return _vr_fits(sample, config, ks)
    if config.family is Family.AC:
        return fit_ac(sample, config, ks)
    fits = []
    for k in ks:
        fits.append(fit_lm_em(sample, k, config, warm=warm))
        warm = fits[-1].theta
    return fits


# ---------------------------------------------------------------------------
# Profile curve
# ---------------------------------------------------------------------------

def profile(sample: Sample, config: ModelConfig, k_top: int) -> ProfileCurve:
    """fit at K = 1..k_top; enforce monotone loglik via embedding."""
    check_k(config, k_top)  # before a range of a k_top past the cap is built
    entries = fit(sample, config, range(1, k_top + 1))

    # nestedness: replace any dip with the embedded previous solution
    for i in range(1, len(entries)):
        if entries[i].loglik < entries[i - 1].loglik:
            emb = embed(config, entries[i - 1].theta, i + 1)
            entries[i] = replace(entries[i - 1], theta=emb, iterations=0,
                                 converged=True, starts_used=0,
                                 loglik=entries[i - 1].loglik)
    return ProfileCurve(n=sample.n, family=config.family, entries=tuple(entries))
