import gc
import math
import weakref

import numpy as np
import pytest
from scipy.optimize import lsq_linear
from scipy.special import logsumexp

from orderest import (
    Family, Leaf, ModelConfig, ParameterError, Sample, Split, ThetaAC, ThetaLM, ThetaVR,
    FitResult, UsageError, embed, estimate_orders, fit, fit_ac, fit_lm_em,
    is_underestimation_prob, log_likelihood, parse_schedule, peeling_assert, profile,
    project_entropy, random_theta, simulate, stein_bound, true_order,
)
from orderest import fitting, models
from orderest.entropy import EntropyValue
from orderest.experiments import ExperimentSpec, entropy_table
from orderest.fitting import EM_MAX_ITER, EM_TOL, _box_lsq, _lm_start_list, fits_csv
from orderest.models import (
    derive_seed, logsumexp_rows, mixture_log_components, rng_for, vr_basis_matrix,
)
from orderest import guillotine

LM = ModelConfig(Family.LM, sigma=1.0)
VR = ModelConfig(Family.VR, sigma=1.0)
AC = ModelConfig(Family.AC, sigma=1.0, ac_depth_max=2)

TWO_CELL = ThetaAC(Split(1, 0.5, Leaf(0.0), Leaf(1.0)))


def _squarem_one_start(z, config, w0, m0):
    """SQUAREM-accelerated EM from one start, written out with scalars and
    scipy's logsumexp: the same cycle, step bound, acceptance rule, stopping
    rule and E-pass cap as fitting._em_run, and the same end at the best
    evaluated iterate.  Returns weights, means, final loglik, E-passes,
    converged and the loglik path of the accepted iterates."""
    lo, hi = config.m_lo, config.m_hi
    w = np.asarray(w0, dtype=float).copy()
    m = np.asarray(m0, dtype=float).copy()
    n = z.shape[0]
    if n == 0:
        return w, m, 0.0, 0, True, (0.0,)
    passes = 0

    def e_pass(w, m, strict=True):
        nonlocal passes
        passes += 1
        with np.errstate(divide="ignore", over="ignore"):
            log_w = np.log(w)
            q = ((z[:, None] - m[None, :]) / config.sigma) ** 2
        comp = (-0.5 * math.log(2.0 * math.pi) - math.log(config.sigma)) - 0.5 * q + log_w[None, :]
        per_obs = logsumexp(comp, axis=1)
        ll = float(per_obs.sum())
        if strict and not math.isfinite(ll):
            raise ParameterError(f"EM at K={w.size}: log-likelihood is {ll}")
        return comp, per_obs, ll

    def em_map(comp, per_obs, m):
        resp = np.exp(comp - per_obs[:, None])
        nk = resp.sum(axis=0)
        with np.errstate(invalid="ignore"):
            new_m = resp.T @ z / nk
        return nk / n, np.where(nk > 0.0, np.clip(new_m, lo, hi), m)

    comp, per_obs, ll = e_pass(w, m)
    path = [ll]
    step_max = 1.0
    while passes < EM_MAX_ITER:
        w1, m1 = em_map(comp, per_obs, m)
        comp1, per_obs1, ll1 = e_pass(w1, m1)
        if ll1 - ll < EM_TOL or passes >= EM_MAX_ITER:
            if ll1 < ll:  # a drop: the start ends where it was
                return w, m, ll, passes, True, tuple(path)
            path.append(ll1)
            return w1, m1, ll1, passes, ll1 - ll < EM_TOL, tuple(path)
        w2, m2 = em_map(comp1, per_obs1, m1)
        rw, rm = w1 - w, m1 - m
        vw, vm = w2 - w1 - rw, m2 - m1 - rm
        r, v = np.concatenate([rw, rm]), np.concatenate([vw, vm])
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.sqrt((r * r).sum() / (v * v).sum())
        at_max = ratio >= step_max
        a = min(ratio, step_max) if ratio > 1.0 else 1.0
        while a > 1.0:
            with np.errstate(over="ignore", invalid="ignore"):
                wx = w + 2.0 * a * rw + a * a * vw
                mx = m + 2.0 * a * rm + a * a * vm
                total, every = wx.sum(), np.concatenate([wx, mx]).sum()
                if (wx >= 0.0).all() and total > 0.0 and np.isfinite(every):
                    break
            a = 0.5 * (a + 1.0)
        rejected = False
        if a > 1.0:
            wa, ma = wx / total, np.clip(mx, lo, hi)
            ca, pa, la = e_pass(wa, ma, strict=False)
            rejected = not la >= ll1
            if rejected and passes >= EM_MAX_ITER:
                wa, ma, ca, pa, la = w1, m1, comp1, per_obs1, ll1
            elif rejected:
                wa, ma = w2, m2
                ca, pa, la = e_pass(wa, ma)
        else:
            wa, ma = w2, m2
            ca, pa, la = e_pass(wa, ma)
        if at_max:
            step_max = max(step_max / 4.0, 1.0) if rejected else step_max * 4.0
        if la < ll:
            return w, m, ll, passes, True, tuple(path)
        path.append(la)
        if la - ll < EM_TOL:
            return wa, ma, la, passes, True, tuple(path)
        w, m, comp, per_obs, ll = wa, ma, ca, pa, la
    return w, m, ll, passes, False, tuple(path)


def _fit_lm_em_one_start_at_a_time(sample, k, config, starts, extra_inits):
    """fit_lm_em with every start run alone by _squarem_one_start; also
    returns each start's E-pass count."""
    inits = _lm_start_list(sample.z, k, config, starts)
    if extra_inits:
        inits = [(np.asarray(w, dtype=float), np.asarray(m, dtype=float))
                 for w, m in extra_inits] + inits
    best = None
    paths, passes = [], []
    for w0, m0 in inits:
        w, m, ll, iters, conv, path = _squarem_one_start(sample.z, config, w0, m0)
        paths.append(path)
        passes.append(iters)
        if best is None or ll > best[2] + 1e-12:
            best = (w, m, ll, iters, conv)
    w, m, _, iters, conv = best
    theta = ThetaLM(tuple(w), tuple(m))
    return FitResult(theta=theta, loglik=log_likelihood(config, theta, sample),
                     iterations=iters, converged=conv, starts_used=len(inits),
                     loglik_paths=tuple(paths)), passes


def _plain_em_run(z, config, w0, m0):
    """Plain batched EM, the kernel fitting._em_run ran before SQUAREM: one EM
    step per iteration, stopped when a step gains less than EM_TOL or after
    EM_MAX_ITER steps.  Same arguments and returns as fitting._em_run."""
    w = np.array(w0, dtype=float)
    m = np.array(m0, dtype=float)
    n_starts, k = w.shape
    n = z.shape[0]
    if n == 0:
        return (w, m, [0.0] * n_starts, np.zeros(n_starts, dtype=int),
                np.ones(n_starts, dtype=bool), [(0.0,)] * n_starts)
    paths = [[] for _ in range(n_starts)]
    prev = np.full(n_starts, -np.inf)
    iters = np.full(n_starts, EM_MAX_ITER)
    converged = np.zeros(n_starts, dtype=bool)
    run = np.arange(n_starts)

    def eval_ll(run):
        comp = mixture_log_components(z, w[run], m[run], config.sigma)
        per_obs = logsumexp_rows(comp)
        ll = per_obs.sum(axis=1)
        for s, v in zip(run, ll.tolist()):
            paths[s].append(v)
            if not math.isfinite(v):
                raise ParameterError(f"EM at K={k}: log-likelihood is {v}")
        return comp, per_obs, ll

    for it in range(1, EM_MAX_ITER + 1):
        comp, per_obs, ll = eval_ll(run)
        done = ll - prev[run] < EM_TOL
        if done.any():
            iters[run[done]] = it
            converged[run[done]] = True
            run, comp, per_obs, ll = run[~done], comp[~done], per_obs[~done], ll[~done]
            if run.size == 0:
                break
        prev[run] = ll
        resp = np.exp(comp - per_obs[:, :, None])
        nk = resp.sum(axis=1)
        w[run] = nk / n
        with np.errstate(invalid="ignore"):
            new_m = resp.transpose(0, 2, 1) @ z / nk
        m[run] = np.where(nk > 0.0, np.clip(new_m, config.m_lo, config.m_hi), m[run])
    if run.size:
        eval_ll(run)
    return w, m, [path[-1] for path in paths], iters, converged, paths


class TestEmLm:
    def test_batched_starts_equal_one_start_at_a_time(self):
        # every field and every loglik path bit for bit: n down to 1, duplicate
        # points on a 0.1 lattice, a tight box, profile-style zero-weight starts
        rng = rng_for(71)
        capped = 0
        for i in range(210):
            n = (1, 2, 5, 30, 100, 300)[i % 6]
            sigma = (0.5, 1.0, 2.0)[i // 6 % 3]
            box = (-0.25, 0.25) if i % 5 == 0 else (-2.0, 2.0)
            config = ModelConfig(Family.LM, sigma=sigma, m_lo=box[0], m_hi=box[1])
            k = int(rng.integers(1, 5))
            z = rng.choice([-1.5, 0.0, 1.5], n) + sigma * rng.standard_normal(n)
            if i % 4 == 1:
                z = np.round(z, 1)
            rng.integers(1000)  # keeps the draws of the frozen samples that follow
            s = Sample(Family.LM, z)
            coarse = extra = None
            if i % 2 and k > 1:
                w = rng.dirichlet(np.ones(k - 1))
                coarse = ThetaLM(tuple(w / w.sum()), tuple(rng.uniform(*box, k - 1)))
                emb = embed(config, coarse, k)
                extra = [(emb.weights, emb.means)]
            starts = int(rng.integers(1, 5))
            res = fit_lm_em(s, k, config, starts=starts, warm=coarse, track_paths=True)
            want, passes = _fit_lm_em_one_start_at_a_time(s, k, config, starts, extra)
            assert res == want, i
            assert all(p <= EM_MAX_ITER for p in passes), i
            capped += passes.count(EM_MAX_ITER)
        assert capped > 0  # some start must run into EM_MAX_ITER

    @pytest.mark.parametrize("case", ["n=1", "n=2", "25 identical", "K>n", "0.1 lattice",
                                      "tight box", "+-1e6"])
    def test_adversarial_lm_fits(self, case):
        # where extrapolation could make NaN weights or a 0/0 step length
        rng = rng_for(91)
        box = (-2.0, 2.0)
        if case == "n=1":
            z = np.array([0.3])
        elif case == "n=2":
            z = np.array([-0.7, 1.1])
        elif case == "25 identical":
            z = np.full(25, 0.37)
        elif case == "K>n":
            z = np.array([-1.0, 0.2, 1.3])
        elif case == "0.1 lattice":
            z = np.round(rng.standard_normal(40), 1)
        elif case == "tight box":
            z = rng.choice([-1.5, 1.5], 60) + rng.standard_normal(60)
            box = (-0.25, 0.25)
        else:
            z = rng.choice([-1e6, 1e6], 30) + rng.standard_normal(30)
        config = ModelConfig(Family.LM, sigma=1.0, m_lo=box[0], m_hi=box[1])
        s = Sample(Family.LM, z)
        for k in range(1, 5):
            res = fit_lm_em(s, k, config, track_paths=True)
            w, m = np.array(res.theta.weights), np.array(res.theta.means)
            assert (w >= 0.0).all() and abs(w.sum() - 1.0) <= 1e-12, k
            assert ((box[0] <= m) & (m <= box[1])).all(), k
            assert abs(res.loglik - log_likelihood(config, res.theta, s)) <= 1e-9, k
            for path in res.loglik_paths:
                assert np.diff(path).min(initial=0.0) >= -1e-9 * max(1.0, abs(path[0])), k

    def test_k1_matches_closed_form(self):
        s = simulate(LM, ThetaLM((0.5, 0.5), (-2.0, 2.0)), 400, seed=1)
        res = fit_lm_em(s, 1, LM)
        m_hat = float(np.clip(s.z.mean(), LM.m_lo, LM.m_hi))
        assert res.theta.means[0] == pytest.approx(m_hat, abs=1e-10)
        closed = log_likelihood(LM, ThetaLM((1.0,), (m_hat,)), s)
        assert res.loglik == pytest.approx(closed, abs=1e-10)

    def test_degenerate_identical_points(self):
        z0 = 0.37
        s = Sample(Family.LM, np.full(25, z0))
        res = fit_lm_em(s, 2, LM)
        assert all(m == pytest.approx(z0, abs=1e-9) for m in res.theta.means)
        expected = 25 * (-0.5 * math.log(2 * math.pi))
        assert res.loglik == pytest.approx(expected, abs=1e-9)

    def test_clipping_keeps_means_in_box(self):
        narrow = ModelConfig(Family.LM, sigma=1.0, m_lo=-0.5, m_hi=0.5)
        s = simulate(narrow, ThetaLM((1.0,), (0.5,)), 300, seed=3)
        res = fit_lm_em(s, 2, narrow)
        assert all(-0.5 <= m <= 0.5 for m in res.theta.means)

    def test_well_separated_mixture_vs_grid_oracle(self):
        # oracle: dense grid over (pi1, m1, m2), 50 points per axis
        theta = ThetaLM((0.5, 0.5), (-2.0, 2.0))
        s = simulate(LM, theta, 2000, seed=12)
        res = fit_lm_em(s, 2, LM)
        fitted = sorted(res.theta.means)
        assert abs(fitted[0] + 2.0) < 0.15 and abs(fitted[1] - 2.0) < 0.15

        z = s.z
        pis = np.linspace(0.02, 0.98, 50)
        ms = np.linspace(LM.m_lo, LM.m_hi, 50)
        dens = np.exp(-0.5 * (z[:, None] - ms[None, :]) ** 2) / math.sqrt(2 * math.pi)
        best = -np.inf
        for i in range(50):
            # mixture density for all (pi, m2) at fixed m1: (n, npi, nm2)
            mix = (pis[None, :, None] * dens[:, i, None, None]
                   + (1.0 - pis[None, :, None]) * dens[:, None, :])
            ll = np.log(mix).sum(axis=0)
            best = max(best, float(ll.max()))
        assert res.loglik >= best - 1e-6  # EM at least as good as the grid optimum

    def test_loglik_consistency_invariant(self):
        s = simulate(LM, ThetaLM((0.3, 0.7), (-1.0, 1.0)), 250, seed=4)
        res = fit_lm_em(s, 3, LM)
        assert res.loglik == pytest.approx(log_likelihood(LM, res.theta, s), abs=1e-9)
        assert abs(sum(res.theta.weights) - 1.0) < 1e-12

    def test_em_paths_monotone(self):
        for i in range(10):
            theta = ThetaLM((0.4, 0.6), (-1.0, 1.5))
            s = simulate(LM, theta, 300, seed=derive_seed(99, i))
            res = fit_lm_em(s, 2, LM, starts=5, track_paths=True)
            for path in res.loglik_paths:
                steps = np.diff(np.asarray(path))
                assert steps.size == 0 or steps.min() >= 0.0

    def test_no_drop_on_a_path_or_in_k(self):
        # 21 frozen samples, K* 1-3 at n 50-200, where EM steps lose up to
        # 8.5e-14 to rounding near convergence: a start that stops on such a
        # step ends at the iterate before it, and fit keeps EM's weights as
        # evaluated, so no path and no K-chain of fits goes down
        rng = rng_for(1307)
        for i in range(21):
            theta = random_theta(LM, int(rng.integers(1, 4)), rng)
            s = simulate(LM, theta, int(rng.integers(50, 201)), derive_seed(1308, i))
            warm, lls = None, []
            for k in range(1, 5):
                res = fit_lm_em(s, k, LM, warm=warm, track_paths=True)
                for path in res.loglik_paths:
                    assert (np.diff(path) >= 0.0).all(), (i, k)
                # the weights are EM's own: the loglik is the one EM evaluated
                assert res.loglik in {path[-1] for path in res.loglik_paths}, (i, k)
                warm = res.theta
                lls.append(res.loglik)
            assert [f.loglik for f in fit(s, LM, range(1, 5))] == lls, i
            assert lls == sorted(lls), i

    def test_warm_of_larger_k_rejected(self):
        s = simulate(LM, ThetaLM((1.0,), (0.0,)), 20, seed=0)
        with pytest.raises(UsageError, match="cannot embed K=3 into K=2"):
            fit_lm_em(s, 2, LM, warm=ThetaLM((0.2, 0.3, 0.5), (-1.0, 0.0, 1.0)))

    def test_k_cap(self):
        s = simulate(LM, ThetaLM((1.0,), (0.0,)), 20, seed=0)
        with pytest.raises(UsageError):
            fit_lm_em(s, 100, LM)

    @pytest.mark.parametrize("z, k", [([1e308, -1e308, 0.0, 1.0], 1), ([1e200, 0.0, 1.0], 2)])
    def test_extreme_data_fails_in_em(self, z, k):
        # finite data whose log-likelihood overflows: EM reports it, not ThetaLM,
        # and without numpy overflow warnings on the way
        s = Sample(Family.LM, np.asarray(z))
        with pytest.raises(ParameterError, match=f"^EM at K={k}: log-likelihood is -inf"):
            fit_lm_em(s, k, LM)


class TestSquaremAgainstPlainEm:
    # n of the samples, cycled: mostly small, where plain EM is cheap enough
    # for 150 samples, and up to 400
    N_CYCLE = (50,) * 20 + (75,) * 4 + (100,) * 3 + (200, 300, 400)

    def test_profiles_match_plain_em(self, monkeypatch):
        # SQUAREM takes other EM paths than plain EM, so a fit may end in another
        # local mode; the orders must not move, and few fits may end lower
        schedule = parse_schedule("bic D=dim", Family.LM, 4)
        samples = []
        for i in range(150):
            rng = rng_for(603, i)
            theta = random_theta(LM, int(rng.integers(1, 4)), rng)
            samples.append(simulate(LM, theta, self.N_CYCLE[i % len(self.N_CYCLE)],
                                    derive_seed(604, i)))
        squarem = [profile(s, LM, 4) for s in samples]
        monkeypatch.setattr(fitting, "_em_run", _plain_em_run)
        plain = [profile(s, LM, 4) for s in samples]
        lower, limit = [], 0.02 * 4 * len(samples)
        for i, (s, sq, pl) in enumerate(zip(samples, squarem, plain)):
            got, want = (estimate_orders(p, schedule, 3) for p in (sq, pl))
            assert (got.k_local, got.k_global) == (want.k_local, want.k_global), i
            lower += [(i, k, sq.loglik(k) - pl.loglik(k)) for k in range(1, 5)
                      if sq.loglik(k) < pl.loglik(k) - 1e-6]
        assert len(lower) <= limit, lower


class TestFitVr:
    def test_zero_response_gives_zero_coeffs(self):
        x = np.linspace(0.01, 0.99, 40)
        s = Sample(Family.VR, np.column_stack([x, np.zeros(40)]))
        [res] = fit(s, VR, (3,))
        assert np.allclose(res.theta.coeffs, 0.0, atol=1e-12)

    def test_noiseless_recovery(self):
        theta = ThetaVR((0.8, -0.3, 0.1))
        x = np.linspace(0.0, 1.0, 50)
        y = vr_basis_matrix(x, 3) @ np.asarray(theta.coeffs)
        s = Sample(Family.VR, np.column_stack([x, y]))
        [res] = fit(s, VR, (3,))
        assert np.allclose(res.theta.coeffs, theta.coeffs, atol=1e-8)

    def test_matches_projected_gradient_oracle(self):
        rng = rng_for(31)
        x = rng.uniform(0, 1, 200)
        y = rng.normal(0.0, 1.0, 200) + 0.7 * math.sqrt(2) * np.cos(math.pi * x)
        s = Sample(Family.VR, np.column_stack([x, y]))
        [res] = fit(s, VR, (4,))

        basis = vr_basis_matrix(x, 4)
        gram, b = basis.T @ basis, basis.T @ y

        def objective(t):
            r = y - basis @ t
            return 0.5 * float(r @ r)

        # independent projected-gradient solver with a safe step 1/L
        step = 1.0 / float(np.linalg.eigvalsh(gram).max())
        t = np.zeros(4)
        for _ in range(20000):
            t = np.clip(t - step * (gram @ t - b), VR.m_lo, VR.m_hi)
        cd = np.asarray(res.theta.coeffs)
        assert objective(cd) == pytest.approx(objective(t), abs=1e-6)

    def test_box_stationarity_conditions(self):
        tight = ModelConfig(Family.VR, sigma=1.0, m_lo=-0.25, m_hi=0.25)
        s = simulate(tight, ThetaVR((0.25, -0.25)), 300, seed=8)
        [res] = fit(s, tight, (3,))
        basis = vr_basis_matrix(s.x, 3)
        gram, b = basis.T @ basis, basis.T @ s.y
        t = np.asarray(res.theta.coeffs)
        grad = gram @ t - b  # gradient of 0.5||y - Bt||^2
        for j in range(3):
            interior_opt = (b[j] - (gram[j] @ t - gram[j, j] * t[j])) / gram[j, j]
            if tight.m_lo < interior_opt < tight.m_hi:
                assert t[j] == pytest.approx(interior_opt, abs=1e-6)
            elif t[j] >= tight.m_hi - 1e-9:
                assert grad[j] <= 1e-6  # pushing past the upper bound
            elif t[j] <= tight.m_lo + 1e-9:
                assert grad[j] >= -1e-6


def _bvls(basis, y, lo, hi):
    """The box-constrained least-squares coefficients by scipy's BVLS (Stark &
    Parker 1995), which works on the basis itself, not on its Gram matrix;
    clipped, as BVLS can leave a coefficient an ulp outside its bound."""
    fit = lsq_linear(basis, y, bounds=(lo, hi), method="bvls", tol=1e-15, max_iter=10000)
    return np.clip(fit.x, lo, hi)


def _assert_kkt(gram, b, coeffs, lo, hi):
    """KKT certificate of coeffs as the minimum of c' gram c - 2 b' c over
    [lo, hi]^k: the gradient gram c - b vanishes on free coordinates and points
    out of the box on coordinates at a bound, within 1e-9 ||gram|| (1 + |c|)."""
    c = np.asarray(coeffs, dtype=float)
    grad = gram @ c - b
    tol = 1e-9 * np.linalg.norm(gram, 2) * (1.0 + np.abs(c).max())
    free = (lo < c) & (c < hi)
    assert (np.abs(grad[free]) <= tol).all(), ("free", grad[free], tol)
    assert (grad[c <= lo] >= -tol).all(), ("at lo", grad[c <= lo], tol)
    assert (grad[c >= hi] <= tol).all(), ("at hi", grad[c >= hi], tol)


def _vr_optima_loop(gram, b, ks, lo, hi):
    """_vr_optima without its set-up cache: every block through a per-K loop,
    each block the batch leaves outside the box solved by _box_lsq from zero."""
    ks = np.asarray(ks)
    top = gram.shape[0]
    inside = np.arange(top) < ks[:, None]
    blocks = np.where(inside[:, :, None] & inside[:, None, :], gram, np.eye(top))
    try:
        coeffs = np.linalg.solve(blocks, np.where(inside, b, 0.0)[..., None])[..., 0]
        coeffs = np.where(inside, coeffs, 0.0)
    except np.linalg.LinAlgError:
        coeffs = np.full(inside.shape, np.nan)
    solved = (((lo <= coeffs) & (coeffs <= hi)) | ~inside).all(axis=1)
    changes = [0] * len(ks)
    for i, k in enumerate(ks):
        if not solved[i]:
            theta = np.zeros(top)
            changes[i] = _box_lsq(gram[:k, :k], b[:k], theta[:k], lo, hi)
            coeffs[i] = theta
    return coeffs, changes


class TestVrOptima:
    @pytest.mark.parametrize("case", ["inside", "binding", "some binding", "singular", "K>n"])
    def test_fast_return_equals_the_loop(self, case, monkeypatch):
        rng = rng_for(73)
        lo, hi = {"binding": (-0.25, 0.25), "some binding": (-1.5, 1.5)}.get(case, (-2.0, 2.0))
        n = 2 if case == "K>n" else 150
        x = rng.uniform(0.0, 1.0, n)
        # with "some binding", K = 1 lies inside the box and K >= 2 binds
        truth = [0.2, 1.9] if case == "some binding" else [1.0, 0.5]
        y = vr_basis_matrix(x, 2) @ np.array(truth) + 0.1 * rng.standard_normal(n)
        basis = vr_basis_matrix(x, 5)
        gram, b = basis.T @ basis, basis.T @ y
        if case == "singular":  # a basis column that vanishes on the data
            gram[2, :] = gram[:, 2] = 0.0
            b[2] = 0.0
        box_lsq_calls = []
        monkeypatch.setattr(fitting, "_box_lsq",
                            lambda *a: box_lsq_calls.append(1) or _box_lsq(*a))
        for ks in ((1, 2, 3, 4, 5), (3,), (5,), (2, 4)):
            got = fitting._vr_optima(gram, b, ks, lo, hi)
            want = _vr_optima_loop(gram, b, ks, lo, hi)
            assert np.array_equal(got[0], want[0]) and got[1] == want[1], (case, ks)
            for k, row in zip(ks, got[0]):
                _assert_kkt(gram[:k, :k], b[:k], row[:k], lo, hi)
        # only the inside case takes the fast return everywhere
        assert (len(box_lsq_calls) == 0) == (case == "inside")

    @pytest.mark.parametrize("k", [10, 19, 20, 25, 40])
    def test_ill_conditioned_fits_are_exact(self, k):
        # 20 points with K near or past n: the Gram matrix is ill-conditioned or
        # singular and a bound binds, so every K >= 19 takes the active-set path
        s = simulate(VR, ThetaVR((1.0, 0.5)), 20, seed=5)
        [res] = fit(s, VR, (k,))
        basis = vr_basis_matrix(s.x, k)
        coeffs = np.asarray(res.theta.coeffs)
        assert res.converged
        _assert_kkt(basis.T @ basis, basis.T @ s.y, coeffs, VR.m_lo, VR.m_hi)
        sse, oracle = (float(((s.y - basis @ c) ** 2).sum())
                       for c in (coeffs, _bvls(basis, s.y, VR.m_lo, VR.m_hi)))
        assert sse == pytest.approx(oracle, rel=0.0, abs=1e-9)

    @pytest.mark.parametrize("k", [65, 10 ** 6])
    def test_k_beyond_hard_cap_fails_before_the_basis(self, k, monkeypatch):
        sample = simulate(VR, ThetaVR((1.0, 0.5)), 20, seed=5)

        def no_basis(self, width):
            raise AssertionError(f"a basis of {width} columns was built")

        monkeypatch.setattr(Sample, "vr_basis", no_basis)
        for call in (lambda s, k, c: fit(s, c, (k,)), lambda s, k, c: fit(s, c, (1, 2, k)),
                     lambda s, k, c: profile(s, c, k)):
            with pytest.raises(UsageError, match=f"K={k} exceeds the hard cap 64"):
                call(sample, k, VR)

    def test_block_setup_is_kept_and_read_only(self):
        first = fitting._vr_blocks((1, 2, 3), 3)
        assert fitting._vr_blocks((1, 2, 3), 3) is first
        for a in first:
            with pytest.raises(ValueError):
                a.flat[0] = 0


class TestVrBasisBuilds:
    """The cosine basis is built once per sample width, not once per call."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        original = models.vr_basis_matrix
        monkeypatch.setattr(models, "vr_basis_matrix",
                            lambda x, k: calls.append(k) or original(x, k))
        return calls

    def test_fit_vr_builds_once(self, builds):
        rng = rng_for(74)
        x = rng.uniform(0.0, 1.0, 80)
        s = Sample(Family.VR, np.column_stack([x, rng.standard_normal(80)]))
        fit(s, VR, (3,))
        assert builds == [3]
        fit(s, VR, (2,))
        assert builds == [3]

    def test_one_is_trial_builds_at_most_twice(self, builds):
        schedule = parse_schedule("bic D=dim*0.05", Family.VR, 4)
        is_underestimation_prob(VR, ThetaVR((1.0, 0.5)), ThetaVR((1.0,)), schedule, "global",
                                100, 1, 5, 3)
        assert len(builds) <= 2

    def test_peeling_probes_build_nothing(self, builds):
        rng = rng_for(75)
        x = rng.uniform(0.0, 1.0, 400)
        y = vr_basis_matrix(x, 2) @ np.array([1.0, 0.5]) + rng.standard_normal(400)
        builds.clear()
        s = Sample(Family.VR, np.column_stack([x, y]))
        rep = peeling_assert(s, VR, 2, 3, ThetaVR((1.0, 0.5)), n_probes=200)
        assert rep.probes_used + rep.probes_skipped == 202
        assert len(builds) <= 3


class TestFitAc:
    def test_k1_closed_form(self):
        s = simulate(AC, TWO_CELL, 120, seed=5)
        [res] = fit_ac(s, AC, (1,))
        m = float(np.clip(s.y.mean(), AC.m_lo, AC.m_hi))
        expected = (-0.5 * s.n * math.log(2 * math.pi)
                    - 0.5 * float(((s.y - m) ** 2).sum()))
        assert res.loglik == pytest.approx(expected, abs=1e-9)

    def test_two_cell_recovery_vs_single_split_oracle(self):
        noisy = ModelConfig(Family.AC, sigma=0.1, ac_depth_max=2)
        s = simulate(noisy, ThetaAC(Split(1, 0.4, Leaf(0.0), Leaf(1.0))), 500, seed=6)
        [res] = fit_ac(s, noisy, (2,))
        tree = res.theta.tree
        assert isinstance(tree, Split) and tree.axis == 1
        x1 = np.sort(np.unique(s.x[:, 0]))
        gap = x1[np.searchsorted(x1, 0.4)] - x1[np.searchsorted(x1, 0.4) - 1]
        assert abs(tree.cut - 0.4) <= gap  # within one inter-point gap of the cut
        marks = sorted((tree.low.mark, tree.high.mark))
        assert abs(marks[0] - 0.0) < 0.05 and abs(marks[1] - 1.0) < 0.05

        # brute-force oracle over every single-split candidate on both axes
        best = -np.inf
        const = -0.5 * math.log(2 * math.pi * noisy.sigma ** 2)

        def leaf_ll(mask):
            if not mask.any():
                return 0.0
            m = float(np.clip(s.y[mask].mean(), noisy.m_lo, noisy.m_hi))
            return (mask.sum() * const
                    - 0.5 * float(((s.y[mask] - m) ** 2).sum()) / noisy.sigma ** 2)

        for axis in (0, 1):
            u = np.unique(s.x[:, axis])
            for cut in 0.5 * (u[:-1] + u[1:]):
                mask = s.x[:, axis] < cut
                best = max(best, leaf_ll(mask) + leaf_ll(~mask))
        assert res.loglik == pytest.approx(best, abs=1e-9)

    def test_single_point(self):
        s = Sample(Family.AC, np.array([[0.3, 0.6, 0.8]]))
        [res] = fit_ac(s, AC, (2,))
        assert res.loglik == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-12)

    def test_k_exceeding_depth_cap(self):
        s = simulate(AC, TWO_CELL, 30, seed=0)
        shallow = ModelConfig(Family.AC, sigma=1.0, ac_depth_max=1)
        with pytest.raises(UsageError):
            fit_ac(s, shallow, (3,))

    @pytest.mark.parametrize("depth, n_max, ks, datasets", [
        pytest.param(2, 30, (1, 2, 3, 4), 8, id="depth2"),
        pytest.param(3, 12, (3, 5), 3, id="depth3"),
    ])
    def test_dp_equals_exhaustive_enumeration(self, depth, n_max, ks, datasets):
        # every candidate tree, n <= n_max
        rng = rng_for(77)
        for trial in range(datasets):
            n = int(rng.integers(6, n_max + 1))
            x = rng.uniform(0, 1, (n, 2))
            y = rng.normal(0, 1, n)

            def leaf_sse(idx):
                if idx.size == 0:
                    return 0.0
                m = float(np.clip(y[idx].mean(), -2.0, 2.0))
                return float(((y[idx] - m) ** 2).sum())

            def cuts(idx, axis):
                u = np.unique(x[idx, axis])
                return 0.5 * (u[:-1] + u[1:]) if u.size > 1 else []

            def enum_best(idx, k, depth):
                best = leaf_sse(idx)
                if k > 1 and depth > 0 and idx.size > 1:
                    for axis in (0, 1):
                        for cut in cuts(idx, axis):
                            low = idx[x[idx, axis] < cut]
                            high = idx[x[idx, axis] >= cut]
                            for k_lo in range(1, k):
                                best = min(best, enum_best(low, k_lo, depth - 1)
                                           + enum_best(high, k - k_lo, depth - 1))
                return best

            fits = guillotine.fit_tree_empirical(x, y, ks, depth, 1.0, -2.0, 2.0)
            for k, (_, sse) in zip(ks, fits):
                assert sse == pytest.approx(enum_best(np.arange(n), k, depth), abs=2e-9), \
                    (trial, k)

    def test_population_dp_equals_exhaustive_enumeration(self):
        # every tree over the target's cut grid, random targets of depth <= 2
        rng = rng_for(78)
        for trial in range(12):
            depth = int(rng.integers(1, 3))
            target = guillotine.random_tree(rng, int(rng.integers(1, 2 ** depth + 1)), depth,
                                            -3.0, 3.0)
            m_lo, m_hi = (-2.0, 2.0) if trial % 2 else (-0.5, 1.0)
            cells = list(guillotine.iter_cells(target))
            grid = {axis: sorted({c for cell in cells for c in cell[2 * axis - 2:2 * axis]})
                    for axis in (1, 2)}

            def leaf_sse(box):
                area = intf = intf2 = 0.0
                for a1, b1, a2, b2, mark in cells:
                    w = min(b1, box[1]) - max(a1, box[0])
                    h = min(b2, box[3]) - max(a2, box[2])
                    if w > 0.0 and h > 0.0:
                        area += w * h
                        intf += w * h * mark
                        intf2 += w * h * mark * mark
                m = min(max(intf / area, m_lo), m_hi)
                return intf2 - 2.0 * m * intf + m * m * area

            def enum_best(box, k, depth):
                best = leaf_sse(box)
                if k > 1 and depth > 0:
                    for axis in (1, 2):
                        lo, hi = box[2 * axis - 2:2 * axis]
                        for cut in (c for c in grid[axis] if lo < c < hi):
                            low, high = list(box), list(box)
                            low[2 * axis - 1] = high[2 * axis - 2] = cut
                            for k_lo in range(1, k):
                                best = min(best, enum_best(low, k_lo, depth - 1)
                                           + enum_best(high, k - k_lo, depth - 1))
                return best

            for cap in (1, 2, 3):
                ks = range(1, min(5, 2 ** cap) + 1)
                for k, (tree, sse) in zip(ks, guillotine.fit_tree_population(target, ks, cap,
                                                                            m_lo, m_hi)):
                    oracle = enum_best([0.0, 1.0, 0.0, 1.0], k, cap)
                    assert sse == pytest.approx(oracle, abs=1e-12), (trial, cap, k)
                    assert guillotine.leaf_count(tree) <= k
                    assert guillotine.tree_depth(tree) <= cap
                    assert guillotine.overlay_sq_integral(target, tree) == pytest.approx(
                        sse, abs=1e-12), (trial, cap, k)


def _grid_dp_per_cut_recursion(edges, atoms, depth_cap, m_lo, m_hi, tol):
    """guillotine._grid_dp as it was before children were priced in one pass:
    at a budget >= 3, one memoised call per cut and child budget, each child
    scanned on its own.  A function k -> (tree, clipped SSE).

    edges = ((lo1, hi1), (lo2, hi2)) are the extents of the grid lines per
    axis; atoms[:, i, j] = (weight, sum, sum of squares) of grid point (i, j),
    and every line carries positive weight.  A candidate replaces the
    incumbent only when its SSE is lower by more than tol.  Calls share one
    memo, so asking for K = 1, 2, ... in turn costs little more than the last.
    """
    pre = np.pad(atoms.cumsum(axis=1).cumsum(axis=2), ((0, 0), (1, 0), (1, 0)))
    views = (pre, pre.transpose(0, 2, 1))  # lines of the cut axis first
    memo: dict[tuple, tuple[float, guillotine.Node]] = {}

    def leaf(tot):
        w, s, q = tot
        m = np.minimum(np.maximum(s / w, m_lo), m_hi)
        return np.maximum(q - 2.0 * m * s + m * m * w, 0.0), m

    def scan(box, axis):
        """Every cut across `axis`: its position, and the clipped SSE and mark
        of its low child, of its high child and (last) of the whole box."""
        p = views[axis - 1]
        a0, a1, b0, b1 = box if axis == 1 else box[2:] + box[:2]
        cum = p[:, a0:a1 + 1, b1] - p[:, a0:a1 + 1, b0]
        cum = cum[:, 1:] - cum[:, :1]  # totals of lines a0..a
        # the nonempty lines; the first line of a shrunk box always is one
        lines = a0 + np.flatnonzero(np.concatenate(([True], cum[0, 1:] > cum[0, :-1])))
        low = cum[:, lines[:-1] - a0]
        sse, mark = leaf(np.concatenate([low, cum[:, -1:] - low, cum[:, -1:]], axis=1))
        lo, hi = edges[axis - 1]
        return 0.5 * (hi[lines[:-1]] + lo[lines[1:]]), sse, mark, lines

    def kids(box, axis, lines):
        """Shrunk boxes of the low and high child of every cut across `axis`."""
        p = views[axis - 1][0]
        a0, a1, b0, b1 = box if axis == 1 else box[2:] + box[:2]
        out = []
        for t0, t1 in ((a0, lines[:-1] + 1), (lines[1:], a1)):
            wt = ((p[t1, b0 + 1:b1 + 1] - p[t1, b0:b0 + 1])
                  - (p[t0, b0 + 1:b1 + 1] - p[t0, b0:b0 + 1]))  # weight of lines b0..b
            first = b0 + (wt <= 0.0).sum(axis=1)
            last = b0 + 1 + (wt < wt[:, -1:]).sum(axis=1)
            cols = np.broadcast_arrays(t0, t1, first, last)
            cols = cols if axis == 1 else cols[2:] + cols[:2]
            out.append(list(zip(*(c.tolist() for c in cols))))
        return out

    def best(box, k, depth):
        # depth d holds at most 2**d leaves, and k leaves need depth k - 1 at most
        k = min(k, 2 ** depth)
        depth = min(depth, k - 1)
        key = (box, k, depth)
        hit = memo.get(key)
        if hit is not None:
            return hit
        scans = [scan(box, axis) for axis in (1, 2)]
        val, node = float(scans[0][1][-1]), Leaf(float(scans[0][2][-1]))
        scans = [(axis, *sc) for axis, sc in zip((1, 2), scans) if k > 1 and sc[0].size]
        for axis, cuts, sse, mark, _ in scans:
            m = cuts.size  # both children leaves: every cut position at once
            costs = sse[:m] + sse[m:2 * m]
            j = int(np.argmin(costs))
            if costs[j] < val - tol:
                val = float(costs[j])
                node = Split(axis, float(cuts[j]), Leaf(float(mark[j])), Leaf(float(mark[m + j])))
        for axis, cuts, sse, mark, lines in scans if k > 2 else ():
            lows, highs = kids(box, axis, lines)
            m, sse, mark = cuts.size, sse.tolist(), mark.tolist()
            for j, cut in enumerate(cuts.tolist()):
                for k_lo in range(1, k):
                    v_lo, t_lo = (sse[j], None) if k_lo == 1 else best(lows[j], k_lo, depth - 1)
                    v_hi, t_hi = ((sse[m + j], None) if k_lo == k - 1
                                  else best(highs[j], k - k_lo, depth - 1))
                    if v_lo + v_hi < val - tol:
                        val = v_lo + v_hi
                        node = Split(axis, cut, t_lo or Leaf(mark[j]), t_hi or Leaf(mark[m + j]))
        memo[key] = (val, node)
        return val, node

    root = (0, atoms.shape[1], 0, atoms.shape[2])
    return lambda k_leaves: best(root, k_leaves, depth_cap)[::-1]


def _same_tree(a, b):
    """Equal axes, cuts and shape; marks within 1e-12."""
    if isinstance(a, Leaf) or isinstance(b, Leaf):
        return isinstance(a, Leaf) and isinstance(b, Leaf) and abs(a.mark - b.mark) <= 1e-12
    return ((a.axis, a.cut) == (b.axis, b.cut) and _same_tree(a.low, b.low)
            and _same_tree(a.high, b.high))


def _data_sse(tree, x, y):
    return float(((y - guillotine.eval_tree(tree, x)) ** 2).sum())


def _ac_dataset(rng, i, n):
    """Data for the i-th comparison: every third dataset on a 0.1 lattice, so
    that coordinates tie, and y a two-cell step plus noise."""
    x = rng.uniform(0.0, 1.0, (n, 2))
    if i % 3 == 0:
        x = np.round(x, 1)
    return x, (x[:, 0] > 0.5) + rng.standard_normal(n)


class TestTreeDpOracle:
    """The tree DP against the per-cut recursion it replaced.  Log-likelihoods
    and SSEs agree within 1e-12; trees agree too, unless the two trees price
    within tol of each other (a near-tie that rounding may settle either way)."""

    def test_empirical_matches_per_cut_recursion(self):
        rng = rng_for(79)
        fits = near_ties = 0
        for i in range(210):
            cap = 1 + i % 3
            n = int(rng.integers(1, 21 if cap == 3 else 151))  # the depth-3 oracle is slow
            x, y = _ac_dataset(rng, i, n)
            m_lo, m_hi = (-0.25, 0.25) if i % 4 == 0 else (-2.0, 2.0)  # tight: marks clip
            sigma = (0.5, 1.0)[i % 2]
            tol = 1e-12 * 2.0 * sigma ** 2
            oracle = _grid_dp_per_cut_recursion(*guillotine._data_grid(x, y), cap, m_lo, m_hi,
                                                tol)
            ks = range(1, min(5, 2 ** cap) + 1)
            for k, (tree, sse) in zip(ks, guillotine.fit_tree_empirical(x, y, ks, cap, sigma,
                                                                        m_lo, m_hi)):
                want, want_sse = oracle(k)
                assert sse == pytest.approx(want_sse, abs=tol), (i, k)
                assert guillotine.leaf_count(tree) <= k and guillotine.tree_depth(tree) <= cap
                fits += 1
                if not _same_tree(tree, want):
                    near_ties += 1
                    assert abs(_data_sse(tree, x, y) - _data_sse(want, x, y)) <= tol + 1e-12, \
                        (i, k, tree, want)
        assert near_ties <= fits // 50, (near_ties, fits)

    def test_population_matches_per_cut_recursion(self):
        rng = rng_for(80)
        fits = near_ties = 0
        for i in range(60):
            depth = 1 + i % 3
            target = guillotine.random_tree(rng, int(rng.integers(1, 2 ** depth + 1)), depth,
                                            -3.0, 3.0)
            m_lo, m_hi = (-0.25, 0.25) if i % 4 == 0 else (-2.0, 2.0)
            for cap in (1, 2, 3):
                oracle = _grid_dp_per_cut_recursion(*guillotine._target_grid(target), cap,
                                                    m_lo, m_hi, 1e-15)
                ks = range(1, min(5, 2 ** cap) + 1)
                for k, (tree, sse) in zip(ks, guillotine.fit_tree_population(target, ks, cap,
                                                                            m_lo, m_hi)):
                    want, want_sse = oracle(k)
                    assert sse == pytest.approx(want_sse, abs=1e-12), (i, cap, k)
                    fits += 1
                    if not _same_tree(tree, want):
                        near_ties += 1
                        assert abs(guillotine.overlay_sq_integral(target, tree)
                                   - guillotine.overlay_sq_integral(target, want)) <= 1e-12, \
                            (i, cap, k, tree, want)
        assert near_ties <= fits // 50, (near_ties, fits)

    @pytest.mark.parametrize("case", ["n=1", "n=2", "one point", "one x1 line", "duplicates",
                                      "constant y"])
    def test_adversarial_ac_fits(self, case):
        rng = rng_for(81)
        x = rng.uniform(0.0, 1.0, (12, 2))
        y = rng.standard_normal(12)
        if case == "n=1":
            x, y = x[:1], y[:1]
        elif case == "n=2":
            x, y = x[:2], y[:2]
        elif case == "one point":
            x = np.tile(x[:1], (12, 1))
        elif case == "one x1 line":
            x[:, 0] = 0.3
        elif case == "duplicates":
            x, y = np.concatenate([x[:6], x[:6]]), np.concatenate([y[:6], y[:6] + 1.0])
        else:
            y = np.full(12, 0.7)
        sample = Sample(Family.AC, np.column_stack([x, y]))
        for cap in (1, 2, 3):
            config = ModelConfig(Family.AC, sigma=1.0, ac_depth_max=cap)
            oracle = _grid_dp_per_cut_recursion(*guillotine._data_grid(x, y), cap,
                                                config.m_lo, config.m_hi, 2e-12)
            ks = range(1, min(4, 2 ** cap) + 1)
            for k, res in zip(ks, fit_ac(sample, config, ks)):
                tree = res.theta.tree
                guillotine.validate_tree(tree)
                assert guillotine.leaf_count(tree) <= k and guillotine.tree_depth(tree) <= cap
                sse = oracle(k)[1]
                assert math.isfinite(res.loglik)
                assert res.loglik == pytest.approx(
                    y.size * -0.5 * math.log(2.0 * math.pi) - 0.5 * sse, abs=1e-12), (cap, k)


_FRESH_DP = guillotine._grid_dp  # builds a fresh DP; never counted


@pytest.fixture
def dp_builds(monkeypatch):
    """Counts the DPs guillotine builds."""
    builds = []

    def counted(*args, **kwargs):
        builds.append(args[2:])  # the depth cap, mark box and (empirical) tol
        return _FRESH_DP(*args, **kwargs)

    monkeypatch.setattr(guillotine, "_grid_dp", counted)
    return builds


def _k_orders(rng, ks):
    """Ascending, descending and shuffled orders of ks."""
    return [list(ks), list(ks)[::-1], [int(k) for k in rng.permutation(ks)]]


def _shared_dp_datasets():
    """(i, x, y, cap, m_lo, m_hi, sigma): n in {1, 2, 5, 30, 100} and depth
    1-3 (3 only where n <= 30), twice each, once with each point given twice."""
    rng = rng_for(83)
    out = []
    for i, (n, cap, twice) in enumerate((n, cap, twice) for n in (1, 2, 5, 30, 100)
                                        for cap in (1, 2, 3) for twice in (False, True)
                                        if cap < 3 or n <= 30):
        x, y = _ac_dataset(rng, i, n)
        if twice:
            x, y = np.concatenate([x, x]), np.concatenate([y, y[::-1]])
        m_lo, m_hi = (-0.25, 0.25) if i % 4 == 0 else (-2.0, 2.0)
        out.append((i, x, y, cap, m_lo, m_hi, (0.5, 1.0)[i % 2]))
    return out


def _marks_rounded(node):
    if isinstance(node, Leaf):
        return Leaf(float(node.mark > 0.0))
    return Split(node.axis, node.cut, _marks_rounded(node.low), _marks_rounded(node.high))


class _HeldDp:
    """A DP behind an object that a weak reference can follow."""

    def __init__(self, dp):
        self.dp = dp

    def __call__(self, k):
        return self.dp(k)


class TestSharedDp:
    """Each call builds one DP, which answers every K the call asks, in any
    order, exactly as a fresh DP per K does; no DP outlives its call."""

    def test_empirical_any_k_order_equals_fresh_dp(self, dp_builds):
        rng = rng_for(84)
        for i, x, y, cap, m_lo, m_hi, sigma in _shared_dp_datasets():
            tol = 1e-12 * 2.0 * sigma ** 2
            ks = range(1, 6)
            fresh = {k: _FRESH_DP(*guillotine._data_grid(x, y), cap, m_lo, m_hi, tol)(k)
                     for k in ks}
            for order in _k_orders(rng, ks):
                del dp_builds[:]
                got = guillotine.fit_tree_empirical(x, y, order, cap, sigma, m_lo, m_hi)
                assert len(dp_builds) == 1, (i, order)
                assert [(repr(tree), sse) for tree, sse in got] == \
                    [(repr(fresh[k][0]), fresh[k][1]) for k in order], (i, order)

    def test_fit_ac_any_k_order_equals_fresh_dp(self, dp_builds):
        rng = rng_for(87)
        for i, x, y, cap, m_lo, m_hi, sigma in _shared_dp_datasets():
            config = ModelConfig(Family.AC, sigma=sigma, m_lo=m_lo, m_hi=m_hi, ac_depth_max=cap)
            sample = Sample(Family.AC, np.column_stack([x, y]))
            tol = 1e-12 * 2.0 * sigma ** 2
            ks = range(1, min(5, 2 ** cap) + 1)
            fresh = {k: ThetaAC(_FRESH_DP(*guillotine._data_grid(x, y), cap, m_lo, m_hi,
                                          tol)(k)[0]) for k in ks}
            for order in _k_orders(rng, ks):
                del dp_builds[:]
                got = fit_ac(sample, config, order)
                assert len(dp_builds) == 1, (i, order)
                assert [(repr(r.theta), r.loglik) for r in got] == \
                    [(repr(fresh[k]), log_likelihood(config, fresh[k], sample))
                     for k in order], (i, order)

    def test_population_any_k_order_equals_fresh_dp(self, dp_builds):
        rng = rng_for(85)
        for i in range(24):
            depth = 1 + i % 3
            target = guillotine.random_tree(rng, int(rng.integers(1, 2 ** depth + 1)), depth,
                                            -3.0, 3.0)
            m_lo, m_hi = (-0.25, 0.25) if i % 4 == 0 else (-2.0, 2.0)
            cap = 1 + (i // 3) % 3
            ks, leaves = range(1, 6), guillotine.leaf_count(target)
            fresh = {k: _FRESH_DP(*guillotine._target_grid(target), cap, m_lo, m_hi, 1e-15)(k)
                     for k in range(1, max(5, leaves) + 1)}
            smallest = next((k for k in range(1, leaves + 1) if fresh[k][1] <= 1e-12), leaves)
            del dp_builds[:]
            assert guillotine.minimal_leaf_count(target, cap, m_lo, m_hi) == smallest
            assert len(dp_builds) == 1, i
            for order in _k_orders(rng, ks):
                del dp_builds[:]
                got = guillotine.fit_tree_population(target, order, cap, m_lo, m_hi)
                assert len(dp_builds) == 1, (i, order)
                assert [(repr(tree), sse) for tree, sse in got] == \
                    [(repr(fresh[k][0]), fresh[k][1]) for k in order], (i, order)

    def test_profile_equals_fit_ac_per_k(self, dp_builds):
        for i, x, y, cap, m_lo, m_hi, sigma in _shared_dp_datasets():
            config = ModelConfig(Family.AC, sigma=sigma, m_lo=m_lo, m_hi=m_hi, ac_depth_max=cap)
            sample = Sample(Family.AC, np.column_stack([x, y]))
            k_top = min(5, 2 ** cap)
            del dp_builds[:]
            prof = profile(sample, config, k_top)
            assert len(dp_builds) == 1, i
            for k in range(1, k_top + 1):
                assert repr(prof.result(k)) == repr(fit(sample, config, (k,))[0]), (i, k)

    def test_projection_table_builds_one_dp(self, dp_builds):
        config = ModelConfig(Family.AC, sigma=1.0, ac_depth_max=3)
        target = ThetaAC(Split(1, 0.5, Split(2, 0.3, Leaf(0.0), Split(1, 0.2, Leaf(1.0),
                                                                      Leaf(-0.5))),
                               Split(2, 0.6, Leaf(1.5), Leaf(-1.0))))
        for direction in (project_entropy, stein_bound):
            del dp_builds[:]
            direction(config, target, range(1, 9))
            assert len(dp_builds) == 1, direction
        spec = ExperimentSpec(config, target, "bic D=dim", mode="entropy_table", k_max=6)
        del dp_builds[:]
        entropy_table(spec, 6)
        assert len(dp_builds) == 1  # both directions of an AC table are one projection

    def test_projection_any_k_order_equals_fresh_dp(self, dp_builds):
        """Below K* each answer is a fresh single-K population DP's fit; from
        K* on it is zero, at the K*-leaf fit embedded into the K-th class."""
        rng = rng_for(88)
        reducible = 0
        for i in range(24):
            depth = 1 + i % 3
            target = guillotine.random_tree(rng, int(rng.integers(1, 2 ** depth + 1)), depth,
                                            -3.0, 3.0)
            if i % 3 == 2:  # marks rounded to 0 or 1, which often makes K* < leaves
                target = _marks_rounded(target)
            m_lo, m_hi = (-3.0, 3.0) if i % 4 == 0 else (-3.5, 3.5)
            sigma = (0.5, 1.0)[i % 2]
            config = ModelConfig(Family.AC, sigma=sigma, m_lo=m_lo, m_hi=m_hi,
                                 ac_depth_max=depth)
            leaves = guillotine.leaf_count(target)
            fresh = {k: _FRESH_DP(*guillotine._target_grid(target), depth, m_lo, m_hi,
                                  1e-15)(k) for k in range(1, leaves + 1)}
            k_star = next((k for k in fresh if fresh[k][1] <= 1e-12), leaves)
            reduced = ThetaAC(fresh[k_star][0])
            ks = range(1, 2 ** depth + 1)
            want = {k: (EntropyValue(fresh[k][1] / (2.0 * sigma ** 2), "closed_form", 1e-12),
                        ThetaAC(fresh[k][0])) if k < k_star else
                    (EntropyValue(0.0, "closed_form", 0.0), embed(config, reduced, k))
                    for k in ks}
            for order in _k_orders(rng, ks):
                for direction in (project_entropy, stein_bound):
                    del dp_builds[:]
                    got = direction(config, ThetaAC(target), order)
                    assert len(dp_builds) == 1, (i, order)
                    assert repr(got) == repr([want[k] for k in order]), (i, order)
            reducible += k_star < leaves
        assert reducible >= 3, reducible

    def test_no_dp_outlives_its_call(self, monkeypatch):
        refs = []

        def held(*args, **kwargs):
            dp = _HeldDp(_FRESH_DP(*args, **kwargs))
            refs.append(weakref.ref(dp))
            return dp

        monkeypatch.setattr(guillotine, "_grid_dp", held)
        sample = simulate(AC, TWO_CELL, 60, seed=9)
        three_cell = ThetaAC(Split(1, 0.5, Split(2, 0.5, Leaf(0.0), Leaf(0.5)), Leaf(1.0)))
        spec = ExperimentSpec(AC, three_cell, "bic D=dim", mode="entropy_table", k_max=4)
        calls = {"profile": lambda: profile(sample, AC, 4),
                 "fit": lambda: fit(sample, AC, (3,)),
                 "true_order": lambda: true_order(AC, TWO_CELL),
                 "project_entropy": lambda: project_entropy(AC, three_cell, (1, 2)),
                 "stein_bound": lambda: stein_bound(AC, three_cell, (2, 1, 4)),
                 "entropy_table": lambda: entropy_table(spec, 4)}
        for name, call in calls.items():
            del refs[:]
            call()
            gc.collect()
            assert refs, name
            assert [r() for r in refs] == [None] * len(refs), name
def _bvls_logliks(sample, config, k_top):
    """The VR profile log-likelihoods from scipy's BVLS on each leading block of
    the basis, dips repaired."""
    basis = vr_basis_matrix(sample.x, k_top)
    lls = [log_likelihood(config, ThetaVR(tuple(_bvls(basis[:, :k], sample.y, config.m_lo,
                                                      config.m_hi))), sample)
           for k in range(1, k_top + 1)]
    return list(np.maximum.accumulate(lls))


class TestFitKWarm:
    """fit at one K with warm=theta is fit_lm_em with embed(theta) as its first
    start on LM, and ignores warm on the exact VR and AC fits."""

    @pytest.mark.parametrize("theta, warm, k, seed", [
        (ThetaLM((1.0,), (0.5,)), ThetaLM((1.0,), (0.5,)), 2, 3),
        (ThetaLM((0.3, 0.7), (-1.0, 1.5)), ThetaLM((0.3, 0.7), (-1.0, 1.5)), 2, 4),
        (ThetaLM((0.3, 0.7), (-1.0, 1.5)), ThetaLM((1.0,), (0.2,)), 3, 5),
        (ThetaLM((0.2, 0.3, 0.5), (-1.5, 0.0, 1.5)), ThetaLM((0.5, 0.5), (-1.0, 1.0)), 4, 6),
    ])
    def test_lm_warm_is_the_embedded_first_start(self, theta, warm, k, seed):
        s = simulate(LM, theta, 90, seed=seed)
        [res] = fit(s, LM, (k,), warm=warm)
        assert res == fit_lm_em(s, k, LM, warm=warm)
        assert res.starts_used == 10
        first = fit_lm_em(s, k, LM, warm=warm, track_paths=True).loglik_paths[0][0]
        assert first == pytest.approx(log_likelihood(LM, embed(LM, warm, k), s), rel=1e-12)
        assert fit(s, LM, (k,)) == [fit_lm_em(s, k, LM)]

    @pytest.mark.parametrize("config, theta, warm, k", [
        (VR, ThetaVR((1.0, 0.5)), ThetaVR((1.0, 0.5)), 3),
        (VR, ThetaVR((1.0, 0.5)), ThetaVR((-2.0,)), 2),
        (AC, TWO_CELL, TWO_CELL, 3),
        (AC, TWO_CELL, ThetaAC(Leaf(0.5)), 2),
    ])
    def test_exact_fits_ignore_warm(self, config, theta, warm, k):
        s = simulate(config, theta, 70, seed=8)
        assert fit(s, config, (k,), warm=warm) == fit(s, config, (k,))


class TestFit:
    """fit(sample, config, ks, warm) checks every K before any fit starts, and
    answers a set of K as the single-K fits chained by their warm starts do."""

    @pytest.mark.parametrize("config, theta", [
        (LM, ThetaLM((0.5, 0.5), (-1.0, 1.0))), (VR, ThetaVR((1.0, 0.5))), (AC, TWO_CELL)])
    @pytest.mark.parametrize("ks", [(), (2, 1), (1, 1), (1, 3, 3), (0, 1), "past the cap",
                                    "another family"])
    def test_bad_request_fails_before_any_fit(self, config, theta, ks, monkeypatch):
        sample = simulate(config, theta, 30, seed=3)
        if ks == "past the cap":
            ks = (1, 2 ** config.ac_depth_max + 1 if config.family is Family.AC else 65)
        elif ks == "another family":
            ks, config = (1, 2), LM if config.family is Family.VR else VR

        def no_fit(*args, **kwargs):
            raise AssertionError("a fit started")

        monkeypatch.setattr(Sample, "vr_basis", no_fit)
        monkeypatch.setattr(guillotine, "_grid_dp", no_fit)
        monkeypatch.setattr(fitting, "_em_run", no_fit)
        with pytest.raises(UsageError):
            fit(sample, config, ks)

    @pytest.mark.parametrize("config, theta, warm", [
        (LM, ThetaLM((0.3, 0.7), (-1.0, 1.5)), None),
        (LM, ThetaLM((0.3, 0.7), (-1.0, 1.5)), ThetaLM((1.0,), (0.2,))),
        (VR, ThetaVR((1.0, 0.5)), None),
        (ModelConfig(Family.VR, sigma=0.5, m_lo=-0.25, m_hi=0.25), ThetaVR((0.25, -0.25)), None),
        (AC, TWO_CELL, None),
    ])
    def test_ks_equal_the_chained_single_k_fits(self, config, theta, warm):
        for seed in range(4):
            s = simulate(config, theta, 80, seed=seed)
            for ks in ((1, 2), (2, 3), (2, 4)):
                [first] = fit(s, config, ks[:1], warm=warm)
                [second] = fit(s, config, ks[1:], warm=first.theta)
                got = fit(s, config, ks, warm=warm)
                if config.family is Family.LM:
                    assert got == [first, second], (seed, ks)
                elif config.family is Family.AC:
                    assert repr(got) == repr([first, second]), (seed, ks)
                else:
                    for a, b in zip(got, (first, second)):
                        assert a.iterations == b.iterations, (seed, ks)
                        assert a.loglik == pytest.approx(b.loglik, rel=1e-12), (seed, ks)
                        assert a.theta.coeffs == pytest.approx(b.theta.coeffs, rel=1e-12,
                                                               abs=1e-12), (seed, ks)


class TestProfile:
    def test_k_top_one_matches_fitter(self):
        s = simulate(VR, ThetaVR((1.0,)), 60, seed=2)
        prof = profile(s, VR, 1)
        [solo] = fit(s, VR, (1,))
        assert prof.loglik(1) == pytest.approx(solo.loglik, abs=1e-12)

    @pytest.mark.parametrize("config,theta,k_top", [
        (VR, ThetaVR((1.0, 0.5)), 5),
        (LM, ThetaLM((0.5, 0.5), (-2.0, 2.0)), 4),
        (AC, TWO_CELL, 3),
        # a zero bound: raw VR fits can dip here by rounding, so the repair
        # in profile serves VR too
        (ModelConfig(Family.VR, sigma=1.0, m_lo=0.0), ThetaVR((1.0, 0.5)), 5),
    ])
    def test_monotone_in_k(self, config, theta, k_top):
        s = simulate(config, theta, 150, seed=13)
        prof = profile(s, config, k_top)
        lls = [prof.loglik(k) for k in range(1, k_top + 1)]
        assert all(b >= a for a, b in zip(lls, lls[1:]))

    def test_vr_profile_matches_fresh_fits(self):
        s = simulate(VR, ThetaVR((1.0, 0.5)), 400, seed=14)
        prof = profile(s, VR, 4)
        for k in range(1, 5):
            [fresh] = fit(s, VR, (k,))
            assert prof.loglik(k) == pytest.approx(fresh.loglik, abs=1e-6)

    @pytest.mark.parametrize("sigma", [0.1, 1.0, 3.0])
    def test_vr_profile_matches_coordinate_descent(self, sigma):
        # designs: every third in a tight box, every fourth on a 0.1 lattice
        # (duplicate rows), every fifth with n < k_top (singular Gram)
        rng = rng_for(61, int(10 * sigma))
        tight_changes = 0
        for d in range(30):
            tight = d % 3 == 0
            config = ModelConfig(Family.VR, sigma=sigma, m_lo=-0.25 if tight else -2.0,
                                 m_hi=0.25 if tight else 2.0)
            k_top = int(rng.integers(2, 7))
            n = int(rng.integers(1, k_top)) if d % 5 == 0 else int(rng.integers(k_top, 200))
            x = rng.uniform(0.0, 1.0, n)
            if d % 4 == 1:
                x = np.round(x, 1)
            y = vr_basis_matrix(x, 2) @ np.array([1.0, 0.5]) + sigma * rng.standard_normal(n)
            s = Sample(Family.VR, np.column_stack([x, y]))
            prof = profile(s, config, k_top)
            lls = [prof.loglik(k) for k in range(1, k_top + 1)]
            assert lls == pytest.approx(_bvls_logliks(s, config, k_top), rel=0.0, abs=1e-9)
            basis = vr_basis_matrix(x, k_top)
            for k, entry in enumerate(prof.entries, start=1):
                assert entry.converged
                _assert_kkt(basis[:, :k].T @ basis[:, :k], basis[:, :k].T @ y,
                            entry.theta.coeffs, config.m_lo, config.m_hi)
            if tight:
                tight_changes += sum(e.iterations for e in prof.entries)
        assert tight_changes > 0  # a binding bound must reach the active-set solver

    @pytest.mark.parametrize("case", ["n=1", "n=2", "duplicates", "x=0.5", "K>n", "constant y",
                                      "y=+1e6", "y=-1e6"])
    @pytest.mark.parametrize("box", [(-2.0, 2.0), (-0.25, 0.25)])
    def test_adversarial_vr_profiles(self, case, box):
        rng = rng_for(62)
        x = rng.uniform(0.0, 1.0, 12)
        y = vr_basis_matrix(x, 2) @ np.array([1.0, 0.5]) + rng.standard_normal(12)
        if case == "n=1":
            x, y = x[:1], y[:1]
        elif case == "n=2":
            x, y = x[:2], y[:2]
        elif case == "duplicates":
            x, y = np.repeat(np.round(x[:4], 1), 3), y
        elif case == "x=0.5":  # the first basis column is ~1e-16 there
            x = np.where(np.arange(12) % 2, 0.5, x)
        elif case == "K>n":
            x, y = x[:3], y[:3]
        elif case == "constant y":
            y = np.full(12, 0.7)
        else:
            y = np.full(12, float(case[2:])) + rng.standard_normal(12)
        config = ModelConfig(Family.VR, sigma=1.0, m_lo=box[0], m_hi=box[1])
        sample = Sample(Family.VR, np.column_stack([x, y]))
        prof = profile(sample, config, 5)
        basis = vr_basis_matrix(x, 5)
        gram, b = basis.T @ basis, basis.T @ y
        lls = []
        for k in range(1, 6):
            entry = prof.result(k)
            coeffs = np.asarray(entry.theta.coeffs)
            assert coeffs.shape == (k,) and np.isfinite(coeffs).all(), (case, k)
            assert ((box[0] <= coeffs) & (coeffs <= box[1])).all(), (case, k, coeffs)
            assert entry.loglik == pytest.approx(
                log_likelihood(config, entry.theta, sample), rel=1e-9, abs=1e-9), (case, k)
            head = _bvls(basis[:, :k], y, box[0], box[1])
            oracle = log_likelihood(config, ThetaVR(tuple(head)), sample)
            assert entry.loglik == pytest.approx(oracle, rel=1e-9, abs=1e-9), (case, k)
            assert entry.converged, (case, k)
            _assert_kkt(gram[:k, :k], b[:k], coeffs, box[0], box[1])
            lls.append(entry.loglik)
        assert all(b >= a for a, b in zip(lls, lls[1:])), (case, lls)

    def test_profile_csv(self):
        s = simulate(VR, ThetaVR((1.0,)), 30, seed=2)
        lines = fits_csv(enumerate(profile(s, VR, 2).entries, start=1)).splitlines()
        assert lines[0] == "K,loglik,converged,iterations"
        assert len(lines) == 3 and lines[1].startswith("1,")
