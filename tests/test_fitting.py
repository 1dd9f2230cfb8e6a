import math

import numpy as np
import pytest
from scipy.special import logsumexp

from orderest import (
    Family, Leaf, ModelConfig, ParameterError, Sample, Split, ThetaAC, ThetaLM, ThetaVR,
    FitResult, UsageError, embed, estimate_orders, fit_ac, fit_lm_em, fit_vr,
    is_underestimation_prob, log_likelihood, parse_schedule, peeling_assert, profile,
    random_theta, simulate,
)
from orderest import fitting, models
from orderest.fitting import EM_MAX_ITER, EM_TOL, _box_qp, _lm_start_list
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
    rule and E-pass cap as fitting._em_run.  Returns weights, means, final
    loglik, E-passes, converged and the loglik path of the accepted iterates."""
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
        path.append(la)
        if la - ll < EM_TOL:
            return wa, ma, la, passes, True, tuple(path)
        w, m, comp, per_obs, ll = wa, ma, ca, pa, la
    return w, m, ll, passes, False, tuple(path)


def _fit_lm_em_one_start_at_a_time(sample, k, config, starts, extra_inits):
    """fit_lm_em with every start run alone by _squarem_one_start; also
    returns each start's E-pass count."""
    inits = _lm_start_list(sample.z, k, config, starts, sample.seed)
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
    theta = ThetaLM(tuple(w / w.sum()), tuple(m))
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
            s = Sample(Family.LM, z, seed=int(rng.integers(1000)))
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
        s = Sample(Family.LM, z, seed=3)
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
        s = Sample(Family.LM, np.full(25, z0), seed=0)
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
                assert steps.size == 0 or steps.min() >= -1e-9

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
        s = Sample(Family.LM, np.asarray(z), seed=0)
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
        s = Sample(Family.VR, np.column_stack([x, np.zeros(40)]), seed=0)
        res = fit_vr(s, 3, VR)
        assert np.allclose(res.theta.coeffs, 0.0, atol=1e-12)

    def test_noiseless_recovery(self):
        theta = ThetaVR((0.8, -0.3, 0.1))
        x = np.linspace(0.0, 1.0, 50)
        y = vr_basis_matrix(x, 3) @ np.asarray(theta.coeffs)
        s = Sample(Family.VR, np.column_stack([x, y]), seed=0)
        res = fit_vr(s, 3, VR)
        assert np.allclose(res.theta.coeffs, theta.coeffs, atol=1e-8)

    def test_matches_projected_gradient_oracle(self):
        rng = rng_for(31)
        x = rng.uniform(0, 1, 200)
        y = rng.normal(0.0, 1.0, 200) + 0.7 * math.sqrt(2) * np.cos(math.pi * x)
        s = Sample(Family.VR, np.column_stack([x, y]), seed=0)
        res = fit_vr(s, 4, VR)

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
        res = fit_vr(s, 3, tight)
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


def _vr_optima_loop(gram, b, ks, lo, hi, tol):
    """_vr_optima without its set-up cache and fast return: every block
    through the per-K loop."""
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
    sweeps = [0] * len(ks)
    converged = [True] * len(ks)
    theta = np.zeros(top)
    for i, k in enumerate(ks):
        if solved[i]:
            theta[:k] = coeffs[i, :k]
            continue
        _, sweeps[i], converged[i] = _box_qp(gram[:k, :k], b[:k], theta[:k], lo, hi, tol)
        coeffs[i] = theta
    return coeffs, sweeps, converged


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
        box_qp_calls = []
        monkeypatch.setattr(fitting, "_box_qp",
                            lambda *a: box_qp_calls.append(1) or _box_qp(*a))
        for ks in ((1, 2, 3, 4, 5), (3,), (5,), (2, 4)):
            got = fitting._vr_optima(gram, b, ks, lo, hi, 1e-10)
            want = _vr_optima_loop(gram, b, ks, lo, hi, 1e-10)
            assert np.array_equal(got[0], want[0]) and got[1:] == want[1:], (case, ks)
        # only the inside case takes the fast return everywhere
        assert (len(box_qp_calls) == 0) == (case == "inside")

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
        s = Sample(Family.VR, np.column_stack([x, rng.standard_normal(80)]), seed=0)
        fit_vr(s, 3, VR)
        assert builds == [3]
        fit_vr(s, 2, VR)
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
        s = Sample(Family.VR, np.column_stack([x, y]), seed=0)
        rep = peeling_assert(s, VR, 2, 3, ThetaVR((1.0, 0.5)), n_probes=200)
        assert rep.probes_used + rep.probes_skipped == 202
        assert len(builds) <= 3


class TestFitAc:
    def test_k1_closed_form(self):
        s = simulate(AC, TWO_CELL, 120, seed=5)
        res = fit_ac(s, 1, AC)
        m = float(np.clip(s.y.mean(), AC.m_lo, AC.m_hi))
        expected = (-0.5 * s.n * math.log(2 * math.pi)
                    - 0.5 * float(((s.y - m) ** 2).sum()))
        assert res.loglik == pytest.approx(expected, abs=1e-9)

    def test_two_cell_recovery_vs_single_split_oracle(self):
        noisy = ModelConfig(Family.AC, sigma=0.1, ac_depth_max=2)
        s = simulate(noisy, ThetaAC(Split(1, 0.4, Leaf(0.0), Leaf(1.0))), 500, seed=6)
        res = fit_ac(s, 2, noisy)
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
        s = Sample(Family.AC, np.array([[0.3, 0.6, 0.8]]), seed=0)
        res = fit_ac(s, 2, AC)
        assert res.loglik == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-12)

    def test_k_exceeding_depth_cap(self):
        s = simulate(AC, TWO_CELL, 30, seed=0)
        shallow = ModelConfig(Family.AC, sigma=1.0, ac_depth_max=1)
        with pytest.raises(UsageError):
            fit_ac(s, 3, shallow)

    @pytest.mark.parametrize("depth, n_max, ks, datasets", [
        pytest.param(2, 30, (1, 2, 3, 4), 8, id="depth2"),
        pytest.param(3, 12, (3, 5), 3, id="depth3"),
    ])
    def test_dp_equals_exhaustive_enumeration(self, depth, n_max, ks, datasets):
        # every candidate tree, n <= n_max
        const = -0.5 * math.log(2 * math.pi)
        rng = rng_for(77)
        for trial in range(datasets):
            n = int(rng.integers(6, n_max + 1))
            x = rng.uniform(0, 1, (n, 2))
            y = rng.normal(0, 1, n)

            def leaf_ll(idx):
                if idx.size == 0:
                    return 0.0
                m = float(np.clip(y[idx].mean(), -2.0, 2.0))
                return idx.size * const - 0.5 * float(((y[idx] - m) ** 2).sum())

            def cuts(idx, axis):
                u = np.unique(x[idx, axis])
                return 0.5 * (u[:-1] + u[1:]) if u.size > 1 else []

            def enum_best(idx, k, depth):
                best = leaf_ll(idx)
                if k > 1 and depth > 0 and idx.size > 1:
                    for axis in (0, 1):
                        for cut in cuts(idx, axis):
                            low = idx[x[idx, axis] < cut]
                            high = idx[x[idx, axis] >= cut]
                            for k_lo in range(1, k):
                                best = max(best, enum_best(low, k_lo, depth - 1)
                                           + enum_best(high, k - k_lo, depth - 1))
                return best

            for k in ks:
                _, ll = guillotine.fit_tree_empirical(x, y, k, depth, 1.0, -2.0, 2.0)
                assert ll == pytest.approx(enum_best(np.arange(n), k, depth), abs=1e-9), \
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
                for k in range(1, min(5, 2 ** cap) + 1):
                    tree, sse = guillotine.fit_tree_population(target, k, cap, m_lo, m_hi)
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
            const = n * (-0.5 * math.log(2.0 * math.pi) - math.log(sigma))
            for k in range(1, min(5, 2 ** cap) + 1):
                tree, ll = guillotine.fit_tree_empirical(x, y, k, cap, sigma, m_lo, m_hi)
                want, sse = oracle(k)
                assert ll == pytest.approx(const - sse / (2.0 * sigma ** 2), abs=1e-12), (i, k)
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
                for k in range(1, min(5, 2 ** cap) + 1):
                    tree, sse = guillotine.fit_tree_population(target, k, cap, m_lo, m_hi)
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
        sample = Sample(Family.AC, np.column_stack([x, y]), seed=0)
        for cap in (1, 2, 3):
            config = ModelConfig(Family.AC, sigma=1.0, ac_depth_max=cap)
            oracle = _grid_dp_per_cut_recursion(*guillotine._data_grid(x, y), cap,
                                                config.m_lo, config.m_hi, 2e-12)
            for k in range(1, min(4, 2 ** cap) + 1):
                res = fit_ac(sample, k, config)
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
    """Counts the DPs guillotine builds; starts with neither fit's DP kept."""
    builds = []

    def counted(*args, **kwargs):
        builds.append(args[2:])  # the depth cap, mark box and (empirical) tol
        return _FRESH_DP(*args, **kwargs)

    monkeypatch.setattr(guillotine, "_grid_dp", counted)
    monkeypatch.setattr(guillotine, "_KEPT", {})
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


class TestSharedDp:
    """One kept DP per kind answers every K, in any order, exactly as a fresh
    DP per K does; any change to its inputs builds a new one."""

    def test_empirical_any_k_order_equals_fresh_dp(self, dp_builds):
        rng = rng_for(84)
        for i, x, y, cap, m_lo, m_hi, sigma in _shared_dp_datasets():
            tol = 1e-12 * 2.0 * sigma ** 2
            const = y.size * (-0.5 * math.log(2.0 * math.pi) - math.log(sigma))
            ks = range(1, 6)
            fresh = {k: _FRESH_DP(*guillotine._data_grid(x, y), cap, m_lo, m_hi, tol)(k)
                     for k in ks}
            for order in _k_orders(rng, ks):
                guillotine._KEPT.clear()
                del dp_builds[:]
                for k in order:
                    tree, ll = guillotine.fit_tree_empirical(x, y, k, cap, sigma, m_lo, m_hi)
                    want, sse = fresh[k]
                    assert repr(tree) == repr(want), (i, order, k)
                    assert ll == const - sse / (2.0 * sigma ** 2), (i, order, k)
                assert len(dp_builds) == 1, (i, order)

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
            for order in _k_orders(rng, ks):
                guillotine._KEPT.clear()
                del dp_builds[:]
                assert guillotine.minimal_leaf_count(target, cap, m_lo, m_hi) == smallest
                for k in order:
                    tree, sse = guillotine.fit_tree_population(target, k, cap, m_lo, m_hi)
                    assert (repr(tree), sse) == (repr(fresh[k][0]), fresh[k][1]), (i, order, k)
                assert len(dp_builds) == 1, (i, order)

    def test_profile_equals_fit_ac_per_k(self, dp_builds):
        for i, x, y, cap, m_lo, m_hi, sigma in _shared_dp_datasets():
            config = ModelConfig(Family.AC, sigma=sigma, m_lo=m_lo, m_hi=m_hi, ac_depth_max=cap)
            sample = Sample(Family.AC, np.column_stack([x, y]), seed=0)
            k_top = min(5, 2 ** cap)
            del dp_builds[:]
            prof = profile(sample, config, k_top)
            assert len(dp_builds) == 1, i
            for k in range(1, k_top + 1):
                guillotine._KEPT.clear()  # fit_ac from a fresh DP
                assert repr(prof.result(k)) == repr(fit_ac(sample, k, config)), (i, k)

    @pytest.mark.parametrize("change", ["x", "m_lo", "m_hi", "sigma", "depth_cap",
                                        "x in place", "y in place"])
    def test_empirical_key_misses(self, dp_builds, change):
        rng = rng_for(86)
        x = rng.uniform(0.0, 1.0, (40, 2))
        y = (x[:, 0] > 0.5) - 1.5 + 0.3 * rng.standard_normal(40)  # marks near -1.5, -0.5
        args = dict(depth_cap=2, sigma=1.0, m_lo=-2.0, m_hi=2.0)
        guillotine.fit_tree_empirical(x, y, 3, **args)
        guillotine.fit_tree_empirical(x, y, 2, **args)
        assert len(dp_builds) == 1
        if change == "x":
            x = x[::-1].copy()  # equal y, points moved
        elif change == "x in place":
            x[:, 1] = 1.0 - x[:, 1]
        elif change == "y in place":
            y[:5] += 1.0
        else:
            args[change] = {"m_lo": -1.0, "m_hi": -1.0 + 1e-9, "sigma": 0.5,
                            "depth_cap": 1}[change]
        for k in (3, 2):
            got = guillotine.fit_tree_empirical(x, y, k, **args)
            tol = 1e-12 * 2.0 * args["sigma"] ** 2
            tree, sse = _FRESH_DP(*guillotine._data_grid(x, y), args["depth_cap"],
                                  args["m_lo"], args["m_hi"], tol)(k)
            assert repr(got[0]) == repr(tree), (change, k)
            const = y.size * (-0.5 * math.log(2.0 * math.pi) - math.log(args["sigma"]))
            assert got[1] == const - sse / (2.0 * args["sigma"] ** 2), (change, k)
        assert len(dp_builds) == 2, change

    @pytest.mark.parametrize("change", ["target", "m_lo", "m_hi", "depth_cap"])
    def test_population_key_misses(self, dp_builds, change):
        target = Split(1, 0.5, Split(2, 0.3, Leaf(-1.5), Leaf(-0.5)), Leaf(1.0))
        args = dict(depth_cap=2, m_lo=-2.0, m_hi=2.0)
        guillotine.fit_tree_population(target, 3, **args)
        assert guillotine.minimal_leaf_count(target, **args) == 3
        assert len(dp_builds) == 1
        if change == "target":
            target = Split(1, 0.5, Split(2, 0.3, Leaf(-1.5), Leaf(-0.4)), Leaf(1.0))
        else:
            args[change] = {"m_lo": -1.0, "m_hi": 0.5, "depth_cap": 1}[change]
        for k in (3, 2):
            got = guillotine.fit_tree_population(target, k, **args)
            tree, sse = _FRESH_DP(*guillotine._target_grid(target), args["depth_cap"],
                                  args["m_lo"], args["m_hi"], 1e-15)(k)
            assert (repr(got[0]), got[1]) == (repr(tree), sse), (change, k)
        assert len(dp_builds) == 2, change


def _coordinate_descent_logliks(sample, config, k_top):
    """The VR profile log-likelihoods by warm-started coordinate descent on each
    leading block of the Gram matrix, to tolerance 1e-12, dips repaired."""
    basis = vr_basis_matrix(sample.x, k_top)
    gram, b = basis.T @ basis, basis.T @ sample.y
    theta = np.zeros(k_top)
    lls = []
    for k in range(1, k_top + 1):
        head, _, _ = _box_qp(gram[:k, :k], b[:k], theta[:k], config.m_lo, config.m_hi, 1e-12)
        lls.append(log_likelihood(config, ThetaVR(tuple(head)), sample))
    return list(np.maximum.accumulate(lls))


class TestFitKWarm:
    """fit_k(warm=theta) is fit_lm_em with embed(theta) as its first start on LM,
    and a no-op on the exact VR and AC fits."""

    @pytest.mark.parametrize("theta, warm, k, seed", [
        (ThetaLM((1.0,), (0.5,)), ThetaLM((1.0,), (0.5,)), 2, 3),
        (ThetaLM((0.3, 0.7), (-1.0, 1.5)), ThetaLM((0.3, 0.7), (-1.0, 1.5)), 2, 4),
        (ThetaLM((0.3, 0.7), (-1.0, 1.5)), ThetaLM((1.0,), (0.2,)), 3, 5),
        (ThetaLM((0.2, 0.3, 0.5), (-1.5, 0.0, 1.5)), ThetaLM((0.5, 0.5), (-1.0, 1.0)), 4, 6),
    ])
    def test_lm_warm_is_the_embedded_first_start(self, theta, warm, k, seed):
        s = simulate(LM, theta, 90, seed=seed)
        fit = fitting.fit_k(s, k, LM, warm=warm)
        assert fit == fit_lm_em(s, k, LM, warm=warm)
        assert fit.starts_used == 11
        first = fit_lm_em(s, k, LM, warm=warm, track_paths=True).loglik_paths[0][0]
        assert first == pytest.approx(log_likelihood(LM, embed(LM, warm, k), s), rel=1e-12)
        assert fitting.fit_k(s, k, LM) == fit_lm_em(s, k, LM)

    @pytest.mark.parametrize("config, theta, warm, k", [
        (VR, ThetaVR((1.0, 0.5)), ThetaVR((1.0, 0.5)), 3),
        (VR, ThetaVR((1.0, 0.5)), ThetaVR((-2.0,)), 2),
        (AC, TWO_CELL, TWO_CELL, 3),
        (AC, TWO_CELL, ThetaAC(Leaf(0.5)), 2),
    ])
    def test_exact_fits_ignore_warm(self, config, theta, warm, k):
        s = simulate(config, theta, 70, seed=8)
        assert fitting.fit_k(s, k, config, warm=warm) == fitting.fit_k(s, k, config)


class TestProfile:
    def test_k_top_one_matches_fitter(self):
        s = simulate(VR, ThetaVR((1.0,)), 60, seed=2)
        prof = profile(s, VR, 1)
        solo = fit_vr(s, 1, VR)
        assert prof.loglik(1) == pytest.approx(solo.loglik, abs=1e-12)

    @pytest.mark.parametrize("config,theta,k_top", [
        (VR, ThetaVR((1.0, 0.5)), 5),
        (LM, ThetaLM((0.5, 0.5), (-2.0, 2.0)), 4),
        (AC, TWO_CELL, 3),
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
            fresh = fit_vr(s, k, VR)
            assert prof.loglik(k) == pytest.approx(fresh.loglik, abs=1e-6)

    @pytest.mark.parametrize("sigma", [0.1, 1.0, 3.0])
    def test_vr_profile_matches_coordinate_descent(self, sigma):
        # designs: every third in a tight box, every fourth on a 0.1 lattice
        # (duplicate rows), every fifth with n < k_top (singular Gram)
        rng = rng_for(61, int(10 * sigma))
        tight_sweeps = 0
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
            s = Sample(Family.VR, np.column_stack([x, y]), seed=0)
            prof = profile(s, config, k_top)
            lls = [prof.loglik(k) for k in range(1, k_top + 1)]
            assert lls == pytest.approx(_coordinate_descent_logliks(s, config, k_top),
                                        rel=0.0, abs=1e-9)
            if tight:
                tight_sweeps += sum(e.iterations for e in prof.entries)
        assert tight_sweeps > 0  # a binding bound must reach the coordinate descent

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
        sample = Sample(Family.VR, np.column_stack([x, y]), seed=0)
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
            head, _, _ = _box_qp(gram[:k, :k], b[:k], np.zeros(k), box[0], box[1], 1e-12)
            oracle = log_likelihood(config, ThetaVR(tuple(head)), sample)
            assert entry.loglik == pytest.approx(oracle, rel=1e-9, abs=1e-9), (case, k)
            lls.append(entry.loglik)
        assert all(b >= a for a, b in zip(lls, lls[1:])), (case, lls)

    def test_profile_csv(self):
        s = simulate(VR, ThetaVR((1.0,)), 30, seed=2)
        lines = profile(s, VR, 2).to_csv().splitlines()
        assert lines[0] == "K,loglik,converged,iterations"
        assert len(lines) == 3 and lines[1].startswith("1,")
