import math

import numpy as np
import pytest

from orderest import (
    Family, FitError, ModelConfig, ThetaLM, ThetaVR, UsageError, estimate_orders, fit_exponent,
    fit_moderate_rate, is_underestimation_prob, mc_error_probs, order_trials,
    parse_schedule, peeling_assert, profile, simulate, slln_trace, wilson_interval,
)
from orderest import deviations, fitting
from orderest.criterion import TIE_TOL, crit_values
from orderest.deviations import tally_orders
from orderest.fitting import fit
from orderest.models import (
    Leaf, Split, ThetaAC, derive_seed, log_likelihood, random_theta, rng_for,
)

LM = ModelConfig(Family.LM, sigma=1.0)
VR = ModelConfig(Family.VR, sigma=1.0)
AC = ModelConfig(Family.AC, sigma=1.0, ac_depth_max=2)

TWO_CELL = ThetaAC(Split(1, 0.5, Leaf(0.0), Leaf(1.0)))
BIC_SMALL = parse_schedule("bic D=dim*0.05", Family.VR, 4)
POWER_DIM = parse_schedule("power:0.4 D=dim", Family.VR, 5)


class TestWilson:
    def test_basic(self):
        lo, hi = wilson_interval(50, 100)
        assert lo < 0.5 < hi

    def test_extremes(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0 and 0.0 < hi < 0.05
        lo, hi = wilson_interval(100, 100)
        assert 0.95 < lo < 1.0 and hi == 1.0

    def test_contains_point_estimate(self):
        for k, n in ((0, 10), (3, 10), (10, 10), (999, 1000)):
            lo, hi = wilson_interval(k, n)
            assert lo <= k / n <= hi

    @pytest.mark.parametrize("k,n", [(5, 3), (-1, 3), (1, 0)])
    def test_successes_outside_trials_rejected(self, k, n):
        with pytest.raises(UsageError, match=rf"successes = {k} .*trials = {n}"):
            wilson_interval(k, n)


def _orders_read_to_k_max_plus_one(prof, schedule, k_max):
    """The estimators on crit at K = 1..k_max + 1, the reference rule: the
    local one compares crit(k_max) with crit(k_max + 1), and returns k_max
    either way."""
    values = crit_values(prof.logliks(), schedule, prof.n)
    k_local = next((k for k in range(1, k_max + 1)
                    if values[k] >= values[k + 1] - TIE_TOL), None)
    best = max(values[k] for k in range(1, k_max + 1))
    k_global = next(k for k in range(1, k_max + 1) if values[k] >= best - TIE_TOL)
    return k_local or k_max, k_global


class TestOrderTrials:
    @pytest.mark.parametrize("config, k_max, samples", [
        (LM, 3, 12), (VR, 4, 40), (ModelConfig(Family.VR, sigma=1.0, m_lo=0.0), 4, 40),
        (AC, 3, 12)])
    def test_orders_need_no_fit_past_k_max(self, config, k_max, samples):
        # on frozen samples, with a penalty small enough that crit often rises
        # through k_max, the orders from a profile to k_max equal those the
        # old rule read from a profile to k_max + 1
        rng = rng_for(2601, list(Family).index(config.family))
        hits = 0
        for i in range(samples):
            theta = random_theta(config, int(rng.integers(1, k_max + 1)), rng)
            sample = simulate(config, theta, int(rng.integers(40, 201)), derive_seed(2602, i))
            short, long = profile(sample, config, k_max), profile(sample, config, k_max + 1)
            for spec in ("bic D=dim", "bic D=dim*0.02"):
                schedule = parse_schedule(spec, config.family, k_max + 1)
                est = estimate_orders(short, schedule, k_max)
                want = _orders_read_to_k_max_plus_one(long, schedule, k_max)
                assert (est.k_local, est.k_global) == want, (i, spec)
                hits += est.k_local == k_max
        assert 0 < hits < 2 * samples

    @pytest.mark.parametrize("config, theta", [
        (LM, ThetaLM((0.3, 0.4, 0.3), (-2.0, 0.0, 2.0))), (VR, ThetaVR((1.0, 0.5))),
        (AC, TWO_CELL)])
    def test_a_trial_fits_k_up_to_k_max(self, config, theta, monkeypatch):
        asked = []
        real = fitting.fit

        def counting(sample, config, ks, warm=None):
            asked.append(tuple(ks))
            return real(sample, config, ks, warm)

        monkeypatch.setattr(fitting, "fit", counting)
        sched = parse_schedule("bic D=dim*0.001", config.family, 3)
        orders = order_trials(config, theta, sched, 80, 3, seed=7, k_max=3)
        assert asked == [(1, 2, 3)] * 3
        assert (orders[:, 0] == 3).any()  # a local scan that ran to k_max
    def test_deterministic_and_partition_invariant(self):
        full = order_trials(VR, ThetaVR((1.0, 0.5)), POWER_DIM, 200, 12, seed=5, k_max=3)
        again = order_trials(VR, ThetaVR((1.0, 0.5)), POWER_DIM, 200, 12, seed=5, k_max=3)
        assert np.array_equal(full, again)
        head = order_trials(VR, ThetaVR((1.0, 0.5)), POWER_DIM, 200, 7, seed=5, k_max=3)
        tail = order_trials(VR, ThetaVR((1.0, 0.5)), POWER_DIM, 200, 5, seed=5, k_max=3,
                            first_trial=7)
        assert np.array_equal(np.vstack([head, tail]), full)
        # tallies merge exactly across the partition
        merged = tuple(np.add(tally_orders(head, 2, "global"),
                              tally_orders(tail, 2, "global")))
        assert merged == tally_orders(full, 2, "global")

    def test_mc_error_probs_sum_to_one(self):
        est = mc_error_probs(VR, ThetaVR((1.0, 0.5)), POWER_DIM, "global",
                             150, 40, seed=3, k_max=3)
        assert est.p_under + est.p_over + est.p_correct == pytest.approx(1.0, abs=1e-12)
        assert est.ci_under[0] <= est.p_under <= est.ci_under[1]
        assert est.ci_over[0] <= est.p_over <= est.ci_over[1]
        assert est.method == "plain_mc" and est.ess == 40.0

    def test_k_star_one_never_underestimates(self):
        est = mc_error_probs(LM, ThetaLM((1.0,), (0.0,)),
                             parse_schedule("bic D=dim", Family.LM, 4), "global",
                             100, 30, seed=9, k_max=3)
        assert est.p_under == 0.0

    def test_single_trial_probabilities_are_indicator(self):
        est = mc_error_probs(VR, ThetaVR((1.0, 0.5)), POWER_DIM, "local",
                             120, 1, seed=2, k_max=3)
        assert sorted((est.p_under, est.p_over, est.p_correct)) == [0.0, 0.0, 1.0]

    def test_ac_family_pipeline(self):
        cfg = ModelConfig(Family.AC, sigma=0.5, ac_depth_max=2)
        sched = parse_schedule("power:0.4 D=dim", Family.AC, 3)
        est = mc_error_probs(cfg, TWO_CELL, sched, "global", 100, 6, seed=61, k_max=2)
        assert est.p_under + est.p_over + est.p_correct == pytest.approx(1.0, abs=1e-12)
        assert est.p_correct >= 0.5  # well-separated marks at sigma = 0.5

    def test_lm_family_pipeline(self):
        sched = parse_schedule("power:0.4 D=dim", Family.LM, 4)
        est = mc_error_probs(LM, ThetaLM((0.5, 0.5), (-2.0, 2.0)), sched, "local",
                             300, 8, seed=62, k_max=3)
        assert est.p_under + est.p_over + est.p_correct == pytest.approx(1.0, abs=1e-12)
        assert est.p_correct >= 0.5

    def test_overestimation_shrinks_with_n_for_k_star_one(self):
        # thm3-valid schedule, K*=1 target: p_over trends down the n grid
        sched = parse_schedule("iterlog D=dim*0.05", Family.VR, 4)
        theta = ThetaVR((1.0,))
        ps = []
        for n in (100, 400, 1600):
            est = mc_error_probs(VR, theta, sched, "global", n, 400, seed=31, k_max=3)
            assert est.p_under == 0.0
            ps.append(est.p_over)
        assert ps[-1] < ps[0]
        assert sum(b > a for a, b in zip(ps, ps[1:])) <= 1  # trend, not strictness


class TestImportanceSampling:
    def test_boundary_theta0_equals_theta_star(self):
        # theta* = (1, 1e-300) has order 2, but in floating point theta0 = (1,)
        # has its regression function and density (1e-300 is below every
        # ulp of f), so the trial streams coincide, every weight is exactly 1
        # and IS reduces to plain MC
        theta_star = ThetaVR((1.0, 1e-300))
        theta0 = ThetaVR((1.0,))
        est = is_underestimation_prob(VR, theta_star, theta0, BIC_SMALL, "global",
                                      100, 50, seed=21, k_max=3)
        plain = mc_error_probs(VR, theta_star, BIC_SMALL, "global", 100, 50,
                               seed=21, k_max=3)
        assert est.p_under == plain.p_under
        assert est.p_over == plain.p_over
        assert est.p_correct == plain.p_correct
        assert est.p_under + est.p_over + est.p_correct == pytest.approx(1.0, abs=1e-12)

    def test_preconditions(self):
        with pytest.raises(UsageError):
            is_underestimation_prob(VR, ThetaVR((1.0,)), None, BIC_SMALL, "global",
                                    100, 10, seed=0, k_max=3)  # K* = 1
        with pytest.raises(UsageError):
            is_underestimation_prob(VR, ThetaVR((1.0, 0.5)), None, BIC_SMALL, "global",
                                    0, 10, seed=0, k_max=3)  # n = 0
        with pytest.raises(UsageError):
            is_underestimation_prob(VR, ThetaVR((1.0, 0.5)), ThetaVR((0.5, 0.5)),
                                    BIC_SMALL, "global", 100, 10, seed=0,
                                    k_max=3)  # theta0 outside the K*-1 class

    def test_default_theta0_is_projection(self):
        est = is_underestimation_prob(VR, ThetaVR((1.0, 0.5)), None, BIC_SMALL,
                                      "global", 200, 400, seed=17, k_max=3)
        assert est.method == "importance_sampling"
        assert 0.0 < est.p_under < 1e-6  # deep rare-event regime
        assert est.ess <= 400.0

    def test_matches_plain_mc_in_moderate_regime(self):
        # calibrated so p_under ~ 5e-3: both routes feasible and CIs overlap
        theta = ThetaVR((1.0, 0.22))
        overlaps = 0
        reps = 10
        for rep in range(reps):
            plain = mc_error_probs(VR, theta, BIC_SMALL, "global", 200, 2500,
                                   seed=7100 + rep, k_max=3)
            isr = is_underestimation_prob(VR, theta, None, BIC_SMALL, "global", 200,
                                          2500, seed=8100 + rep, k_max=3)
            lo = max(plain.ci_under[0], isr.ci_under[0])
            hi = min(plain.ci_under[1], isr.ci_under[1])
            overlaps += lo <= hi
        assert overlaps >= 0.9 * reps


class TestExponentFits:
    def test_exact_exponential(self):
        pts = [(n, math.exp(-0.125 * n)) for n in (20, 40, 60, 80, 100)]
        fit = fit_exponent(pts)
        assert fit.slope == pytest.approx(0.125, abs=1e-9)
        assert fit.r2 == 1.0 and fit.x_axis == "n"

    def test_constant_probability(self):
        fit = fit_exponent([(n, 0.3) for n in (10, 20, 30, 40)])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_exclusions_and_errors(self):
        fit = fit_exponent([(10, 0.5), (20, 0.25), (30, 0.125), (40, 0.0), (50, 1.0)])
        assert fit.n_excluded == 2 and len(fit.points) == 3
        with pytest.raises(FitError):
            fit_exponent([(10, 0.5), (20, 0.0), (30, 0.0)])

    def test_moderate_rate_axis(self):
        sched = parse_schedule("power:0.2 D=dim", Family.VR, 4)
        c = 0.37
        pts = [(n, math.exp(-c * sched.v(n) ** 2 / n)) for n in (100, 200, 400, 800)]
        fit = fit_moderate_rate(pts, sched)
        assert fit.slope == pytest.approx(c, abs=1e-9)
        assert fit.r2 == 1.0 and fit.x_axis == "vn2_over_n"

    def test_model_mismatch_degrades_r2(self):
        # genuinely exponential-in-n decay fed to the moderate-rate axis
        sched = parse_schedule("power:0.2 D=dim", Family.VR, 4)
        pts = [(n, math.exp(-0.01 * n)) for n in (100, 200, 400, 800, 1600)]
        fit_m = fit_moderate_rate(pts, sched)
        fit_n = fit_exponent(pts)
        assert fit_n.r2 == 1.0 and fit_m.r2 < fit_n.r2


def per_probe_peeling(sample, config, k1, k2, theta_star, n_probes, tol, seed):
    """peeling_assert for K* <= K1 < K2 on LM, one log_likelihood call per probe."""
    n = sample.n
    [fit1] = fit(sample, config, (k1,), warm=theta_star)
    [fit2] = fit(sample, config, (k2,), warm=fit1.theta)
    ll_star = log_likelihood(config, theta_star, sample)
    right = (fit2.loglik - max(fit1.loglik, ll_star)) / n
    rng = rng_for(seed, deviations._PROBE_STREAM)
    probes = [fit1.theta, fit2.theta]
    probes += [random_theta(config, k2, rng) for _ in range(n_probes)]
    left_plain = left_scaled_root = 0.0
    skipped = 0
    for theta in probes:
        emp = (log_likelihood(config, theta, sample) - ll_star) / n
        h = deviations._probe_divergence(config, theta_star, theta)
        dev = abs(emp + h)
        left_plain = max(left_plain, dev)
        if h > 1e-15:
            left_scaled_root = max(left_scaled_root, dev / math.sqrt(h))
        else:
            skipped += 1
    left_scaled = left_scaled_root ** 2
    return deviations.PeelingReport(
        right_side=right, left_plain=left_plain, left_scaled=left_scaled,
        ok_plain=right <= left_plain + tol, ok_scaled=right <= left_scaled + tol,
        probes_used=len(probes) - skipped, probes_skipped=skipped)


class TestPeeling:
    def test_equal_budgets_trivial(self):
        s = simulate(VR, ThetaVR((1.0, 0.5)), 60, seed=1)
        rep = peeling_assert(s, VR, 2, 2, ThetaVR((1.0, 0.5)), n_probes=20)
        assert rep.right_side == 0.0 and rep.ok_plain and rep.ok_scaled

    def test_precondition(self):
        s = simulate(VR, ThetaVR((1.0, 0.5)), 60, seed=1)
        with pytest.raises(UsageError):
            peeling_assert(s, VR, 1, 2, ThetaVR((1.0, 0.5)))  # K1 < K*

    def test_fitted_probe_bookkeeping(self):
        # with the fitted K2 parameter among the probes the right side is
        # dominated by that probe's own centered term
        theta = ThetaVR((1.0, 0.5))
        s = simulate(VR, theta, 80, seed=4)
        rep = peeling_assert(s, VR, 2, 3, theta, n_probes=0)
        assert rep.ok_plain and rep.ok_scaled
        assert rep.right_side <= rep.left_plain + 1e-9

    @pytest.mark.parametrize("config,theta", [
        (VR, ThetaVR((1.0, 0.5))),
        (LM, ThetaLM((0.5, 0.5), (-2.0, 2.0))),
        (AC, TWO_CELL),
    ])
    def test_no_violations_random_sweep(self, config, theta):
        from orderest import true_order
        k_star = true_order(config, theta)
        for i in range(15):
            n = 30 + (11 * i) % 80
            s = simulate(config, theta, n, derive_seed(1234, i))
            rep = peeling_assert(s, config, k_star, k_star + 1, theta,
                                 n_probes=60, tol=1e-9, seed=42)
            assert rep.ok_plain and rep.ok_scaled, (config.family, i)

    def test_lm_probe_cloud_in_one_pass(self):
        theta = ThetaLM((0.5, 0.5), (-2.0, 2.0))
        for i, n in enumerate((1, 2, 7, 40, 90, 120)):
            s = simulate(LM, theta, n, derive_seed(4321, i))
            for n_probes in (1, 200):
                got = peeling_assert(s, LM, 2, 3, theta, n_probes=n_probes, seed=i)
                assert got == per_probe_peeling(s, LM, 2, 3, theta, n_probes, 1e-9, i)


class TestSlln:
    def test_values_nonnegative_and_shrinking_for_k_star(self):
        theta = ThetaVR((1.0, 0.5))
        trace = slln_trace(VR, theta, 2, (200, 800, 3200), seed=5)
        values = [v for _, v in trace]
        assert all(v >= 0.0 for v in values)
        assert values[-1] < 0.05

    def test_monotone_in_k_at_fixed_sample(self):
        theta = ThetaVR((1.0, 0.5))
        v_by_k = []
        for k in (1, 2, 3):
            trace = slln_trace(VR, theta, k, (500,), seed=6)
            v_by_k.append(trace[0][1])
        assert v_by_k[0] <= v_by_k[1] <= v_by_k[2]

    def test_grid_validation(self):
        with pytest.raises(UsageError):
            slln_trace(VR, ThetaVR((1.0,)), 1, (100, 100), seed=0)
