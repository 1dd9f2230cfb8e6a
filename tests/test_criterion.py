import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from orderest import (
    Family, FitResult, PenaltySchedule, ThetaVR, UsageError, dim_weights, estimate_orders,
    linear_weights, parse_schedule, validate_schedule,
)
from orderest.criterion import crit_values, loglog
from orderest.fitting import ProfileCurve


def make_profile(logliks, n=100):
    theta = ThetaVR((0.0,))
    entries = tuple(FitResult(theta, ll, 1, True, 1) for ll in logliks)
    return ProfileCurve(n=n, family=Family.VR, entries=entries)


def schedule_with(d, form="bic", **kw):
    return PenaltySchedule(form=form, d=tuple(d), **kw)


class TestPenalty:
    def test_power_arithmetic(self):
        sched = schedule_with((1.0, 2.0, 3.0), form="power", delta=0.25)
        assert sched.penalty(16, 2) == pytest.approx(16.0 ** 0.75 * 2.0, rel=1e-15)
        assert sched.penalty(16, 2) == pytest.approx(16.0, rel=1e-12)

    def test_bic_at_n_e(self):
        sched = schedule_with((1.0, 2.0))
        assert sched.penalty(math.e, 1) == pytest.approx(1.0, rel=1e-15)

    def test_loglog_truncation(self):
        assert loglog(2) == pytest.approx(1.0)  # truncated at e^e
        assert loglog(10**6) == pytest.approx(math.log(math.log(1e6)))

    def test_k_out_of_range(self):
        sched = schedule_with((1.0, 2.0))
        with pytest.raises(UsageError):
            sched.penalty(10, 3)
        with pytest.raises(UsageError):
            sched.penalty(0, 1)

    def test_d_validation(self):
        with pytest.raises(UsageError):
            schedule_with((1.0, 1.0))  # not strictly increasing
        with pytest.raises(UsageError):
            schedule_with((0.0, 1.0))  # not positive
        with pytest.raises(UsageError):
            PenaltySchedule(form="power", d=(1.0, 2.0), delta=1.5)

    @pytest.mark.parametrize("form, kw, message", [
        ("bic", dict(d=(math.nan, 2.0)), "positive finite weights"),
        ("bic", dict(d=(1.0, math.inf)), "positive finite weights"),
        ("power", dict(d=(1.0, 2.0), delta=math.nan), "delta in \\(0, 1\\), got nan"),
        ("logpower", dict(d=(1.0, 2.0), eps=math.inf), "finite eps > 0, got inf"),
    ])
    def test_non_finite_parameters_rejected(self, form, kw, message):
        with pytest.raises(UsageError, match=message):
            PenaltySchedule(form=form, **kw)

    @pytest.mark.parametrize("form, name, kw", [
        ("bic", "delta", dict(delta=0.9)),
        ("bic", "eps", dict(eps=math.nan)),
        ("iterlog", "delta", dict(delta=0.5)),
        ("iterlog", "eps", dict(eps=0.1)),
        ("power", "eps", dict(delta=0.5, eps=0.1)),
        ("logpower", "delta", dict(eps=0.1, delta=0.5)),
    ])
    def test_parameter_of_another_form_rejected(self, form, name, kw):
        with pytest.raises(UsageError, match=f"^{form} form takes no {name}"):
            PenaltySchedule(form=form, d=(1.0, 2.0), **kw)

    def test_weights(self):
        assert dim_weights(Family.LM, 3) == (1.0, 3.0, 5.0)
        assert dim_weights(Family.VR, 3) == (1.0, 2.0, 3.0)
        assert linear_weights(3, scale=0.5) == (0.5, 1.0, 1.5)

    def test_thm2_growth_condition_power(self):
        # v_{nk} = k^{1-delta} v_n exactly for the power form, i.e. A = 1
        sched = schedule_with((1.0, 2.0), form="power", delta=0.25)
        for n in (10, 100, 10**4, 10**6):
            for k in (2, 3, 5, 10):
                assert sched.v(n * k) <= k ** 0.75 * sched.v(n) * (1 + 1e-12)


class TestParseSchedule:
    def test_grammar(self):
        sched = parse_schedule("power:0.25 D=dim", Family.VR, 3)
        assert sched.form == "power" and sched.delta == 0.25
        assert sched.d == (1.0, 2.0, 3.0)
        sched = parse_schedule("bic D=linear", Family.LM, 2)
        assert sched.form == "bic" and sched.d == (1.0, 2.0)
        sched = parse_schedule("logpower:0.1 D=dim*0.5", Family.LM, 2)
        assert sched.eps == 0.1 and sched.d == (0.5, 1.5)
        sched = parse_schedule("iterlog", Family.VR, 2)
        assert sched.form == "iterlog"
        assert parse_schedule("bic", Family.VR, 4) == parse_schedule("bic D=dim", Family.VR, 4)

    def test_grammar_errors(self):
        with pytest.raises(UsageError):
            parse_schedule("powr:0.25", Family.VR, 3)
        with pytest.raises(UsageError):
            parse_schedule("power", Family.VR, 3)  # missing delta
        with pytest.raises(UsageError):
            parse_schedule("bic:0.1", Family.VR, 3)  # stray parameter
        with pytest.raises(UsageError):
            parse_schedule("bic D=quadratic", Family.VR, 3)
        with pytest.raises(UsageError):
            parse_schedule("bic X=dim", Family.VR, 3)

    @pytest.mark.parametrize("text, message", [
        ("bic D=dim*nan", "finite weights, got (nan, nan, nan)"),
        ("bic D=linear*inf", "finite weights, got (inf, inf, inf)"),
        ("logpower:inf", "needs a finite eps > 0, got inf"),
        ("power:nan", "needs delta in (0, 1), got nan"),
        ("power:abc", "bad number 'abc' in schedule token 'power:abc'"),
        ("logpower:0.1 D=dim*x2", "bad number 'x2' in schedule token 'D=dim*x2'"),
    ])
    def test_bad_numbers_named(self, text, message):
        with pytest.raises(UsageError, match=re.escape(message)):
            parse_schedule(text, Family.LM, 3)


class TestCrit:
    def test_tiny_penalty_recovers_profile(self):
        prof = make_profile([10.0, 12.0, 12.5])
        sched = schedule_with((1e-300, 2e-300, 3e-300))
        values = crit_values(prof.logliks(), sched, 100)
        for k in (1, 2, 3):
            assert values[k] == pytest.approx(prof.loglik(k), abs=1e-9)

    def test_constant_profile_decreasing_crit(self):
        prof = make_profile([5.0, 5.0, 5.0])
        sched = schedule_with((1.0, 2.0, 3.0))
        values = crit_values(prof.logliks(), sched, 100)
        assert values[1] > values[2] > values[3]

    def test_hand_built_example(self):
        # profile (10, 12, 12.5) with pen (1, 2, 3) -> crit (9, 10, 9.5)
        prof = make_profile([10.0, 12.0, 12.5])
        sched = schedule_with((1.0 / math.log(100), 2.0 / math.log(100),
                               3.0 / math.log(100)))
        values = crit_values(prof.logliks(), sched, 100)
        assert values[1] == pytest.approx(9.0, abs=1e-12)
        assert values[2] == pytest.approx(10.0, abs=1e-12)
        assert values[3] == pytest.approx(9.5, abs=1e-12)


class TestEstimators:
    def setup_method(self):
        # crit values (9, 10, 9.5) via profile and unit-step penalties; the
        # K = 4 entry of prof4 adds crit 8.5, below the maximum
        self.n = 100
        scale = 1.0 / math.log(self.n)
        self.sched = schedule_with(tuple(scale * k for k in (1, 2, 3, 4)))
        self.prof = make_profile([10.0, 12.0, 12.5], n=self.n)
        self.prof4 = make_profile([10.0, 12.0, 12.5, 12.5], n=self.n)

    def test_first_local_max(self):
        assert estimate_orders(self.prof, self.sched, 2).k_local == 2

    def test_decreasing_crit_gives_one(self):
        prof = make_profile([5.0, 5.0, 5.0])
        assert estimate_orders(prof, self.sched, 2).k_local == 1

    def test_increasing_crit_hits_cap(self):
        # crit rises through k_max = 2: the local scan ends there, and the
        # crit at K = 3 is not read
        for lls in ([0.0, 10.0], [0.0, 10.0, 20.0], [0.0, 10.0, 0.0]):
            est = estimate_orders(make_profile(lls), self.sched, k_max=2)
            assert (est.k_local, est.k_global) == (2, 2) and list(est.crit_values) == [1, 2]

    def test_global_smallest_argmax(self):
        assert estimate_orders(self.prof4, self.sched, 3).k_global == 2

    def test_global_tie_goes_down(self):
        prof = make_profile([2.0, 2.0 + 1.0, 2.0 + 2.0, 4.0])  # crit = (1, 1, 1, 0), exact ties
        assert estimate_orders(prof, self.sched, 3).k_global == 1

    def test_global_ties_at_one_and_three(self):
        prof = make_profile([3.0, 3.0, 5.0, 5.0])  # crit = (2, 1, 2, 1): exact ties at K=1, 3
        assert estimate_orders(prof, self.sched, 3).k_global == 1

    def test_crit_at_the_profile_n(self):
        # the same logliks at n = 100^2: the penalties double, crit = (8, 8, 6.5)
        prof = make_profile([10.0, 12.0, 12.5], n=self.n ** 2)
        est = estimate_orders(prof, self.sched, 3)
        assert est.crit_values[3] == pytest.approx(6.5, abs=1e-12)
        assert (est.k_local, est.k_global) == (1, 1)

    def test_requires_coverage(self):
        # the estimators read crit at K = 1..k_max: a profile to 3 serves
        # k_max = 3, not 4
        est = estimate_orders(self.prof, self.sched, 3)
        assert (est.k_local, est.k_global) == (2, 2)
        with pytest.raises(UsageError, match="up to K=4, not 3"):
            estimate_orders(self.prof, self.sched, 4)

    @given(st.lists(st.floats(-50, 50), min_size=4, max_size=8),
           st.sampled_from(["bic", "power", "iterlog"]))
    def test_dominance_on_random_profiles(self, lls, form):
        # enforce the nestedness the real profile guarantees
        lls = list(np.maximum.accumulate(lls))
        k_top = len(lls)
        kw = {"delta": 0.3} if form == "power" else {}
        sched = PenaltySchedule(form=form, d=tuple(range(1, k_top + 1)), **kw)
        prof = make_profile(lls, n=50)
        est = estimate_orders(prof, sched, k_max=k_top - 1)
        assert est.k_global >= est.k_local

    def test_argmax_invariance_under_constant_shift(self):
        prof1 = make_profile([10.0, 12.0, 12.5])
        prof2 = make_profile([10.0 + 7.25, 12.0 + 7.25, 12.5 + 7.25])
        e1 = estimate_orders(prof1, self.sched, 2)
        e2 = estimate_orders(prof2, self.sched, 2)
        assert (e1.k_local, e1.k_global) == (e2.k_local, e2.k_global)

    def test_constant_profile_any_penalty_scale_gives_one(self):
        prof = make_profile([3.0, 3.0, 3.0, 3.0])
        for lam in (1e-6, 1.0, 1e6):
            sched = schedule_with((lam, 2 * lam, 3 * lam, 4 * lam))
            assert estimate_orders(prof, sched, 3).k_global == 1

    def test_larger_gaps_weakly_decrease_k_global(self):
        # the K = 5 entry's crit stays below crit(4), so below the maximum
        prof = make_profile([0.0, 4.0, 6.0, 7.0, 7.0])
        n = 100
        scale = 1.0 / math.log(n)
        previous = None
        for gap in (0.5, 1.0, 2.0, 4.0, 8.0):
            sched = schedule_with(tuple(scale * gap * k for k in (1, 2, 3, 4, 5)))
            k_g = estimate_orders(prof, sched, 4).k_global
            if previous is not None:
                assert k_g <= previous
            previous = k_g


class TestValidateSchedule:
    N_GRID = [10, 100, 1000, 10**4, 10**5, 10**6]
    K_GRID = [1, 2, 3]

    def test_power_passes_thm10(self):
        sched = parse_schedule("power:0.25 D=linear", Family.VR, 4)
        report = validate_schedule(sched, "thm10", self.N_GRID, self.K_GRID)
        assert report.passed, [c for c in report.checks if not c.passed]

    def test_bic_fails_thm3(self):
        sched = parse_schedule("bic D=linear", Family.VR, 4)
        report = validate_schedule(sched, "thm3", self.N_GRID, self.K_GRID)
        assert not report.passed
        failing = {c.name for c in report.checks if not c.passed}
        assert "sqrt_n_loglog_over_pen_to_0" in failing

    def test_bic_passes_thm4(self):
        sched = parse_schedule("bic D=linear", Family.VR, 4)
        report = validate_schedule(sched, "thm4", self.N_GRID, self.K_GRID)
        assert report.passed, [c for c in report.checks if not c.passed]

    def test_iterlog_passes_thm3(self):
        sched = parse_schedule("iterlog D=linear", Family.VR, 4)
        report = validate_schedule(sched, "thm3", self.N_GRID, self.K_GRID)
        assert report.passed, [c for c in report.checks if not c.passed]

    def test_logpower_passes_thm11(self):
        sched = parse_schedule("logpower:0.1 D=linear", Family.VR, 4)
        report = validate_schedule(sched, "thm11", self.N_GRID, self.K_GRID)
        assert report.passed

    def test_bic_fails_thm10(self):
        sched = parse_schedule("bic D=linear", Family.VR, 4)
        report = validate_schedule(sched, "thm10", self.N_GRID, self.K_GRID)
        failing = {c.name for c in report.checks if not c.passed}
        assert "n_over_v_squared_to_0" in failing

    def test_grid_validation(self):
        sched = parse_schedule("bic D=linear", Family.VR, 4)
        with pytest.raises(UsageError):
            validate_schedule(sched, "thm3", [], self.K_GRID)
        with pytest.raises(UsageError):
            validate_schedule(sched, "nope", self.N_GRID, self.K_GRID)
