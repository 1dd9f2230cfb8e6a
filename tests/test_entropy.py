import math

import numpy as np
import pytest

from orderest import (
    Family, Leaf, ModelConfig, Split, ThetaAC, ThetaLM, ThetaVR,
    UsageError, kl_mixture_quadrature, kl_regression, project_entropy,
    pythagorean_residual, reversed_projection_check_vr, stein_bound,
)
from scipy.optimize import minimize

from orderest import entropy
from orderest.entropy import EntropyValue, kl_divergence
from orderest.models import (
    logsumexp_rows, mixture_log_components, random_theta, rng_for, vr_basis_matrix,
)

LM = ModelConfig(Family.LM, sigma=1.0)
VR = ModelConfig(Family.VR, sigma=1.0)
AC = ModelConfig(Family.AC, sigma=1.0, ac_depth_max=2)

TWO_CELL = ThetaAC(Split(1, 0.5, Leaf(0.0), Leaf(1.0)))


def quad_2d_vr_kl(a: ThetaVR, b: ThetaVR, sigma=1.0, nx=240, ny=400, half_width=12.0):
    """Independent 2-D Gauss-Legendre quadrature of the VR divergence."""
    xs, wxs = np.polynomial.legendre.leggauss(nx)
    xs = 0.5 * (xs + 1.0)
    wxs = 0.5 * wxs
    k = max(len(a.coeffs), len(b.coeffs))
    fa = vr_basis_matrix(xs, k) @ np.pad(np.asarray(a.coeffs), (0, k - len(a.coeffs)))
    fb = vr_basis_matrix(xs, k) @ np.pad(np.asarray(b.coeffs), (0, k - len(b.coeffs)))
    lo = min(fa.min(), fb.min()) - half_width * sigma
    hi = max(fa.max(), fb.max()) + half_width * sigma
    ys, wys = np.polynomial.legendre.leggauss(ny)
    ys = 0.5 * (ys + 1.0) * (hi - lo) + lo
    wys = 0.5 * wys * (hi - lo)
    norm = 1.0 / math.sqrt(2 * math.pi * sigma * sigma)
    total = 0.0
    for x_i in range(nx):
        ra = ys - fa[x_i]
        rb = ys - fb[x_i]
        pa = norm * np.exp(-0.5 * (ra / sigma) ** 2)
        log_ratio = 0.5 * ((rb / sigma) ** 2 - (ra / sigma) ** 2)
        total += wxs[x_i] * float(np.sum(wys * pa * log_ratio))
    return total


def per_call_leggauss_kl(theta_a, theta_b, config, lo, hi, panels, nodes=8):
    """The composite-panel divergence with its own Gauss-Legendre rule per call."""
    pts, wts = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(lo, hi, panels + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    z = (centers[:, None] + half * pts[None, :]).ravel()
    w = (half * np.broadcast_to(wts, (panels, nodes))).ravel()
    la = logsumexp_rows(mixture_log_components(z, theta_a.weights, theta_a.means,
                                               config.sigma))
    lb = logsumexp_rows(mixture_log_components(z, theta_b.weights, theta_b.means,
                                               config.sigma))
    return float(np.sum(w * np.exp(la) * (la - lb)))


def per_call_leggauss_quadrature(theta_a, theta_b, config, panels=400, target_tol=1e-8,
                                 max_panels=25600):
    means = theta_a.means + theta_b.means
    lo = min(means) - 12.0 * config.sigma
    hi = max(means) + 12.0 * config.sigma
    value = per_call_leggauss_kl(theta_a, theta_b, config, lo, hi, panels)
    achieved = math.inf
    while panels < max_panels:
        panels *= 2
        refined = per_call_leggauss_kl(theta_a, theta_b, config, lo, hi, panels)
        achieved = abs(refined - value)
        value = refined
        if achieved < target_tol:
            break
    return EntropyValue(max(value, 0.0), "quadrature", achieved)


def finite_difference_project_lm(config, target, k, reverse):
    """The LM projection with the discretized divergence recomputed in full
    at every call and 2-point finite-difference gradients."""
    lo_z = min(min(target.means), config.m_lo) - 13.0 * config.sigma
    hi_z = max(max(target.means), config.m_hi) + 13.0 * config.sigma

    def decode(x):
        if k == 1:
            return ThetaLM((1.0,), (float(x[0]),))
        logits = np.append(x[: k - 1], 0.0)
        w = np.exp(logits - logits.max())
        w = w / w.sum()
        return ThetaLM(tuple(w), tuple(float(v) for v in x[k - 1:]))

    def objective(x):
        th = decode(x)
        a, b = (th, target) if reverse else (target, th)
        return per_call_leggauss_kl(a, b, config, lo_z, hi_z, 600)

    spread = np.quantile(np.asarray(target.means), (np.arange(k) + 0.5) / k) if k > 1 \
        else np.asarray([float(np.dot(target.weights, target.means))])
    spread = np.clip(spread, config.m_lo, config.m_hi)
    rng = rng_for(7, 301, k)
    scale = max(config.sigma, (max(target.means) - min(target.means)) / max(k, 1))
    bounds = ([(-30.0, 30.0)] * (k - 1)) + [(config.m_lo, config.m_hi)] * k
    best_val, best_x = math.inf, None
    for s in range(8):
        means0 = spread if s == 0 else np.clip(
            spread + 0.5 * scale * rng.standard_normal(k), config.m_lo, config.m_hi)
        x0 = np.concatenate([np.zeros(k - 1), means0])
        res = minimize(objective, x0, method="L-BFGS-B", bounds=bounds)
        if res.fun < best_val:
            best_val, best_x = float(res.fun), res.x
    theta_hat = decode(best_x)
    a, b = (theta_hat, target) if reverse else (target, theta_hat)
    acc = per_call_leggauss_quadrature(a, b, config)
    return EntropyValue(max(acc.value, 0.0), "optimized", max(acc.tol, 1e-6)), theta_hat


class TestKlRegression:
    def test_identical_is_zero(self):
        assert kl_regression(ThetaVR((1.0, 0.5)), ThetaVR((1.0, 0.5)), VR).value == 0.0
        assert kl_regression(TWO_CELL, TWO_CELL, AC).value == 0.0

    def test_vr_coefficient_difference(self):
        out = kl_regression(ThetaVR((1.0, 0.5)), ThetaVR((1.0, 0.0)), VR)
        assert out.value == 0.125 and out.method == "closed_form"
        # zero-padding of the shorter vector
        out2 = kl_regression(ThetaVR((1.0, 0.5)), ThetaVR((1.0,)), VR)
        assert out2.value == 0.125

    def test_ac_half_cells_against_constant(self):
        # marks (0, 1) vs constant 1/2: ((0-1/2)^2 + (1-1/2)^2)/2 / 2 = 0.125
        out = kl_regression(TWO_CELL, ThetaAC(Leaf(0.5)), AC)
        assert out.value == pytest.approx(0.125, abs=1e-12)

    def test_lm_rejected(self):
        with pytest.raises(UsageError):
            kl_regression(ThetaLM((1.0,), (0.0,)), ThetaLM((1.0,), (1.0,)), LM)

    def test_vr_closed_form_matches_2d_quadrature(self):
        rng = rng_for(404)
        for _ in range(8):
            a = ThetaVR(tuple(rng.uniform(-1.5, 1.5, int(rng.integers(1, 4)))))
            b = ThetaVR(tuple(rng.uniform(-1.5, 1.5, int(rng.integers(1, 4)))))
            closed = kl_regression(a, b, VR).value
            assert closed == pytest.approx(quad_2d_vr_kl(a, b), abs=1e-6)


class TestMixtureQuadrature:
    def test_identical_is_zero(self):
        theta = ThetaLM((0.4, 0.6), (-1.0, 1.0))
        assert kl_mixture_quadrature(theta, theta, LM).value == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("m", [0.25, 0.5, 1.0, 1.5, 2.0])
    def test_gaussian_closed_form(self, m):
        out = kl_mixture_quadrature(ThetaLM((1.0,), (0.0,)), ThetaLM((1.0,), (m,)), LM)
        assert out.value == pytest.approx(m * m / 2.0, abs=1e-8)
        assert out.method == "quadrature" and out.tol < 1e-8

    def test_mixture_vs_monte_carlo_oracle(self):
        a = ThetaLM((0.5, 0.5), (-1.0, 1.0))
        b = ThetaLM((1.0,), (0.0,))
        quad = kl_mixture_quadrature(a, b, LM).value
        rng = np.random.default_rng(2718)
        n = 10_000_000
        labels = rng.integers(0, 2, n)
        z = np.where(labels == 0, -1.0, 1.0) + rng.standard_normal(n)
        la = np.logaddexp(-0.5 * (z + 1.0) ** 2, -0.5 * (z - 1.0) ** 2) + math.log(0.5)
        lb = -0.5 * z ** 2
        ratios = la - lb
        mc = float(ratios.mean())
        se = float(ratios.std(ddof=1)) / math.sqrt(n)
        assert abs(quad - mc) < 3 * se

    def test_panel_cap_flag(self):
        a = ThetaLM((0.5, 0.5), (-2.0, 2.0))
        b = ThetaLM((1.0,), (0.0,))
        out = kl_mixture_quadrature(a, b, LM, panels=2, target_tol=1e-30, max_panels=4)
        assert out.tol > 1e-30  # cap hit, achieved tolerance reported honestly

    @pytest.mark.parametrize("panels, max_panels, expected", [
        (400, 799, [400, 799]),
        (3, 10, [3, 6, 10]),
        (5, 5, [5]),
        (2, 16, [2, 4, 8, 16]),
    ])
    def test_panels_never_exceed_max_panels(self, monkeypatch, panels, max_panels, expected):
        seen = []
        real = entropy._mixture_kl_panels

        def counting(theta_a, theta_b, config, lo, hi, panels):
            seen.append(panels)
            return real(theta_a, theta_b, config, lo, hi, panels)

        monkeypatch.setattr(entropy, "_mixture_kl_panels", counting)
        a = ThetaLM((0.5, 0.5), (-2.0, 2.0))
        b = ThetaLM((1.0,), (0.0,))
        kl_mixture_quadrature(a, b, LM, panels=panels, target_tol=1e-300,
                              max_panels=max_panels)
        assert seen == expected

    @pytest.mark.parametrize("kwargs", [
        {"panels": 0}, {"panels": -3}, {"panels": 800, "max_panels": 400},
        {"target_tol": math.nan}, {"target_tol": math.inf}, {"target_tol": 0.0},
        {"target_tol": -1e-8},
    ])
    def test_bad_quadrature_input_rejected(self, kwargs):
        a = ThetaLM((0.5, 0.5), (-1.0, 1.0))
        b = ThetaLM((1.0,), (0.0,))
        with pytest.raises(UsageError):
            kl_mixture_quadrature(a, b, LM, **kwargs)

    def test_equals_per_call_leggauss_formula(self):
        rng = rng_for(4242)
        for _ in range(6):
            a = random_theta(LM, int(rng.integers(1, 4)), rng)
            b = random_theta(LM, int(rng.integers(1, 4)), rng)
            assert kl_mixture_quadrature(a, b, LM) == per_call_leggauss_quadrature(a, b, LM)
        a = ThetaLM((0.5, 0.5), (-2.0, 2.0))
        b = ThetaLM((1.0,), (0.0,))
        assert (kl_mixture_quadrature(a, b, LM, panels=2, target_tol=1e-30, max_panels=4)
                == per_call_leggauss_quadrature(a, b, LM, panels=2, target_tol=1e-30,
                                                max_panels=4))


class TestProjections:
    def test_in_class_is_zero(self):
        assert project_entropy(VR, ThetaVR((1.0, 0.5)), 2).value == 0.0
        assert project_entropy(VR, ThetaVR((1.0, 0.5)), 3).value == 0.0
        assert stein_bound(AC, TWO_CELL, 2).value == 0.0

    def test_vr_tail_sum(self):
        out = project_entropy(VR, ThetaVR((1.0, 0.5)), 1)
        assert out.value == 0.125 and out.method == "closed_form"
        assert stein_bound(VR, ThetaVR((1.0, 0.5)), 1).value == 0.125

    def test_vr_project_equals_stein_exactly(self):
        rng = rng_for(55)
        for _ in range(10):
            theta = ThetaVR(tuple(rng.uniform(-1.5, 1.5, 4)))
            for k in (1, 2, 3):
                p = project_entropy(VR, theta, k).value
                s = stein_bound(VR, theta, k).value
                assert p == s  # identical closed forms, bitwise

    def test_ac_two_cell(self):
        out = project_entropy(AC, TWO_CELL, 1)
        assert out.value == pytest.approx(0.125, abs=1e-10)
        assert stein_bound(AC, TWO_CELL, 1).value == pytest.approx(0.125, abs=1e-10)

    def test_lm_projection_vs_grid_oracle(self):
        theta = ThetaLM((0.5, 0.5), (-2.0, 2.0))
        proj = project_entropy(LM, theta, 1)
        assert proj.method == "optimized" and proj.value > 0.0

        # dense grid over the single mean, KL by fixed fine quadrature
        grid_m = np.linspace(LM.m_lo, LM.m_hi, 1601)
        z, wz = np.polynomial.legendre.leggauss(8)
        edges = np.linspace(-16.0, 16.0, 1601)
        centers = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1] - edges[0])
        zs = (centers[:, None] + half * z[None, :]).ravel()
        ws = (half * np.broadcast_to(wz, (1600, 8))).ravel()
        pa = 0.5 * (np.exp(-0.5 * (zs + 2.0) ** 2) + np.exp(-0.5 * (zs - 2.0) ** 2))
        pa /= math.sqrt(2 * math.pi)
        la = np.log(pa)
        norm = -0.5 * math.log(2 * math.pi)
        best = math.inf
        for m in grid_m:
            lb = norm - 0.5 * (zs - m) ** 2
            best = min(best, float(np.sum(ws * pa * (la - lb))))
        assert proj.value == pytest.approx(best, abs=1e-4)

    def test_lm_stein_vs_grid_oracle(self):
        theta = ThetaLM((0.5, 0.5), (-2.0, 2.0))
        sb = stein_bound(LM, theta, 1)
        grid_m = np.linspace(LM.m_lo, LM.m_hi, 1601)
        z, wz = np.polynomial.legendre.leggauss(8)
        edges = np.linspace(-16.0, 16.0, 1601)
        centers = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1] - edges[0])
        zs = (centers[:, None] + half * z[None, :]).ravel()
        ws = (half * np.broadcast_to(wz, (1600, 8))).ravel()
        mix = 0.5 * (np.exp(-0.5 * (zs + 2.0) ** 2) + np.exp(-0.5 * (zs - 2.0) ** 2))
        mix /= math.sqrt(2 * math.pi)
        lmix = np.log(mix)
        norm = -0.5 * math.log(2 * math.pi)
        best = math.inf
        for m in grid_m:
            lb = norm - 0.5 * (zs - m) ** 2
            pb = np.exp(lb)
            best = min(best, float(np.sum(ws * pb * (lb - lmix))))
        assert sb.value == pytest.approx(best, abs=1e-4)
        # the two directions genuinely differ for mixtures
        assert abs(sb.value - project_entropy(LM, theta, 1).value) > 0.1

    def test_lm_strict_decrease(self):
        theta = ThetaLM((0.5, 0.5), (-2.0, 2.0))
        v1 = project_entropy(LM, theta, 1)
        v2 = project_entropy(LM, theta, 2)
        assert v2.value == 0.0
        assert v1.value - v2.value > 10 * max(v1.tol, v2.tol)

    def test_monotone_in_k(self):
        theta = ThetaVR((1.0, 0.5, 0.25))
        vals = [project_entropy(VR, theta, k).value for k in (1, 2, 3, 4)]
        assert vals == sorted(vals, reverse=True)
        assert vals[0] > vals[1] > vals[2] == vals[3] == 0.0

    def test_argmin_returned(self):
        out, argmin = project_entropy(VR, ThetaVR((1.0, 0.5)), 1, return_argmin=True)
        assert argmin == ThetaVR((1.0,))
        out, argmin = stein_bound(AC, TWO_CELL, 1, return_argmin=True)
        assert argmin.k == 1 and argmin.tree.mark == pytest.approx(0.5)


class TestLmProjectionSearch:
    @staticmethod
    def central_differences(objective, x, h=1e-6):
        grad = np.empty_like(x)
        for i in range(x.size):
            step = np.zeros_like(x)
            step[i] = h
            grad[i] = (objective(x + step)[0] - objective(x - step)[0]) / (2.0 * h)
        return grad

    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_gradient_matches_central_differences(self, k, reverse):
        rng = rng_for(5151, k, int(reverse))
        target = random_theta(LM, 3, rng)
        # the projection grid, and a grid that cuts off part of every
        # candidate's mass, where sum(w * p_theta) depends on theta
        grids = [(min(min(target.means), LM.m_lo) - entropy._PROJECTION_HALF_WIDTH,
                  max(max(target.means), LM.m_hi) + entropy._PROJECTION_HALF_WIDTH,
                  entropy._PROJECTION_PANELS),
                 (-2.5, 3.0, 40)]
        points = [np.concatenate([rng.uniform(-5.0, 5.0, k - 1),
                                  rng.uniform(LM.m_lo, LM.m_hi, k)]) for _ in range(4)]
        points += [np.concatenate([np.full(k - 1, sign * 30.0), np.full(k, edge)])
                   for sign in (-1.0, 1.0) for edge in (LM.m_lo, LM.m_hi)]
        points += [np.concatenate([np.where(np.arange(k - 1) % 2, 30.0, -30.0),
                                   np.linspace(LM.m_lo, LM.m_hi, k)])]
        for lo, hi, panels in grids:
            objective = entropy._projection_objective(LM, target, k, reverse, lo, hi, panels)
            for x in points:
                value, grad = objective(x)
                weights, means = entropy._decode_lm(x, k)
                a, b = ThetaLM(tuple(weights), tuple(means)), target
                if not reverse:
                    a, b = b, a
                assert value == entropy._mixture_kl_panels(a, b, LM, lo, hi, panels)
                np.testing.assert_allclose(grad, self.central_differences(objective, x),
                                           rtol=1e-6, atol=1e-8)

    def test_matches_finite_difference_search(self):
        rng = rng_for(6262)
        worst = 0.0
        for _ in range(12):
            target = random_theta(LM, int(rng.integers(2, 4)), rng)
            for k in range(1, target.k):
                for direction in (project_entropy, stein_bound):
                    got, theta = direction(LM, target, k, return_argmin=True)
                    want, _ = finite_difference_project_lm(
                        LM, target, k, reverse=direction is stein_bound)
                    assert (got.method, got.tol) == (want.method, want.tol)
                    assert theta.k == k
                    worst = max(worst, abs(got.value - want.value))
        assert worst <= 1e-9


class TestPythagorean:
    def test_qprime_equals_q(self):
        a = ThetaVR((1.0, 1.0))
        q = ThetaVR((0.0, 0.0))
        assert pythagorean_residual(a, q, q, VR) == pytest.approx(0.0, abs=1e-15)

    def test_coordinate_projection_exact(self):
        # projecting (0,0) onto {second coeff 0}: orthogonal decomposition
        p = ThetaVR((1.0, 1.0))
        q = ThetaVR((0.0, 0.0))
        q_prime = ThetaVR((1.0, 0.0))
        res = pythagorean_residual(p, q_prime, q, VR)
        # ||p-q||^2 - ||p-q'||^2 - ||q'-q||^2 = 2 - 1 - 1 = 0 over 2 sigma^2
        assert res == pytest.approx(0.0, abs=1e-15)

    def test_box_projection_sweep(self):
        rng = rng_for(808)
        worst = math.inf
        for _ in range(1000):
            k = int(rng.integers(1, 5))
            lo = rng.uniform(-1.5, -0.1, k)
            hi = rng.uniform(0.1, 1.5, k)
            q = ThetaVR(tuple(rng.uniform(-2.0, 2.0, k)))
            q_prime = ThetaVR(tuple(np.clip(q.coeffs, lo, hi)))
            p = ThetaVR(tuple(rng.uniform(lo, hi)))
            worst = min(worst, pythagorean_residual(p, q_prime, q, VR))
        assert worst >= -1e-10

    def test_lm_route(self):
        p = ThetaLM((1.0,), (0.5,))
        q = ThetaLM((1.0,), (0.0,))
        res = pythagorean_residual(p, q, q, LM)
        assert res == pytest.approx(0.0, abs=1e-8)


class TestReversedProjection:
    def test_q_inside_class(self):
        report = reversed_projection_check_vr((1.0, 0.5), (1.0, 0.5),
                                              [(1.0, 0.5), (0.0, 0.0), (2.0, -2.0)], VR)
        assert report.accepted
        assert report.min_kl_residual >= -1e-12 and report.min_inner_residual >= -1e-12

    def test_truncation_accepted(self):
        rng = rng_for(99)
        probes = [tuple(rng.uniform(-2, 2, 2)) for _ in range(100)]
        report = reversed_projection_check_vr((1.0, 0.5, 0.3), (1.0, 0.5), probes, VR)
        assert report.accepted

    def test_wrong_candidate_rejected(self):
        rng = rng_for(100)
        probes = [tuple(rng.uniform(-2, 2, 2)) for _ in range(100)]
        report = reversed_projection_check_vr((1.0, 0.5, 0.3), (0.0, 0.0), probes, VR)
        assert not report.accepted
        assert min(report.min_kl_residual, report.min_inner_residual) < -0.01


class TestKlProperties:
    @pytest.mark.parametrize("config", [LM, VR, AC])
    def test_nonnegativity_and_identity(self, config):
        from orderest.models import random_theta
        rng = rng_for(606, {Family.LM: 0, Family.VR: 1, Family.AC: 2}[config.family])
        for _ in range(15):
            a = random_theta(config, 2, rng)
            b = random_theta(config, 2, rng)
            val = kl_divergence(a, b, config)
            assert val.value >= -1e-9
            same = kl_divergence(a, a, config)
            assert abs(same.value) <= 1e-9
