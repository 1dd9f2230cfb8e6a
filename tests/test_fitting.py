import math

import numpy as np
import pytest

from orderest import (
    Family, Leaf, ModelConfig, ParameterError, Sample, Split, ThetaAC, ThetaLM, ThetaVR,
    UsageError, fit_ac, fit_lm_em, fit_vr, log_likelihood, profile, simulate,
)
from orderest.fitting import _box_qp
from orderest.models import derive_seed, rng_for, vr_basis_matrix
from orderest import guillotine

LM = ModelConfig(Family.LM, sigma=1.0)
VR = ModelConfig(Family.VR, sigma=1.0)
AC = ModelConfig(Family.AC, sigma=1.0, ac_depth_max=2)

TWO_CELL = ThetaAC(Split(1, 0.5, Leaf(0.0), Leaf(1.0)))


class TestEmLm:
    def test_k1_matches_closed_form(self):
        s = simulate(LM, ThetaLM((0.5, 0.5), (-2.0, 2.0)), 400, seed=1)
        res = fit_lm_em(s, 1, LM)
        m_hat = float(np.clip(s.z.mean(), LM.m_lo, LM.m_hi))
        assert res.theta.means[0] == pytest.approx(m_hat, abs=1e-10)
        closed = log_likelihood(LM, ThetaLM((1.0,), (m_hat,)), s)
        assert res.loglik == pytest.approx(closed, abs=1e-10)

    def test_degenerate_identical_points(self):
        z0 = 0.37
        s = Sample(Family.LM, np.full(25, z0), seed=0, n=25)
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

    def test_k_cap(self):
        s = simulate(LM, ThetaLM((1.0,), (0.0,)), 20, seed=0)
        with pytest.raises(UsageError):
            fit_lm_em(s, 100, LM)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("z, k", [([1e308, -1e308, 0.0, 1.0], 1), ([1e200, 0.0, 1.0], 2)])
    def test_extreme_data_fails_in_em(self, z, k):
        # finite data whose log-likelihood overflows: EM reports it, not ThetaLM,
        # and without numpy overflow warnings on the way
        s = Sample(Family.LM, np.asarray(z), seed=0, n=len(z))
        with pytest.raises(ParameterError, match=f"^EM at K={k}: log-likelihood is -inf"):
            fit_lm_em(s, k, LM)


class TestFitVr:
    def test_zero_response_gives_zero_coeffs(self):
        x = np.linspace(0.01, 0.99, 40)
        s = Sample(Family.VR, np.column_stack([x, np.zeros(40)]), seed=0, n=40)
        res = fit_vr(s, 3, VR)
        assert np.allclose(res.theta.coeffs, 0.0, atol=1e-12)

    def test_noiseless_recovery(self):
        theta = ThetaVR((0.8, -0.3, 0.1))
        x = np.linspace(0.0, 1.0, 50)
        y = vr_basis_matrix(x, 3) @ np.asarray(theta.coeffs)
        s = Sample(Family.VR, np.column_stack([x, y]), seed=0, n=50)
        res = fit_vr(s, 3, VR, tol=1e-12)
        assert np.allclose(res.theta.coeffs, theta.coeffs, atol=1e-8)

    def test_matches_projected_gradient_oracle(self):
        rng = rng_for(31)
        x = rng.uniform(0, 1, 200)
        y = rng.normal(0.0, 1.0, 200) + 0.7 * math.sqrt(2) * np.cos(math.pi * x)
        s = Sample(Family.VR, np.column_stack([x, y]), seed=0, n=200)
        res = fit_vr(s, 4, VR, tol=1e-12)

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
        res = fit_vr(s, 3, tight, tol=1e-12)
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
        s = Sample(Family.AC, np.array([[0.3, 0.6, 0.8]]), seed=0, n=1)
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
            fresh = fit_vr(s, k, VR, tol=1e-12)
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
            s = Sample(Family.VR, np.column_stack([x, y]), seed=0, n=n)
            prof = profile(s, config, k_top)
            lls = [prof.loglik(k) for k in range(1, k_top + 1)]
            assert lls == pytest.approx(_coordinate_descent_logliks(s, config, k_top),
                                        rel=0.0, abs=1e-9)
            if tight:
                tight_sweeps += sum(e.iterations for e in prof.entries)
        assert tight_sweeps > 0  # a binding bound must reach the coordinate descent

    def test_profile_csv(self):
        s = simulate(VR, ThetaVR((1.0,)), 30, seed=2)
        lines = profile(s, VR, 2).to_csv().splitlines()
        assert lines[0] == "K,loglik,converged,iterations"
        assert len(lines) == 3 and lines[1].startswith("1,")
