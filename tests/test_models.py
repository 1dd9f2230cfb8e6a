import math
import re

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.special import logsumexp

from orderest import (
    Family, Leaf, ModelConfig, ParameterError, Sample, Split, ThetaAC, ThetaLM,
    ThetaVR, UsageError, embed, eval_regression_fn, log_density, log_likelihood,
    simulate, theta_dim, true_order,
)
from orderest.models import (
    config_from_kv, config_to_kv, derive_seed, logsumexp_rows, point_log_densities,
    rng_for, sample_from_csv, sample_to_csv, theta_from_kv, theta_to_kv, vr_basis_matrix,
)

LM = ModelConfig(Family.LM, sigma=1.0)
VR = ModelConfig(Family.VR, sigma=1.0)
AC = ModelConfig(Family.AC, sigma=1.0, ac_depth_max=3)

TWO_CELL = ThetaAC(Split(1, 0.5, Leaf(0.0), Leaf(1.0)))


class TestValidation:
    def test_config_invariants(self):
        with pytest.raises(ParameterError):
            ModelConfig(Family.LM, sigma=0.0)
        with pytest.raises(ParameterError):
            ModelConfig(Family.LM, m_lo=1.0, m_hi=1.0)
        with pytest.raises(ParameterError):
            ModelConfig(Family.VR, m_lo=0.5, m_hi=2.0)  # 0 not in M
        with pytest.raises(ParameterError):
            ModelConfig(Family.AC, ac_depth_max=0)

    @pytest.mark.parametrize("field, kwargs", [
        ("sigma", {"sigma": math.inf}),
        ("sigma", {"sigma": math.nan}),
        ("m_lo", {"m_lo": -math.inf, "m_hi": math.inf}),
        ("m_lo", {"m_lo": math.nan}),
        ("m_hi", {"m_hi": math.inf}),
    ])
    def test_config_rejects_non_finite(self, field, kwargs):
        with pytest.raises(ParameterError, match=f"^{field} must be finite"):
            ModelConfig(Family.LM, **kwargs)

    def test_theta_invariants(self):
        with pytest.raises(ParameterError):
            ThetaLM((0.6, 0.6), (0.0, 1.0))  # weights don't sum to 1
        with pytest.raises(ParameterError):
            ThetaLM((1.0,), (0.0, 1.0))  # length mismatch
        with pytest.raises(ParameterError):
            ThetaVR(())
        # means outside M are caught against the config
        from orderest.models import validate_theta
        with pytest.raises(ParameterError):
            validate_theta(LM, ThetaLM((1.0,), (5.0,)))
        with pytest.raises(UsageError):
            validate_theta(LM, ThetaVR((0.5,)))

    @pytest.mark.parametrize("weights, means", [
        ((math.nan, 1.0), (0.0, 1.0)),
        ((0.5, 0.5), (0.0, math.nan)),
        ((1.0,), (math.inf,)),
        ((0.5, 0.5), (-math.inf, 0.0)),
    ])
    def test_theta_lm_rejects_non_finite(self, weights, means):
        with pytest.raises(ParameterError, match="finite"):
            ThetaLM(weights, means)

    @pytest.mark.parametrize("family, points, bad", [
        (Family.LM, [0.0, math.nan, math.inf], 1),
        (Family.VR, [[0.5, 1.0], [0.25, -math.inf]], 1),
        (Family.AC, [[0.5, 0.5, math.nan]], 0),
    ])
    def test_sample_rejects_non_finite(self, family, points, bad):
        with pytest.raises(ParameterError, match=f"point {bad} is not finite"):
            Sample(family, points, 0)

    def test_sample_csv_rejects_non_finite(self):
        with pytest.raises(ParameterError, match="point 1 is not finite"):
            sample_from_csv("idx,z\n0,0.5\n1,nan\n")
        with pytest.raises(ParameterError, match="point 0 is not finite"):
            sample_from_csv("idx,x1,y\n0,0.5,inf\n")

    def test_tree_depth_cap(self):
        from orderest.models import validate_theta
        deep = ThetaAC(Split(1, 0.5, Split(2, 0.5, Leaf(0.0), Leaf(0.1)), Leaf(1.0)))
        validate_theta(AC, deep)
        shallow_cfg = ModelConfig(Family.AC, ac_depth_max=1)
        with pytest.raises(ParameterError):
            validate_theta(shallow_cfg, deep)

    def test_cut_outside_cell(self):
        # inner cut beyond the parent's extent on the same axis
        with pytest.raises(ValueError):
            ThetaAC(Split(1, 0.5, Split(1, 0.7, Leaf(0.0), Leaf(0.1)), Leaf(1.0)))


class TestSimulate:
    def test_single_component_is_standard_normal(self):
        s = simulate(LM, ThetaLM((1.0,), (0.0,)), 3, seed=7)
        s2 = simulate(LM, ThetaLM((1.0,), (0.0,)), 3, seed=7)
        assert s.n == 3 and np.array_equal(s.points, s2.points)
        assert s.head(2).n == 2 and s.head(0).n == 0
        for n in (-1, 4):
            with pytest.raises(UsageError, match=f"first {n} of 3"):
                s.head(n)
        big = simulate(LM, ThetaLM((1.0,), (0.0,)), 100_000, seed=7)
        assert abs(big.z.mean()) < 0.02 and abs(big.z.std() - 1.0) < 0.02

    def test_vr_zero_function(self):
        s = simulate(VR, ThetaVR((0.0, 0.0)), 100_000, seed=1)
        assert abs(s.y.mean()) < 0.02

    def test_mixture_variance_matches_analytic(self):
        # Var = sigma^2 + sum pi m^2 - (sum pi m)^2 = 1 + 4 - 0 = 5
        theta = ThetaLM((0.5, 0.5), (-2.0, 2.0))
        s = simulate(LM, theta, 100_000, seed=11)
        assert abs(np.var(s.z) - 5.0) / 5.0 < 0.02
        # brute-force moment oracle: resample the hidden construction directly
        rng = np.random.default_rng(123)
        labels = rng.integers(0, 2, 400_000)
        z = np.where(labels == 0, -2.0, 2.0) + rng.standard_normal(400_000)
        assert abs(np.var(z) - 5.0) / 5.0 < 0.02

    def test_determinism_and_seed_sensitivity(self):
        a = simulate(VR, ThetaVR((1.0, 0.5)), 50, seed=3)
        b = simulate(VR, ThetaVR((1.0, 0.5)), 50, seed=3)
        c = simulate(VR, ThetaVR((1.0, 0.5)), 50, seed=4)
        assert np.array_equal(a.points, b.points)
        assert not np.array_equal(a.points, c.points)

    def test_ac_domain(self):
        s = simulate(AC, TWO_CELL, 500, seed=2)
        assert s.x.min() >= 0.0 and s.x.max() <= 1.0
        with pytest.raises(UsageError):
            simulate(AC, TWO_CELL, 0, seed=2)

    def test_invalid_theta_rejected(self):
        with pytest.raises(ParameterError):
            simulate(LM, ThetaLM((1.0,), (9.0,)), 10, seed=0)

    def test_points_read_only(self):
        s = simulate(VR, ThetaVR((1.0,)), 10, seed=0)
        with pytest.raises(ValueError):
            s.points[0, 0] = 0.5


class TestLogDensity:
    def test_standard_normal_at_mode(self):
        val = log_density(LM, ThetaLM((1.0,), (0.0,)), 0.0)
        assert val == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-14)

    def test_vr_zero_residual(self):
        theta = ThetaVR((1.0, 0.5))
        x = 0.5
        y = eval_regression_fn(VR, theta, x)
        val = log_density(VR, theta, (x, y))
        assert val == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-12)

    def test_symmetric_mixture_cross_check(self):
        # direct summation oracle for the two-component density at z=0
        theta = ThetaLM((0.5, 0.5), (-1.0, 1.0))
        direct = math.log(0.5 * math.exp(-0.5) / math.sqrt(2 * math.pi)
                          + 0.5 * math.exp(-0.5) / math.sqrt(2 * math.pi))
        assert log_density(LM, theta, 0.0) == pytest.approx(direct, abs=1e-12)
        # symmetry makes both components equal: log gamma(0; -1) + log 1
        gamma = -0.5 * math.log(2 * math.pi) - 0.5
        assert log_density(LM, theta, 0.0) == pytest.approx(gamma, abs=1e-12)

    def test_zero_weight_component_ignored(self):
        a = ThetaLM((1.0, 0.0), (0.0, 1.0))
        b = ThetaLM((1.0,), (0.0,))
        z = np.linspace(-3, 3, 7)
        assert np.allclose(point_log_densities(LM, a, z),
                           point_log_densities(LM, b, z), atol=0, rtol=0)

    def test_log_likelihood_conventions(self):
        theta = ThetaVR((0.3,))
        empty = Sample(Family.VR, np.zeros((0, 2)), seed=0)
        assert log_likelihood(VR, theta, empty) == 0.0
        one = Sample(Family.VR, np.array([[0.2, 0.4]]), seed=0)
        assert log_likelihood(VR, theta, one) == pytest.approx(
            log_density(VR, theta, (0.2, 0.4)), abs=1e-15)
        with pytest.raises(UsageError):
            log_likelihood(LM, ThetaLM((1.0,), (0.0,)), one)

    def test_log_likelihood_matches_naive_sum(self):
        theta = ThetaLM((0.3, 0.7), (-1.0, 0.5))
        s = simulate(LM, theta, 200, seed=5)
        naive = sum(log_density(LM, theta, z) for z in s.z)
        assert log_likelihood(LM, theta, s) == pytest.approx(naive, rel=1e-12)

    @pytest.mark.parametrize("config,theta", [
        (LM, ThetaLM((0.4, 0.6), (-1.5, 0.5))),
        (VR, ThetaVR((1.0, 0.5))),
    ])
    def test_density_normalization_quadrature(self, config, theta):
        # integrate exp(log_density) over the response at fixed x (VR) or over z (LM)
        means = theta.means if config.family is Family.LM else (
            eval_regression_fn(config, theta, 0.3),)
        grid = np.linspace(min(means) - 12.0, max(means) + 12.0, 20001)
        if config.family is Family.LM:
            vals = np.exp(point_log_densities(config, theta, grid))
        else:
            pts = np.column_stack([np.full(grid.size, 0.3), grid])
            vals = np.exp(point_log_densities(config, theta, pts))
        integral = np.trapezoid(vals, grid)
        assert integral == pytest.approx(1.0, abs=1e-6)


class TestVrBasis:
    """A VR sample keeps one cosine basis; every read of it must give the
    bits a basis built for that call alone would give."""

    @pytest.mark.parametrize("order", [(1, 2, 3, 4, 5), (5, 4, 3, 2, 1), (3, 1, 5, 2, 4)],
                             ids=["ascending", "descending", "mixed"])
    @pytest.mark.parametrize("n", [1, 2, 100, 800])
    def test_log_likelihood_equals_point_sum(self, n, order):
        rng = rng_for(71, n)
        thetas = {k: ThetaVR(tuple(rng.uniform(-2.0, 2.0, k))) for k in range(1, 6)}
        pts = np.column_stack([rng.uniform(0.0, 1.0, n), rng.standard_normal(n)])
        sampled = simulate(VR, thetas[2], n, seed=n)
        for s in (Sample(Family.VR, pts, seed=0), sampled, sampled.head((n + 1) // 2)):
            for k in order:
                expect = float(np.sum(point_log_densities(VR, thetas[k], s.points)))
                assert log_likelihood(VR, thetas[k], s) == expect, (n, k)
            head = s.head(max(s.n // 3, 1))
            for k in order:
                expect = float(np.sum(point_log_densities(VR, thetas[k], head.points)))
                assert log_likelihood(VR, thetas[k], head) == expect, (n, k)

    def test_basis_is_read_only_and_widens(self):
        s = simulate(VR, ThetaVR((1.0, 0.5)), 50, seed=3)
        assert np.array_equal(s.vr_basis(2), vr_basis_matrix(s.x, 2))
        with pytest.raises(ValueError):
            s.vr_basis(2)[0, 0] = 1.0
        wide = s.vr_basis(4)
        assert wide.shape == (50, 4) and np.array_equal(wide, vr_basis_matrix(s.x, 4))
        assert np.shares_memory(s.vr_basis(1), wide)
        with pytest.raises(ValueError):
            wide[:, 3] = 0.0
        with pytest.raises(ValueError):
            s.head(10).vr_basis(3)[0, 0] = 1.0

    def test_only_vr_samples_have_a_basis(self):
        for config, theta in ((LM, ThetaLM((1.0,), (0.0,))), (AC, TWO_CELL)):
            with pytest.raises(UsageError):
                simulate(config, theta, 5, seed=0).vr_basis(1)


class TestRegressionFn:
    def test_vr_basis_values(self):
        assert eval_regression_fn(VR, ThetaVR((1.0,)), 0.0) == pytest.approx(math.sqrt(2.0))
        # sqrt(2) (cos(pi/4) + 0.5 cos(pi/2)) = 1
        assert eval_regression_fn(VR, ThetaVR((1.0, 0.5)), 0.25) == pytest.approx(1.0, abs=1e-14)

    def test_ac_constant_tree(self):
        theta = ThetaAC(Leaf(0.7))
        pts = np.random.default_rng(0).uniform(0, 1, (20, 2))
        assert np.all(eval_regression_fn(AC, theta, pts) == 0.7)

    def test_lm_rejected(self):
        with pytest.raises(UsageError):
            eval_regression_fn(LM, ThetaLM((1.0,), (0.0,)), 0.5)

    def test_basis_orthonormal(self):
        # Monte Carlo check of the L2([0,1]) orthonormality of the basis
        x = np.linspace(0, 1, 200_001)
        basis = vr_basis_matrix(x, 3)
        gram = basis.T @ basis / x.size
        assert np.allclose(gram, np.eye(3), atol=5e-3)


class TestNesting:
    def test_vr_embedding_density_identical(self):
        theta = ThetaVR((1.0, 0.5))
        wider = embed(VR, theta, 4)
        s = simulate(VR, theta, 100, seed=9)
        assert log_likelihood(VR, wider, s) == pytest.approx(
            log_likelihood(VR, theta, s), abs=1e-12)

    def test_lm_embedding_density_identical(self):
        theta = ThetaLM((0.5, 0.5), (-2.0, 2.0))
        wider = embed(LM, theta, 3)
        assert wider.k == 3 and wider.weights[2] == 0.0
        s = simulate(LM, theta, 100, seed=9)
        assert log_likelihood(LM, wider, s) == pytest.approx(
            log_likelihood(LM, theta, s), abs=1e-12)

    def test_ac_embedding_density_identical(self):
        wider = embed(AC, TWO_CELL, 3)
        assert wider.k == 3
        s = simulate(AC, TWO_CELL, 100, seed=9)
        assert log_likelihood(AC, wider, s) == pytest.approx(
            log_likelihood(AC, TWO_CELL, s), abs=1e-12)

    def test_true_order(self):
        assert true_order(VR, ThetaVR((1.0, 0.5, 0.0))) == 2
        assert true_order(VR, ThetaVR((0.0,))) == 1
        assert true_order(LM, ThetaLM((0.5, 0.5, 0.0), (-2.0, 2.0, 0.0))) == 2
        assert true_order(LM, ThetaLM((0.5, 0.5), (1.0, 1.0))) == 1  # merged means
        assert true_order(AC, TWO_CELL) == 2
        equal_marks = ThetaAC(Split(1, 0.5, Leaf(0.3), Leaf(0.3)))
        assert true_order(AC, equal_marks) == 1

    def test_theta_dim(self):
        assert theta_dim(Family.LM, 2) == 3
        assert theta_dim(Family.VR, 2) == 2
        assert theta_dim(Family.AC, 3) == 5


class TestRngContract:
    def test_rng_depends_only_on_seed_and_path(self):
        a = rng_for(5, 1, 2).standard_normal(4)
        b = rng_for(5, 1, 2).standard_normal(4)
        c = rng_for(5, 2, 1).standard_normal(4)
        assert np.array_equal(a, b) and not np.array_equal(a, c)

    def test_derive_seed_stable(self):
        assert derive_seed(5, 3) == derive_seed(5, 3)
        assert derive_seed(5, 3) != derive_seed(5, 4)
        assert derive_seed(-1, 0) == derive_seed(-1, 0)  # negative seeds masked


class TestSerialization:
    def test_config_round_trip(self):
        for config in (LM, VR, AC, ModelConfig(Family.VR, sigma=0.25, m_lo=-1.0, m_hi=3.0)):
            assert config_from_kv(config_to_kv(config)) == config

    def test_theta_round_trip(self):
        thetas = [
            ThetaLM((0.25, 0.75), (-1.23456789012345, 2.0)),
            ThetaVR((1.0, 0.5, -0.125)),
            TWO_CELL,
            ThetaAC(Split(2, 0.3, Split(1, 0.6, Leaf(-1.0), Leaf(0.5)), Leaf(1.0))),
        ]
        for theta in thetas:
            assert theta_from_kv(theta_to_kv(theta)) == theta

    def test_unreached_tree_keys_rejected(self):
        # a typo in a tree path must not silently drop the nodes under it
        text = "kind = ac\ntree.r = leaf 0.5\ntree.r0 = leaf 9\ntree.rx = split 1 0.5\n"
        with pytest.raises(UsageError, match=re.escape(
                "not reached from theta.tree.r: theta.tree.r0, theta.tree.rx")):
            theta_from_kv(text)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            config_from_kv("family = LM\nsheduel = bic\n")
        with pytest.raises(ValueError, match="duplicate"):
            config_from_kv("family = LM\nfamily = VR\n")

    def test_basis_is_not_a_config_key(self):
        # the cosine basis is the only VR basis; text that names it is rejected
        assert "basis" not in config_to_kv(VR)
        with pytest.raises(ValueError, match="vr_basis"):
            config_from_kv("family = VR\nvr_basis = cosine\n")

    def test_sample_csv_round_trip(self):
        for config, theta in ((LM, ThetaLM((1.0,), (0.0,))), (VR, ThetaVR((0.5,))),
                              (AC, TWO_CELL)):
            s = simulate(config, theta, 17, seed=21)
            back = sample_from_csv(sample_to_csv(s), seed=21)
            assert back.family is s.family and back.n == s.n
            assert np.array_equal(back.points, s.points)

    def test_sample_csv_headers(self):
        s = simulate(VR, ThetaVR((0.5,)), 2, seed=0)
        assert sample_to_csv(s).splitlines()[0] == "idx,x1,y"
        s = simulate(LM, ThetaLM((1.0,), (0.0,)), 2, seed=0)
        assert sample_to_csv(s).splitlines()[0] == "idx,z"
        s = simulate(AC, TWO_CELL, 2, seed=0)
        assert sample_to_csv(s).splitlines()[0] == "idx,x1,x2,y"


# finite floats of every size, most of them needing all 17 significant digits
FINITE = st.floats(allow_nan=False, allow_infinity=False)
UNIT = st.floats(0.0, 1.0)


@st.composite
def lm_thetas(draw):
    raw = draw(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=6))
    weights = np.asarray(raw) / sum(raw)
    means = draw(st.lists(FINITE, min_size=len(raw), max_size=len(raw)))
    return ThetaLM(tuple(weights), tuple(means))


@st.composite
def configs(draw, family=None):
    """A ModelConfig of the given family, else of any family."""
    family = draw(st.sampled_from(list(Family))) if family is None else family
    lo, hi = sorted(draw(st.lists(FINITE, min_size=2, max_size=2, unique=True)))
    if family is Family.VR:
        lo, hi = min(lo, 0.0), max(hi, 0.0)
    return ModelConfig(family, sigma=draw(st.floats(1e-300, 1e300)), m_lo=lo, m_hi=hi,
                       ac_depth_max=draw(st.integers(1, 64)))


@st.composite
def samples(draw):
    family = draw(st.sampled_from(list(Family)))
    n = draw(st.integers(0, 12))
    y = draw(st.lists(FINITE, min_size=n, max_size=n))
    if family is Family.LM:
        return Sample(family, np.asarray(y, dtype=float), draw(st.integers()))
    d = 1 if family is Family.VR else 2
    x = draw(st.lists(st.lists(UNIT, min_size=d, max_size=d), min_size=n, max_size=n))
    points = np.column_stack([np.asarray(x, dtype=float).reshape(n, d), y])
    return Sample(family, points, draw(st.integers()))


# AC trees of depth <= 4: st.recursive draws the shape, the marks, and where
# each cut falls in its cell as a share of the cell's side
TREE_SHAPES = st.recursive(
    FINITE.map(Leaf),
    lambda kids: st.tuples(st.sampled_from([1, 2]),
                           st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), kids, kids),
    max_leaves=16)


def _placed_tree(shape, box=(0.0, 1.0, 0.0, 1.0), depth=4):
    """The tree of a drawn shape, each cut at its share of its cell's side.  A
    split below depth 4, or one whose cut rounds onto its cell's edge, gives
    way to its low subtree."""
    if isinstance(shape, Leaf):
        return shape
    axis, share, low, high = shape
    lo, hi = box[2 * axis - 2:2 * axis]
    cut = lo + share * (hi - lo)
    if depth == 0 or not lo < cut < hi:
        return _placed_tree(low, box, depth)
    low_box, high_box = list(box), list(box)
    low_box[2 * axis - 1] = high_box[2 * axis - 2] = cut
    return Split(axis, cut, _placed_tree(low, tuple(low_box), depth - 1),
                 _placed_tree(high, tuple(high_box), depth - 1))


def _full_shape(depth, i=1):
    """A full shape of the given depth: alternating axes, cuts at a third of
    each cell, marks from 0.1 * i (most need 17 digits) and one -0.0."""
    if depth == 0:
        return Leaf(-0.0 if i == 16 else 0.1 * i)
    return (1 + depth % 2, 1.0 / 3.0, _full_shape(depth - 1, 2 * i),
            _full_shape(depth - 1, 2 * i + 1))


class TestSerializationProperties:
    @given(configs())
    def test_config_round_trip(self, config):
        assert config_from_kv(config_to_kv(config)) == config

    @given(st.one_of(lm_thetas(), st.lists(FINITE, min_size=1, max_size=6).map(
        lambda c: ThetaVR(tuple(c)))))
    def test_theta_round_trip(self, theta):
        assert theta_from_kv(theta_to_kv(theta)) == theta

    @given(TREE_SHAPES.map(_placed_tree))
    # the ci profile's 50 draws reach depth 3 only; one full depth-4 tree
    @example(_placed_tree(_full_shape(4)))
    def test_ac_theta_round_trip(self, tree):
        theta = ThetaAC(tree)
        # repr tells -0.0 from 0.0, which == does not
        assert repr(theta_from_kv(theta_to_kv(theta))) == repr(theta)

    @given(samples())
    def test_sample_csv_round_trip(self, s):
        back = sample_from_csv(sample_to_csv(s), seed=s.seed)
        assert (back.family, back.n, back.seed) == (s.family, s.n, s.seed)
        assert back.points.shape == s.points.shape
        assert np.array_equal(back.points, s.points)


class TestLogsumexpRows:
    def test_equals_scipy_logsumexp(self):
        # scipy stays the oracle: -inf columns, all -inf rows, +inf entries,
        # tied maxima and magnitudes up to 1e300, in 2-D and stacked 3-D arrays
        rng = rng_for(91)
        for trial in range(400):
            shape = (int(rng.integers(1, 4)),) * (trial % 2) + (
                int(rng.integers(1, 40)), int(rng.integers(1, 12)))
            a = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3.0, 300.0)
            if trial % 3 == 0:  # few distinct values: ties at the max
                a = rng.choice(np.unique(np.round(a, 0))[:3], shape)
            a[..., rng.random(shape[-1]) < 0.2] = -np.inf
            a[rng.random(shape[:-1]) < 0.2] = -np.inf
            if trial % 7 == 0:
                a[rng.random(shape) < 0.05] = np.inf
            assert np.array_equal(logsumexp_rows(a), logsumexp(a, axis=-1)), trial
