"""Metamorphic relations of the fits and of AC projections.

The data are i.i.d., so the sup log-likelihood of a class depends on the data
alone: not on the order of their rows, nor on how the sample was stored.  Each
family also has exact symmetries that map its classes onto themselves: for LM
shifting z together with the mean box, and reflecting z through the box's
midpoint; y -> -y when the mark box is symmetric; and for AC reflecting x1
through 1/2 and swapping the axes (a guillotine tree maps to one of the same
depth).  Testing a fitter against such relations needs no oracle for the sup
(metamorphic testing, Chen et al. 2018, ACM Computing Surveys 51(1)).

On frozen seeds the exact VR and AC fits hold every relation to rounding:
log-likelihoods within 1e-12 relative, identical orders, and AC projection
tables within 1e-12.  LM's multi-start EM reads nothing but the data, so a
sample written to CSV and read back refits bit for bit.  Its start set moves
with a shift and is closed under the reflection, to 1e-12.  EM still stops
wherever its rule stops it, so under the relations the LM orders are identical
and the log-likelihoods agree within 0.05 nat, not to rounding.
"""

import functools
from dataclasses import replace

import numpy as np
import pytest

from orderest import (
    Family, Leaf, ModelConfig, Sample, Split, ThetaAC, estimate_orders, guillotine,
    parse_schedule, profile, project_entropy, random_theta, simulate, stein_bound,
)
from orderest.deviations import _TRIAL_STREAM
from orderest.fitting import _lm_start_list
from orderest.models import derive_seed, rng_for, sample_from_csv, sample_to_csv

LM = ModelConfig(Family.LM, sigma=1.0)  # the mean box [-2, 2] is symmetric about 0
VR = ModelConfig(Family.VR, sigma=1.0)  # the mark box [-2, 2] is symmetric
K_MAX = {Family.LM: 3, Family.VR: 5, Family.AC: 3}
LM_SHIFT = 0.75
# how far a moved sample's log-likelihood may lie from the original's: the
# exact fits agree to rounding, EM's stopping rule leaves LM short of that
LOGLIK_TOL = {"LM": {"abs": 0.05}, "VR": {"rel": 1e-12, "abs": 0.0},
              "AC": {"rel": 1e-12, "abs": 0.0}}


def _lm_samples():
    """K* 1-3 at n 50-200."""
    rng = rng_for(1307)
    out = []
    for i in range(60):
        theta = random_theta(LM, int(rng.integers(1, 4)), rng)
        out.append((LM, simulate(LM, theta, int(rng.integers(50, 201)), derive_seed(1308, i))))
    return out


def _vr_samples():
    rng = rng_for(1301)
    out = []
    for i in range(30):
        theta = random_theta(VR, int(rng.integers(1, 5)), rng)
        out.append((VR, simulate(VR, theta, int(rng.integers(20, 401)), derive_seed(1302, i))))
    return out


def _ac_samples():
    """Depth 2 at n 30-100, and depth 3 at n 20-40 (its DP is slower)."""
    rng = rng_for(1303)
    out = []
    for i in range(24):
        depth = 2 if i % 4 else 3
        config = ModelConfig(Family.AC, sigma=(0.5, 1.0)[i % 2], ac_depth_max=depth)
        theta = random_theta(config, int(rng.integers(1, 2 ** depth + 1)), rng)
        n = int(rng.integers(30, 101)) if depth == 2 else int(rng.integers(20, 41))
        out.append((config, simulate(config, theta, n, derive_seed(1304, i))))
    return out


def _on_points(transform):
    """The relation that moves the points and keeps the config."""
    return lambda config, points: (config, transform(points))


@_on_points
def _permuted(points):
    return points[rng_for(1305, points.shape[0]).permutation(points.shape[0])]


@_on_points
def _y_negated(points):
    return np.column_stack([points[:, :-1], -points[:, -1]])


def _shifted(config, z):
    """z and the mean box shifted together."""
    return replace(config, m_lo=config.m_lo + LM_SHIFT, m_hi=config.m_hi + LM_SHIFT), z + LM_SHIFT


RELATIONS = {
    "LM": {"rows permuted": _permuted, "z negated": _on_points(np.negative),
           "shifted with the box": _shifted},
    "VR": {"rows permuted": _permuted, "y negated": _y_negated},
    "AC": {"rows permuted": _permuted, "y negated": _y_negated,
           "x1 reflected": _on_points(lambda p: np.column_stack([1.0 - p[:, 0], p[:, 1:]])),
           "axes swapped": _on_points(lambda p: p[:, [1, 0, 2]])},
}
SAMPLES = {"LM": _lm_samples, "VR": _vr_samples, "AC": _ac_samples}


def _fit(config, sample):
    k_max = K_MAX[config.family]
    curve = profile(sample, config, k_max)
    orders = estimate_orders(curve, parse_schedule("bic D=dim", config.family, k_max), k_max)
    return curve.logliks(), (orders.k_local, orders.k_global)


@functools.lru_cache(maxsize=None)
def _fitted(family):
    """The frozen samples of a family with their fits, shared by its relations."""
    return [(config, sample, *_fit(config, sample)) for config, sample in SAMPLES[family]()]


@pytest.mark.parametrize("family, relation",
                         [(f, r) for f in RELATIONS for r in RELATIONS[f]])
def test_fit_is_invariant(family, relation):
    """The sup log-likelihood at every K moves by at most LOGLIK_TOL, and
    both orders are unchanged."""
    for i, (config, sample, logliks, orders) in enumerate(_fitted(family)):
        moved_config, points = RELATIONS[family][relation](config, sample.points)
        got, got_orders = _fit(moved_config, Sample(config.family, points))
        for k, ll in logliks.items():
            assert got[k] == pytest.approx(ll, **LOGLIK_TOL[family]), (i, k)
        assert got_orders == orders, i


def test_lm_refit_from_csv_is_identical():
    """A campaign trial's LM sample, written to CSV and read back, refits to
    the same profile bit for bit: the fit reads no label of the sample."""
    rng = rng_for(1309)
    for t in range(30):
        theta = random_theta(LM, int(rng.integers(1, 4)), rng)
        sample = simulate(LM, theta, int(rng.integers(50, 201)),
                          derive_seed(1310, _TRIAL_STREAM, t))
        back = sample_from_csv(sample_to_csv(sample))
        assert profile(back, LM, 4) == profile(sample, LM, 4), t


@pytest.mark.parametrize("box", [(-2.0, 2.0), (-0.5, 1.5)])
def test_lm_start_set_moves_with_the_data(box):
    """At K = 1..4, the 9 EM starts of the reflected data 2c - z (c the box's
    midpoint) are those of z reflected, each start's components reversed and
    each mirrored pair swapped; those of z + a in the box shifted by a are
    those of z shifted.  Both within 1e-12."""
    config = ModelConfig(Family.LM, m_lo=box[0], m_hi=box[1])
    shifted = replace(config, m_lo=box[0] + LM_SHIFT, m_hi=box[1] + LM_SHIFT)
    mid = 0.5 * (box[0] + box[1])
    mirror = [0] + [j + 1 if j % 2 else j - 1 for j in range(1, 9)]
    rng = rng_for(1311)
    for i in range(20):
        n = int(rng.integers(1, 80))
        z = rng.choice([-1.5, 0.0, 1.5], n) + rng.standard_normal(n)
        for k in range(1, 5):
            starts = _lm_start_list(z, k, config, 9)
            for j, (w, m) in zip(mirror, _lm_start_list(2.0 * mid - z, k, config, 9)):
                assert np.array_equal(w, starts[j][0])
                np.testing.assert_allclose(m, 2.0 * mid - starts[j][1][::-1], rtol=0, atol=1e-12,
                                           err_msg=f"{i} K={k} start {j}")
            for j, (w, m) in enumerate(_lm_start_list(z + LM_SHIFT, k, shifted, 9)):
                assert np.array_equal(w, starts[j][0])
                np.testing.assert_allclose(m, starts[j][1] + LM_SHIFT, rtol=0, atol=1e-12,
                                           err_msg=f"{i} K={k} start {j}")


def _reflected(node, axis):
    """The tree reflected through 1/2 on `axis`."""
    if isinstance(node, Leaf):
        return node
    low, high = _reflected(node.low, axis), _reflected(node.high, axis)
    if node.axis == axis:
        return Split(axis, 1.0 - node.cut, high, low)
    return Split(node.axis, node.cut, low, high)


def _swapped(node):
    if isinstance(node, Leaf):
        return node
    return Split(3 - node.axis, node.cut, _swapped(node.low), _swapped(node.high))


@pytest.mark.parametrize("relation", ["x1 reflected", "x2 reflected", "axes swapped"])
def test_ac_projection_table_is_invariant(relation):
    """Both directions of the K = 1..2**depth table move by at most 1e-12."""
    transform = {"x1 reflected": lambda t: _reflected(t, 1),
                 "x2 reflected": lambda t: _reflected(t, 2), "axes swapped": _swapped}[relation]
    rng = rng_for(1306)
    for i in range(30):
        depth = 1 + i % 3
        config = ModelConfig(Family.AC, sigma=(0.5, 1.0)[i % 2], ac_depth_max=depth)
        tree = guillotine.random_tree(rng, int(rng.integers(1, 2 ** depth + 1)), depth,
                                      config.m_lo, config.m_hi)
        ks = range(1, 2 ** depth + 1)
        for direction in (project_entropy, stein_bound):
            want = direction(config, ThetaAC(tree), ks)
            got = direction(config, ThetaAC(transform(tree)), ks)
            for k, (a, _), (b, _) in zip(ks, want, got):
                assert b.value == pytest.approx(a.value, abs=1e-12), (i, k)
                assert (b.method, b.tol) == (a.method, a.tol), (i, k)
