"""Metamorphic relations of the exact VR and AC fits and of AC projections.

The data are i.i.d., so the sup log-likelihood of a class depends on the data
alone, not on the order of their rows.  Each regression family also has
exact symmetries that map its classes onto themselves: y -> -y when the mark
box is symmetric, and for AC reflecting x1 through 1/2 and swapping the axes
(a guillotine tree maps to one of the same depth).  Testing a fitter against
such relations needs no oracle for the sup (metamorphic testing, Chen et al.
2018, ACM Computing Surveys 51(1)).  On frozen seeds every relation holds to
rounding: log-likelihoods within 1e-12 relative, identical orders, and AC
projection tables within 1e-12.
"""

import numpy as np
import pytest

from orderest import (
    Family, Leaf, ModelConfig, Sample, Split, ThetaAC, estimate_orders, guillotine,
    parse_schedule, profile, project_entropy, random_theta, simulate, stein_bound,
)
from orderest.criterion import scan_top
from orderest.models import derive_seed, rng_for

VR = ModelConfig(Family.VR, sigma=1.0)  # the mark box [-2, 2] is symmetric
K_MAX = {Family.VR: 5, Family.AC: 3}


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


def _permuted(points):
    return points[rng_for(1305, points.shape[0]).permutation(points.shape[0])]


def _y_negated(points):
    return np.column_stack([points[:, :-1], -points[:, -1]])


RELATIONS = {
    "VR": {"rows permuted": _permuted, "y negated": _y_negated},
    "AC": {"rows permuted": _permuted, "y negated": _y_negated,
           "x1 reflected": lambda p: np.column_stack([1.0 - p[:, 0], p[:, 1:]]),
           "axes swapped": lambda p: p[:, [1, 0, 2]]},
}
SAMPLES = {"VR": _vr_samples, "AC": _ac_samples}


def _fit(config, sample):
    k_max = K_MAX[config.family]
    curve = profile(sample, config, scan_top(k_max))
    orders = estimate_orders(curve, parse_schedule("bic D=dim", config.family,
                                                   scan_top(k_max)), k_max)
    return curve.logliks(), (orders.k_local, orders.k_global)


@pytest.mark.parametrize("family, relation",
                         [(f, r) for f in RELATIONS for r in RELATIONS[f]])
def test_fit_is_invariant(family, relation):
    """The sup log-likelihood at every K, and both orders, are unchanged."""
    transform = RELATIONS[family][relation]
    for i, (config, sample) in enumerate(SAMPLES[family]()):
        logliks, orders = _fit(config, sample)
        moved = Sample(config.family, transform(sample.points), seed=sample.seed)
        got, got_orders = _fit(config, moved)
        for k, ll in logliks.items():
            assert got[k] == pytest.approx(ll, rel=1e-12, abs=0.0), (i, k)
        assert got_orders == orders, i


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
