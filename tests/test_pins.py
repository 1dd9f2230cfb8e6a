"""Exact output pins for small campaigns.

The orders and the importance-sampling figures below were recorded from the
fitting and trial kernels as they stood before the deletion pass that merged
their duplicate copies.  A refactor or a kernel swap that claims to keep
outputs exact must keep these equal; one that changes outputs on purpose
re-records them and says so in CHANGES.md.
"""

import numpy as np

from orderest import (
    Family, ModelConfig, ThetaLM, ThetaVR, fit, is_underestimation_prob, order_trials,
    parse_schedule, profile, simulate,
)
from orderest.models import Leaf, Split, ThetaAC, fmt, point_log_densities

LM = ModelConfig(Family.LM, sigma=1.0)
VR = ModelConfig(Family.VR, sigma=1.0)
AC = ModelConfig(Family.AC, sigma=1.0, ac_depth_max=2)
TWO_CELL = ThetaAC(Split(1, 0.5, Leaf(0.0), Leaf(0.5)))


def test_vr_order_trials_pinned():
    # recorded as one run whose local scan stopped at K = 3 and whose global
    # one reached K = 4: the local column at k_max=3, the global at k_max=4
    sched = parse_schedule("bic D=dim*0.05", Family.VR, 5)
    orders = {k_max: order_trials(VR, ThetaVR((1.0, 0.3)), sched, 60, 4, seed=11, k_max=k_max)
              for k_max in (3, 4)}
    assert orders[3][:, 0].tolist() == [3, 2, 3, 3]
    assert orders[4][:, 1].tolist() == [3, 2, 3, 4]


def test_ac_order_trials_pinned():
    orders = order_trials(AC, TWO_CELL,
                          parse_schedule("bic D=dim*0.5", Family.AC, 3),
                          100, 4, seed=12, k_max=2)
    assert orders.tolist() == [[2, 2], [1, 1], [2, 2], [2, 2]]


def test_lm_order_trials_pinned():
    orders = order_trials(LM, ThetaLM((0.5, 0.5), (-1.0, 1.0)),
                          parse_schedule("bic D=dim", Family.LM, 3),
                          60, 3, seed=13, k_max=2)
    assert orders.dtype == np.int64
    assert orders.tolist() == [[2, 2], [1, 1], [2, 2]]


def test_vr_importance_sampling_pinned():
    sched = parse_schedule("bic D=dim*0.05", Family.VR, 4)
    got = []
    for n in (100, 120):
        est = is_underestimation_prob(VR, ThetaVR((1.0, 0.5)), None, sched, "global",
                                      n, 4, seed=14, k_max=3)
        got.append((n, fmt(est.p_under), fmt(est.ess)))
    assert got == [
        (100, "2.8898210066868587e-05", "1"),
        (120, "4.3484107335146899e-07", "1.1169021070238345"),
    ]


def test_regression_simulate_pinned():
    got = [[[fmt(v) for v in row] for row in simulate(config, theta, 7, seed=15).points.tolist()]
           for config, theta in ((VR, ThetaVR((1.0, 0.5))), (AC, TWO_CELL))]
    assert got == [
        [["0.69274336796515235", "-0.24656621963966918"],
         ["0.8158171113360575", "-2.3433767285427067"],
         ["0.34440675779285668", "1.2858744028402824"],
         ["0.044838175690418813", "1.483787769888981"],
         ["0.57159725703373099", "1.1419065832827655"],
         ["0.14624542672359753", "2.4252530512692698"],
         ["0.71877137687547121", "-1.5740869698929898"]],
        [["0.69274336796515235", "0.8158171113360575", "0.70148779022628249"],
         ["0.34440675779285668", "0.044838175690418813", "0.21497791867789423"],
         ["0.57159725703373099", "0.14624542672359753", "0.82951810941942983"],
         ["0.71877137687547121", "0.34535650407583973", "1.8932604931912123"],
         ["0.45700967560887129", "0.97593788739017528", "0.53284401621911959"],
         ["0.78146602777203067", "0.84379004526397594", "2.1606375405678442"],
         ["0.55511438407486025", "0.94162136258589313", "1.1342201141568382"]],
    ]


def test_vr_fits_with_binding_bounds_pinned():
    # the box [-0.25, 0.25] binds at every K, so the active-set solver
    # finishes each fit (iterations counts its active-set changes); the K are
    # asked in three orders, so the sample's basis grows at different steps
    tight = ModelConfig(Family.VR, sigma=0.5, m_lo=-0.25, m_hi=0.25)
    want = {
        1: ("-152.60914494664371", ["0.25"], 1),
        2: ("-140.12022548208841", ["0.25", "0.25"], 2),
        3: ("-139.74133161812381", ["0.25", "0.25", "0.064946485912358978"], 2),
        4: ("-137.22211534099935",
            ["0.25", "0.25", "0.11240061176752165", "0.20389833597950288"], 2),
    }
    for order in ((1, 2, 3, 4), (4, 3, 2, 1), (2, 4, 1, 3)):
        sample = simulate(VR, ThetaVR((1.0, 0.5)), 40, seed=16)
        for k in order:
            [res] = fit(sample, tight, (k,))
            got = (fmt(res.loglik), [fmt(c) for c in res.theta.coeffs], res.iterations)
            assert got == want[k], (order, k)


def test_vr_profile_pinned():
    sample = simulate(VR, ThetaVR((1.0, 0.5)), 50, seed=17)
    assert [fmt(v) for v in profile(sample, VR, 4).logliks().values()] == [
        "-73.884355416767576", "-68.64664491941835", "-68.639967165907947",
        "-67.273501591861034"]


def test_regression_point_log_densities_pinned():
    vr = np.array([[0.1, 0.3], [0.5, -1.2], [0.97, 2.5]])
    ac = np.array([[0.1, 0.2, 0.3], [0.6, 0.9, -1.2], [0.5, 0.5, 2.5]])
    assert fmt(np.sum(point_log_densities(VR, ThetaVR((1.0, 0.5, -0.3)), vr))) == \
        "-7.7502064954137024"
    assert fmt(np.sum(point_log_densities(AC, TWO_CELL, ac))) == "-6.2468155996140178"
