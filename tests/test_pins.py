"""Exact output pins for small campaigns.

The orders and the importance-sampling figures below were recorded from the
fitting and trial kernels as they stood before the deletion pass that merged
their duplicate copies.  A refactor or a kernel swap that claims to keep
outputs exact must keep these equal; one that changes outputs on purpose
re-records them and says so in CHANGES.md.
"""

import numpy as np

from orderest import (
    Family, ModelConfig, ThetaLM, ThetaVR, is_underestimation_prob, order_trials,
    parse_schedule,
)
from orderest.models import Leaf, Split, ThetaAC, fmt

LM = ModelConfig(Family.LM, sigma=1.0)
VR = ModelConfig(Family.VR, sigma=1.0)
AC = ModelConfig(Family.AC, sigma=1.0, ac_depth_max=2)


def test_vr_order_trials_pinned():
    orders = order_trials(VR, ThetaVR((1.0, 0.3)),
                          parse_schedule("bic D=dim*0.05", Family.VR, 5),
                          60, 4, seed=11, k_max=4, k_scan_max=3)
    assert orders.tolist() == [[3, 3], [2, 2], [3, 3], [3, 4]]


def test_ac_order_trials_pinned():
    orders = order_trials(AC, ThetaAC(Split(1, 0.5, Leaf(0.0), Leaf(0.5))),
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
