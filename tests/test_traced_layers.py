"""The benchmark tracer wraps functions by name ("<module>.<function>" in
orderest).  A refactor that deletes, renames or bypasses one of them breaks
the traced benchmark; these tests make it break here first."""

import contextlib
import importlib
import importlib.util
import inspect
import io
import sys
from pathlib import Path

import pytest

from orderest import Family, FitResult, ThetaVR, criterion, estimate_orders, parse_schedule
from orderest import experiments
from orderest.fitting import ProfileCurve

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    """perfbench/<name>.py as a module, without putting perfbench on sys.path."""
    qualified = f"perfbench_{name}"
    if qualified not in sys.modules:
        spec = importlib.util.spec_from_file_location(qualified, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[qualified] = module  # dataclasses look their module up here
        spec.loader.exec_module(module)
    return sys.modules[qualified]


def _tracer_layers() -> tuple[str, ...]:
    return _load("tracer").LAYERS


@pytest.mark.parametrize("layer", _tracer_layers())
def test_every_traced_layer_is_a_function(layer):
    module_name, fn_name = layer.split(".")
    fn = getattr(importlib.import_module(f"orderest.{module_name}"), fn_name, None)
    assert inspect.isfunction(fn), f"{layer} is not a function of orderest.{module_name}"
    assert fn.__module__ == f"orderest.{module_name}"


def test_one_estimate_reads_crit_values_once(monkeypatch):
    calls = []
    original = criterion.crit_values

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(criterion, "crit_values", counting)
    entries = tuple(FitResult(ThetaVR((0.0,)), ll, 1, True, 1) for ll in (10.0, 12.0, 12.5))
    prof = ProfileCurve(n=100, family=Family.VR, entries=entries)
    est = estimate_orders(prof, parse_schedule("bic D=dim", Family.VR, 3), 3)
    assert len(calls) == 1
    assert sorted(est.crit_values) == [1, 2, 3]


def _traced_tiny_run(name: str, tmp_path):
    """The tracer's metrics of one run of the workload's tiny spec."""
    workloads = _load("workloads")
    wl = workloads.WORKLOADS[name]
    spec = experiments.parse_spec(wl.spec_text(workloads.DEFAULT_SEED, "tiny",
                                               str(tmp_path / "out")))
    tracer = _load("tracer").Tracer(wl.op_roots)
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert experiments.run(spec) == 0
    finally:
        tracer.uninstall()
    return tracer.metrics()


@pytest.mark.parametrize("name", sorted(_load("workloads").WORKLOADS))
def test_each_workload_reaches_its_layers(name, tmp_path):
    # the traced benchmark fails a workload whose layers record no calls; a
    # kernel that bypasses one of them must fail here first
    metrics = _traced_tiny_run(name, tmp_path)
    wl = _load("workloads").WORKLOADS[name]
    assert [layer for layer in wl.layers if not metrics[f"{layer}.calls"]] == []


def test_ac_profile_fits_every_k_in_one_call(tmp_path):
    metrics = _traced_tiny_run("ac_mc", tmp_path)
    profiles = metrics["fitting.profile.calls"]
    assert profiles > 0
    assert (metrics["fitting.fit_ac.calls"], metrics["guillotine.fit_tree_empirical.calls"]) \
        == (profiles, profiles)
