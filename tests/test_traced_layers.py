"""The benchmark tracer wraps functions by name ("<module>.<function>" in
orderest).  A refactor that deletes, renames or bypasses one of them breaks
the traced benchmark; these tests make it break here first."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from orderest import Family, FitResult, ThetaVR, criterion, estimate_orders, parse_schedule
from orderest.fitting import ProfileCurve

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_layers() -> tuple[str, ...]:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


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
    est = estimate_orders(prof, parse_schedule("bic D=dim", Family.VR, 3), 100, 2)
    assert len(calls) == 1
    assert sorted(est.crit_values) == [1, 2, 3]
