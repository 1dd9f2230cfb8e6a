"""What the package loads, each case in a fresh interpreter with scipy blocked.

scipy is a test dependency only: importing the package, every CLI command,
every projection table and every campaign run with any import of scipy
raising ImportError, and no campaign imports anything once it runs, so a
module's first-use cost never lands inside a timed run."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PERFBENCH = ROOT / "perfbench"

VR_SPEC = """
[model]
family = VR
sigma = 1.0
theta.kind = vr
theta.coeffs = 1.0 0.5

[schedule]
spec = power:0.4 D=dim

[run]
n_grid = 200
seed = 77
k_max = 3
output_dir = {out}
"""

LM_SPEC = """
[model]
family = LM
sigma = 1.0
theta.kind = lm
theta.weights = 0.3 0.4 0.3
theta.means = -2 0 2

[schedule]
spec = bic D=dim

[run]
n_grid = 100
seed = 77
k_max = 3
output_dir = {out}
"""

AC_SPEC = """
[model]
family = AC
sigma = 1.0
ac_depth_max = 3
theta.kind = ac
theta.tree.r = split 1 0.5
theta.tree.r0 = split 2 0.3
theta.tree.r00 = leaf 0
theta.tree.r01 = leaf 1
theta.tree.r1 = leaf -1

[schedule]
spec = bic D=dim

[run]
n_grid = 100
seed = 77
k_max = 4
output_dir = {out}
"""


def _workloads():
    """perfbench/workloads.py as a module, without putting perfbench on sys.path."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses look their module up here
        spec.loader.exec_module(module)
    return sys.modules[name]


# This finder, first on sys.meta_path, fails every import of scipy or of a
# scipy submodule, wherever it comes from.
BLOCK_SCIPY = """
class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"scipy is blocked here: {name}")
        return None
sys.meta_path.insert(0, NoScipy())
"""


def _fresh(code: str, *args: str) -> dict:
    """Run code in a fresh interpreter that imports orderest from src/ and
    cannot import scipy; the run must exit 0, and the code's last line of
    stdout is JSON, returned parsed."""
    prelude = f"import json, sys\nsys.path.insert(0, {str(SRC)!r})\n{BLOCK_SCIPY}"
    proc = subprocess.run([sys.executable, "-c", prelude + code, *args],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_scipy_is_blocked():
    code = """
try:
    import scipy.special
except ImportError as err:
    print(json.dumps(str(err)))
"""
    assert _fresh(code) == "scipy is blocked here: scipy"


@pytest.mark.parametrize("module", ["orderest", "orderest.cli"])
def test_import_loads_no_scipy(module):
    assert _fresh(f"import {module}\nprint(json.dumps({module!r} in sys.modules))") is True


def test_vr_commands_load_no_scipy(tmp_path):
    # the last fit, K = 25 on 20 points, is singular and bound-binding: it
    # runs the active-set solver
    spec = tmp_path / "vr.spec"
    spec.write_text(VR_SPEC.format(out=tmp_path / "out"))
    sample, small, fit = (str(tmp_path / name) for name in ("sample.csv", "small.csv", "fit.csv"))
    code = f"""
from orderest.cli import main
spec, sample, small, fit = {str(spec)!r}, {sample!r}, {small!r}, {fit!r}
rcs = [main(["simulate", "--spec", spec, "--out", sample]),
       main(["fit", "--spec", spec, "--sample", sample]),
       main(["order", "--spec", spec, "--sample", sample]),
       main(["simulate", "--spec", spec, "--n", "20", "--out", small]),
       main(["fit", "--spec", spec, "--sample", small, "--k", "25", "--out", fit])]
print(json.dumps(rcs))
"""
    assert _fresh(code) == [0, 0, 0, 0, 0]
    k, _, converged, changes = Path(fit).read_text().splitlines()[1].split(",")
    assert (k, converged) == ("25", "1") and int(changes) > 0


@pytest.mark.parametrize("text, k_max", [(AC_SPEC, 4), (VR_SPEC, 3), (LM_SPEC, 3)],
                         ids=["AC", "VR", "LM"])
def test_entropy_command_loads_no_scipy(text, k_max, tmp_path):
    """The closed forms of VR and AC, and LM's projection searches."""
    spec = tmp_path / "model.spec"
    spec.write_text(text.format(out=tmp_path / "out"))
    code = f"""
import contextlib, io
from orderest.cli import main
table = io.StringIO()
with contextlib.redirect_stdout(table):
    rc = main(["entropy", "--spec", {str(spec)!r}])
print(json.dumps({{"rc": rc, "rows": len(table.getvalue().splitlines())}}))
"""
    assert _fresh(code) == {"rc": 0, "rows": 1 + 2 * k_max}


RUN_SPEC = """
import contextlib, io
from orderest import experiments
spec = experiments.parse_spec(open(sys.argv[1]).read())
built = sorted(sys.modules)
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    rc = experiments.run(spec)
print(json.dumps({"rc": rc, "run_imported": sorted(set(sys.modules) - set(built))}))
"""


@pytest.mark.parametrize("name", sorted(_workloads().WORKLOADS))
def test_campaign_run_imports_nothing(name, tmp_path):
    workloads = _workloads()
    spec = tmp_path / "spec.txt"
    spec.write_text(workloads.WORKLOADS[name].spec_text(workloads.DEFAULT_SEED, "tiny",
                                                        str(tmp_path / "out")))
    assert _fresh(RUN_SPEC, str(spec)) == {"rc": 0, "run_imported": []}


def test_lm_under_exponent_campaign_runs_without_scipy(tmp_path):
    """The importance sampler projects the truth onto K* - 1 for its tilt."""
    wl = _workloads().WORKLOADS["lm_mc"]
    spec = tmp_path / "spec.txt"
    spec.write_text(wl.spec_text(1, "tiny", str(tmp_path / "out"))
                    .replace("mode = consistency", "mode = under_exponent"))
    assert _fresh(RUN_SPEC, str(spec)) == {"rc": 0, "run_imported": []}
    assert (tmp_path / "out" / "under_exponent_results.csv").is_file()
