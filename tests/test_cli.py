import json
from pathlib import Path

import pytest

from orderest.cli import main

SPEC = """
[model]
family = VR
sigma = 1.0
m_lo = -2.0
m_hi = 2.0
theta.kind = vr
theta.coeffs = 1.0 0.5

[schedule]
spec = power:0.4 D=dim

[run]
mode = consistency
estimator = global
n_grid = 200
trials = 5
seed = 77
k_max = 3
output_dir = {out}
"""


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "exp.spec"
    path.write_text(SPEC.format(out=tmp_path / "out"))
    return str(path)


def test_simulate_then_fit_then_order(spec_file, tmp_path, capsys):
    sample_path = tmp_path / "sample.csv"
    assert main(["simulate", "--spec", spec_file, "--n", "300",
                 "--out", str(sample_path)]) == 0
    assert sample_path.exists()
    assert Path(str(sample_path) + ".manifest.json").exists()
    header = sample_path.read_text().splitlines()[0]
    assert header == "idx,x1,y"

    fit_path = tmp_path / "profile.csv"
    assert main(["fit", "--spec", spec_file, "--sample", str(sample_path),
                 "--k-top", "4", "--out", str(fit_path)]) == 0
    lines = fit_path.read_text().splitlines()
    assert lines[0] == "K,loglik,converged,iterations" and len(lines) == 5

    assert main(["order", "--spec", spec_file, "--sample", str(sample_path),
                 "--out", str(tmp_path / "order.csv")]) == 0
    out = capsys.readouterr().out
    assert "k_local=2" in out and "k_global=2" in out


def test_entropy_subcommand(spec_file, capsys):
    assert main(["entropy", "--spec", spec_file, "--k-top", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "K,direction,value,method,tol"
    assert out[1].startswith("1,target_to_class,0.125,")
    assert out[3].startswith("2,target_to_class,0,")


def test_campaign_consistency(spec_file, tmp_path, capsys):
    assert main(["campaign", "--spec", spec_file]) == 0
    results = tmp_path / "out" / "consistency_results.csv"
    assert results.exists()
    manifest = json.loads(Path(str(results) + ".manifest.json").read_text())
    assert "spec_text" in manifest and "spec_hash" in manifest


def test_campaign_mode_override(spec_file, tmp_path):
    assert main(["campaign", "--spec", spec_file, "--mode", "entropy_table"]) == 0
    assert (tmp_path / "out" / "entropy_table_results.csv").exists()


def test_bad_spec_reports_error(tmp_path, capsys):
    bad = tmp_path / "bad.spec"
    bad.write_text(SPEC.format(out=tmp_path).replace("trials", "trails"))
    assert main(["campaign", "--spec", str(bad)]) == 2
    assert "trails" in capsys.readouterr().err


def test_family_mismatch_between_spec_and_sample(spec_file, tmp_path, capsys):
    lm_sample = tmp_path / "lm.csv"
    lm_sample.write_text("idx,z\n0,0.5\n1,-0.25\n")
    assert main(["fit", "--spec", spec_file, "--sample", str(lm_sample)]) == 2
    assert "does not match" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["invariants", "--seed", "3"],
    ["campaign", "--spec", None, "--mode", "invariants"],
])
def test_invariant_failure_exits_nonzero(argv, spec_file, monkeypatch, capsys):
    from orderest import experiments
    monkeypatch.setattr(experiments, "invariant_suite",
                        lambda seed: [("kl_nonnegativity", True, "fine"),
                                      ("peeling", False, "violation for VR dataset 0")])
    argv = [spec_file if a is None else a for a in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "[PASS] kl_nonnegativity: fine" in captured.out
    assert "[FAIL] peeling: violation for VR dataset 0" in captured.out
    assert "invariant suite failed: peeling" in captured.err
