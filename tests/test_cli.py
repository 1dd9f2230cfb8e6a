import json
import re
import time
from pathlib import Path

import pytest

from orderest import fitting, parse_spec
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


@pytest.mark.parametrize("command", ["order", "fit", "campaign"])
def test_commands_fit_k_up_to_k_max(command, spec_file, tmp_path, monkeypatch):
    # order, the default fit and every trial of a campaign ask for K = 1..k_max
    sample = tmp_path / "sample.csv"
    assert main(["simulate", "--spec", spec_file, "--out", str(sample)]) == 0
    asked = []
    real = fitting.fit

    def counting(sample, config, ks, warm=None):
        asked.append(tuple(ks))
        return real(sample, config, ks, warm)

    monkeypatch.setattr(fitting, "fit", counting)
    sample_args = [] if command == "campaign" else ["--sample", str(sample)]
    assert main([command, "--spec", spec_file, *sample_args]) == 0
    assert asked == [(1, 2, 3)] * (5 if command == "campaign" else 1)


def test_fit_single_k(spec_file, tmp_path):
    sample_path = tmp_path / "sample.csv"
    assert main(["simulate", "--spec", spec_file, "--out", str(sample_path)]) == 0
    fit_path = tmp_path / "fit.csv"
    assert main(["fit", "--spec", spec_file, "--sample", str(sample_path), "--k", "3",
                 "--out", str(fit_path)]) == 0
    lines = fit_path.read_text().splitlines()
    assert lines[0] == "K,loglik,converged,iterations" and len(lines) == 2
    assert lines[1].startswith("3,")


def test_fit_k_and_k_top_exclusive(spec_file, tmp_path, capsys):
    sample_path = tmp_path / "sample.csv"
    assert main(["simulate", "--spec", spec_file, "--out", str(sample_path)]) == 0
    with pytest.raises(SystemExit) as exit_info:
        main(["fit", "--spec", spec_file, "--sample", str(sample_path),
              "--k", "2", "--k-top", "5"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "--k-top" in err and "--k " in err
    assert not (tmp_path / "out" / "fit.csv").exists()


@pytest.mark.parametrize("flag, value, line", [
    ("--estimator", "local", "estimator = local"),
    ("--n-grid", "100 300", "n_grid = 100 300"),
    ("--trials", "9", "trials = 9"),
    ("--seed", "5", "seed = 5"),
    ("--k-max", "2", "k_max = 2"),
    ("--output-dir", "elsewhere", "output_dir = elsewhere"),
    ("--schedule", "bic D=dim", "spec = bic D=dim"),
])
def test_override_lands_in_manifest(flag, value, line, spec_file, tmp_path):
    sample_path = tmp_path / "sample.csv"
    assert main(["simulate", "--spec", spec_file, flag, value, "--out", str(sample_path)]) == 0
    spec_text = json.loads(Path(str(sample_path) + ".manifest.json").read_text())["spec_text"]
    assert line in spec_text.splitlines()
    assert parse_spec(spec_text).to_text() == spec_text


@pytest.mark.parametrize("flag, value", [
    ("--schedule", "nonsense"), ("--trials", "many"), ("--n-grid", "300 100"),
    ("--n-grid", "0 5"),
])
def test_bad_override_writes_nothing(flag, value, spec_file, tmp_path, capsys):
    out_dir = tmp_path / "bad"
    assert main(["simulate", "--spec", spec_file, flag, value,
                 "--out", str(out_dir / "sample.csv")]) == 2
    assert not out_dir.exists()
    assert capsys.readouterr().err.startswith("error: ")


def test_entropy_subcommand(spec_file, capsys):
    assert main(["entropy", "--spec", spec_file, "--k-top", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "K,direction,value,method,tol"
    assert out[1].startswith("1,target_to_class,0.125,")
    assert out[3].startswith("2,target_to_class,0,")


@pytest.mark.parametrize("argv", [
    ["fit", "--k-top", "0"], ["fit", "--k-top", "-1"], ["fit", "--k", "0"],
    ["entropy", "--k-top", "0"], ["entropy", "--k-top", "-1"],
], ids=["fit-k-top-0", "fit-k-top-neg", "fit-k-0", "entropy-k-top-0", "entropy-k-top-neg"])
def test_k_below_one_exits_2_and_writes_nothing(argv, spec_file, tmp_path, capsys):
    sample_path = tmp_path / "sample.csv"
    assert main(["simulate", "--spec", spec_file, "--out", str(sample_path)]) == 0
    capsys.readouterr()
    extra = ["--sample", str(sample_path), "--out", str(tmp_path / "fit.csv")] \
        if argv[0] == "fit" else []
    assert main([argv[0], "--spec", spec_file, *argv[1:], *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: orderest {argv[0]} (k_max = 3): K must be >= 1, got {argv[2]}\n"
    assert not (tmp_path / "fit.csv").exists() and not (tmp_path / "out").exists()


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


def test_sample_row_of_the_wrong_width_exits_2(spec_file, tmp_path, capsys):
    sample = tmp_path / "vr.csv"
    sample.write_text("idx,x1,y\n0,0.5,1.0\n1,0.25\n")
    assert main(["fit", "--spec", spec_file, "--sample", str(sample)]) == 2
    assert "line 3: 2 fields" in capsys.readouterr().err


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


AC_SPEC = """
[model]
family = AC
sigma = 1.0
ac_depth_max = 1
theta.kind = ac
theta.tree.r = split 1 0.5
theta.tree.r0 = leaf 0
theta.tree.r1 = leaf 1

[schedule]
spec = bic D=dim

[run]
mode = consistency
n_grid = 50
trials = 2
k_max = 2
output_dir = {out}
"""


@pytest.mark.parametrize("flags", [[], ["--mode", "entropy_table"]])
def test_ac_k_beyond_depth_cap_fails_before_the_campaign(flags, tmp_path, capsys):
    # k_max = 3 needs a depth-2 tree: exit 2 at the spec, before the schedule
    # warning and before any output is written
    path = tmp_path / "ac.spec"
    path.write_text(AC_SPEC.format(out=tmp_path / "out"))
    assert main(["campaign", "--spec", str(path), "--k-max", "3", *flags]) == 2
    err = capsys.readouterr().err
    mode = "entropy_table" if flags else "consistency"
    assert err == f"error: mode={mode} (k_max = 3): K=3 exceeds 2**ac_depth_max = 2\n"
    assert not (tmp_path / "out").exists()


def test_flags_can_mend_a_spec_file(tmp_path):
    # the file alone fits K = 3 at depth 1; the spec is checked as the flags
    # leave it, and k_max = 2 = 2**ac_depth_max is within reach
    path = tmp_path / "ac.spec"
    path.write_text(AC_SPEC.format(out=tmp_path / "out").replace("k_max = 2", "k_max = 3"))
    assert main(["campaign", "--spec", str(path), "--k-max", "2"]) == 0
    assert (tmp_path / "out" / "consistency_results.csv").exists()


@pytest.mark.parametrize("command", [["campaign"], ["order", "--sample", "missing.csv"]],
                         ids=["campaign", "order"])
@pytest.mark.parametrize("schedule, message", [
    ("bic D=dim*nan", "finite weights, got (nan, nan, nan)"),
    ("logpower:inf", "needs a finite eps > 0, got inf"),
    ("power:abc", "bad number 'abc' in schedule token 'power:abc'"),
], ids=["nan-weight", "inf-eps", "bad-number"])
def test_non_finite_schedule_exits_2(command, schedule, message, spec_file, tmp_path, capsys):
    assert main([command[0], "--spec", spec_file, "--schedule", schedule, *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, k", [
    (["order", "--sample", "missing.csv"], 3),
    (["fit", "--sample", "missing.csv"], 3),
    (["fit", "--sample", "missing.csv", "--k-top", "4"], 4),
    (["fit", "--sample", "missing.csv", "--k", "3"], 3),
    (["entropy", "--k-top", "3"], 3),
], ids=["order", "fit", "fit-k-top", "fit-k", "entropy-k-top"])
def test_each_command_checks_its_own_ac_reach(argv, k, tmp_path, capsys):
    # the invariants mode fits nothing, so the spec of k_max = 3 builds at
    # depth 1, but order and the default fit profile to K = 3: each command
    # checks the K it will fit, before the sample is read (missing.csv does
    # not exist)
    path = tmp_path / "ac.spec"
    path.write_text(AC_SPEC.format(out=tmp_path / "out").replace(
        "mode = consistency", "mode = invariants").replace("k_max = 2", "k_max = 3"))
    assert main([argv[0], "--spec", str(path), *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert err == f"error: orderest {argv[0]} (k_max = 3): K={k} exceeds 2**ac_depth_max = 2\n"
    assert not (tmp_path / "out").exists()


def test_ac_fit_within_reach_runs(tmp_path, capsys):
    # k_max = 2 = 2**ac_depth_max: order and the default fit profile to K = 2
    path = tmp_path / "ac.spec"
    path.write_text(AC_SPEC.format(out=tmp_path / "out"))
    sample = tmp_path / "sample.csv"
    assert main(["simulate", "--spec", str(path), "--out", str(sample)]) == 0
    fit = tmp_path / "fit.csv"
    assert main(["fit", "--spec", str(path), "--sample", str(sample),
                 "--out", str(fit)]) == 0
    assert len(fit.read_text().splitlines()) == 3
    order = tmp_path / "order.csv"
    assert main(["order", "--spec", str(path), "--sample", str(sample),
                 "--out", str(order)]) == 0
    assert [line.split(",")[0] for line in order.read_text().splitlines()] == ["K", "1", "2"]
    assert re.fullmatch(r"k_local=[12] k_global=[12]", capsys.readouterr().out.splitlines()[-1])


LM_SPEC = """
[model]
family = LM
sigma = 1.0
theta.kind = lm
theta.weights = 0.5 0.5
theta.means = -1 1

[schedule]
spec = bic D=dim

[run]
mode = consistency
n_grid = 200
trials = 1
k_max = 2
output_dir = {out}
"""


@pytest.mark.parametrize("argv, what, k_max", [
    (["campaign", "--k-max", "65"], "mode=consistency", 65),
    (["order", "--k-max", "65", "--sample", "missing.csv"], "mode=consistency", 65),
    (["fit", "--k-top", "65", "--sample", "missing.csv"], "orderest fit", 2),
], ids=["campaign", "order", "fit-k-top"])
def test_lm_k_beyond_hard_cap_fails_before_any_fit(argv, what, k_max, tmp_path, capsys):
    # K = 65 is past models.K_HARD_CAP: exit 2 at once, before the schedule
    # warning, before the sample is read (missing.csv does not exist) and
    # before any output is written
    path = tmp_path / "lm.spec"
    path.write_text(LM_SPEC.format(out=tmp_path / "out"))
    start = time.perf_counter()
    assert main([argv[0], "--spec", str(path), *argv[1:]]) == 2
    assert time.perf_counter() - start < 2.0
    err = capsys.readouterr().err
    assert err == f"error: {what} (k_max = {k_max}): K=65 exceeds the hard cap 64\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["--k", "100000"], ["--k-top", "65"]], ids=["k", "k-top"])
def test_vr_k_beyond_hard_cap_fails_before_any_fit(argv, spec_file, tmp_path, capsys):
    # a VR fit past models.K_HARD_CAP exits 2 before the sample is read
    # (missing.csv does not exist); --k 100000 once built a 100000-column
    # basis and its 80 GB Gram matrix
    out = tmp_path / "fit.csv"
    assert main(["fit", "--spec", spec_file, "--sample", "missing.csv", *argv,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: orderest fit (k_max = 3): K={argv[1]} exceeds the hard cap 64\n"
    assert not out.exists() and not (tmp_path / "out").exists()
