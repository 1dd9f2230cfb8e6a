import json
import re

import pytest
from hypothesis import assume, given, strategies as st

from orderest import (
    ExperimentSpec, Family, Leaf, ModelConfig, Split, ThetaAC, ThetaLM, ThetaVR, UsageError,
    parse_spec, run,
)
from orderest.deviations import ESTIMATORS
from orderest import entropy
from orderest.experiments import MODES, entropy_table, git_blob_sha1, invariant_suite

SPEC_TEXT = """
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
mode = entropy_table
estimator = global
n_grid = 500 1000
trials = 50
seed = 123
k_max = 3
output_dir = {out}
"""


def spec_for(tmp_path, **overrides) -> ExperimentSpec:
    spec = parse_spec(SPEC_TEXT.format(out=tmp_path / "out"))
    if overrides:
        from dataclasses import replace
        spec = replace(spec, **overrides)
    return spec


@pytest.fixture(scope="module")
def invariant_results():
    """invariant_suite(seed=0), run once (~15 s) for every test that reads it."""
    return invariant_suite(seed=0)


# finite floats of every size, most of them needing all 17 significant digits
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def specs(draw):
    family = draw(st.sampled_from(list(Family)))
    values = draw(st.lists(FINITE, min_size=2, max_size=5))
    lo, hi = min(values), max(values)
    if family is Family.VR:
        lo, hi = min(lo, 0.0), max(hi, 0.0)
    assume(lo < hi)
    if family is Family.LM:
        raw = draw(st.lists(st.floats(1e-3, 1e3), min_size=len(values), max_size=len(values)))
        theta = ThetaLM(tuple(w / sum(raw) for w in raw), tuple(values))
    elif family is Family.VR:
        theta = ThetaVR(tuple(values))
    else:
        cut = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
        theta = ThetaAC(Split(draw(st.sampled_from([1, 2])), cut, Leaf(values[0]),
                              Leaf(values[1])))
    mode, k_max = draw(st.sampled_from(MODES)), draw(st.integers(1, 8))
    # an AC tree of depth d holds the largest K the mode fits only if 2**d >= K
    k_top = 1 if mode == "invariants" else k_max
    depth_min = (k_top - 1).bit_length() if family is Family.AC else 1
    config = ModelConfig(family, sigma=draw(st.floats(0.0, exclude_min=True,
                                                      allow_infinity=False)),
                         m_lo=lo, m_hi=hi, ac_depth_max=draw(st.integers(max(1, depth_min), 8)))
    return ExperimentSpec(
        config=config, theta_star=theta,
        schedule_spec=draw(st.sampled_from(["bic D=dim", "power:0.25 D=linear*0.5",
                                            "logpower:0.1 D=dim*0.05", "iterlog"])),
        estimator=draw(st.sampled_from(ESTIMATORS)),
        n_grid=tuple(sorted(draw(st.sets(st.integers(1, 10 ** 9), min_size=1, max_size=5)))),
        trials=draw(st.integers(1, 10 ** 9)), seed=draw(st.integers(-2 ** 63, 2 ** 63)),
        output_dir=draw(st.text("abcXYZ019_-./", min_size=1, max_size=20)),
        mode=mode, k_max=k_max)


@given(specs())
def test_spec_text_round_trip(spec):
    assert parse_spec(spec.to_text()) == spec


class TestParseSpec:
    def test_minimal_round_trip(self, tmp_path):
        spec = spec_for(tmp_path)
        assert spec.config == ModelConfig(Family.VR, sigma=1.0)
        assert spec.theta_star == ThetaVR((1.0, 0.5))
        assert spec.n_grid == (500, 1000)
        assert parse_spec(spec.to_text()) == spec

    def test_text_format_pinned(self):
        # spec_hash in every manifest hashes this text: key order, defaults
        # written out and 17-digit floats must not drift
        text = SPEC_TEXT.format(out="out").replace("1.0 0.5", "1.0 0.1")
        assert parse_spec(text).to_text() == (
            "[model]\n"
            "family = VR\n"
            "sigma = 1\n"
            "m_lo = -2\n"
            "m_hi = 2\n"
            "ac_depth_max = 4\n"
            "theta.kind = vr\n"
            "theta.coeffs = 1 0.10000000000000001\n"
            "\n"
            "[schedule]\n"
            "spec = power:0.4 D=dim\n"
            "\n"
            "[run]\n"
            "mode = entropy_table\n"
            "estimator = global\n"
            "n_grid = 500 1000\n"
            "trials = 50\n"
            "seed = 123\n"
            "k_max = 3\n"
            "output_dir = out\n")

    def test_round_trip_all_families(self, tmp_path):
        base = spec_for(tmp_path)
        from dataclasses import replace
        from orderest import Leaf, Split, ThetaAC, ThetaLM
        variants = [
            replace(base, config=ModelConfig(Family.LM, sigma=0.5, m_lo=-3, m_hi=3),
                    theta_star=ThetaLM((0.25, 0.75), (-1.0, 2.0)),
                    schedule_spec="bic D=dim*0.05", mode="consistency", trials=7),
            replace(base, config=ModelConfig(Family.AC, sigma=1.0, ac_depth_max=2),
                    theta_star=ThetaAC(Split(2, 0.25, Leaf(0.0), Leaf(1.0))),
                    estimator="local"),
        ]
        for spec in variants:
            assert parse_spec(spec.to_text()) == spec

    def test_unknown_key_named(self):
        text = SPEC_TEXT.format(out="x").replace("trials = 50", "trails = 50")
        with pytest.raises(UsageError, match="trails"):
            parse_spec(text)

    def test_duplicate_key(self):
        text = SPEC_TEXT.format(out="x").replace("seed = 123", "seed = 123\nseed = 4")
        with pytest.raises(UsageError, match="duplicate"):
            parse_spec(text)

    def test_missing_section(self):
        with pytest.raises(UsageError, match="schedule"):
            parse_spec("[model]\nfamily = VR\ntheta.kind = vr\ntheta.coeffs = 1.0\n"
                       "[run]\nmode = consistency\n")

    def test_type_mismatch(self):
        text = SPEC_TEXT.format(out="x").replace("trials = 50", "trials = many")
        with pytest.raises(UsageError):
            parse_spec(text)

    def test_zero_trials_rejected_for_mc_modes(self, tmp_path):
        with pytest.raises(UsageError):
            spec_for(tmp_path, mode="consistency", trials=0)

    def test_decreasing_grid_rejected(self, tmp_path):
        with pytest.raises(UsageError):
            spec_for(tmp_path, n_grid=(100, 50))

    @pytest.mark.parametrize("mode", MODES)
    def test_grid_below_one_rejected(self, tmp_path, mode):
        with pytest.raises(UsageError, match=re.escape("n_grid entries must be >= 1, got 0")):
            spec_for(tmp_path, mode=mode, n_grid=(0, 5))

    # k_max in the cap tests below is the largest a spec accepts: every mode
    # but invariants fits K = 1..k_max, so k_max + 1 is refused

    @pytest.mark.parametrize("mode, k_max", [("consistency", 64), ("entropy_table", 64)])
    def test_lm_k_beyond_hard_cap_rejected(self, tmp_path, mode, k_max):
        # an LM mixture has at most models.K_HARD_CAP = 64 components
        lm = dict(config=ModelConfig(Family.LM, sigma=1.0),
                  theta_star=ThetaLM((0.5, 0.5), (-1.0, 1.0)), mode=mode)
        spec_for(tmp_path, k_max=k_max, **lm)
        with pytest.raises(UsageError, match="^" + re.escape(
                f"mode={mode} (k_max = 65): K=65 exceeds the hard cap 64") + "$"):
            spec_for(tmp_path, k_max=k_max + 1, **lm)

    @pytest.mark.parametrize("mode, k_max", [("consistency", 64), ("entropy_table", 64)])
    def test_vr_k_beyond_hard_cap_rejected(self, tmp_path, mode, k_max):
        # so is a VR expansion: a spec past the cap once fitted a basis of that width
        spec_for(tmp_path, k_max=k_max, mode=mode)
        with pytest.raises(UsageError, match="^" + re.escape(
                f"mode={mode} (k_max = 65): K=65 exceeds the hard cap 64") + "$"):
            spec_for(tmp_path, k_max=k_max + 1, mode=mode)

    @pytest.mark.parametrize("mode, k_max", [("consistency", 2), ("under_exponent", 2),
                                             ("over_rate", 2), ("entropy_table", 2)])
    def test_ac_k_beyond_depth_cap_rejected(self, tmp_path, mode, k_max):
        # depth 1 holds 2 leaves
        ac = dict(config=ModelConfig(Family.AC, sigma=1.0, ac_depth_max=1),
                  theta_star=ThetaAC(Split(1, 0.5, Leaf(0.0), Leaf(1.0))), mode=mode)
        spec_for(tmp_path, k_max=k_max, **ac)
        with pytest.raises(UsageError, match="^" + re.escape(
                f"mode={mode} (k_max = 3): K=3 exceeds 2**ac_depth_max = 2") + "$"):
            spec_for(tmp_path, k_max=k_max + 1, **ac)

    @pytest.mark.parametrize("family, theta, key", [
        ("VR", "theta.kind = vr\ntheta.coeffs = 1 x", "theta.coeffs"),
        ("LM", "theta.kind = lm\ntheta.weights = 0.5 y\ntheta.means = 0 1", "theta.weights"),
        ("LM", "theta.kind = lm\ntheta.weights = 0.5 0.5\ntheta.means = 0 z", "theta.means"),
        ("AC", "theta.kind = ac\ntheta.tree.r = split x 0.5\n"
               "theta.tree.r0 = leaf 0\ntheta.tree.r1 = leaf 1", "theta.tree.r"),
        ("AC", "theta.kind = ac\ntheta.tree.r = split 1 0.5\n"
               "theta.tree.r0 = leaf 0\ntheta.tree.r1 = leaf w", "theta.tree.r1"),
        ("AC", "theta.kind = ac\ntheta.tree.r = split 3 0.5\n"
               "theta.tree.r0 = leaf 0\ntheta.tree.r1 = leaf 1", "theta.tree.r"),
    ])
    def test_bad_theta_value_names_key(self, family, theta, key):
        text = (SPEC_TEXT.format(out="x").replace("family = VR", f"family = {family}")
                .replace("theta.kind = vr\ntheta.coeffs = 1.0 0.5", theta))
        with pytest.raises(UsageError, match=re.escape(f"bad [model] value for {key}: ")):
            parse_spec(text)

    def test_theta_outside_box_rejected_at_parse(self):
        text = SPEC_TEXT.format(out="x").replace("theta.coeffs = 1.0 0.5",
                                                 "theta.coeffs = 9.0 0.5")
        with pytest.raises(Exception, match="outside"):
            parse_spec(text)


class TestRun:
    def test_entropy_table_values(self, tmp_path):
        spec = spec_for(tmp_path, output_dir=str(tmp_path / "out"))
        assert run(spec) == 0
        content = (tmp_path / "out" / "entropy_table_results.csv").read_text()
        lines = content.splitlines()
        assert lines[0] == "K,direction,value,method,tol"
        k1 = [ln for ln in lines if ln.startswith("1,")]
        assert any("0.125" in ln for ln in k1)
        k2 = [ln for ln in lines if ln.startswith("2,")]
        assert all(",0," in ln for ln in k2)

    @pytest.mark.parametrize("config, target, projections", [
        (ModelConfig(Family.VR, sigma=1.0), ThetaVR((1.0, 0.5, 0.25)), 1),
        (ModelConfig(Family.AC, sigma=1.0, ac_depth_max=2),
         ThetaAC(Split(1, 0.5, Split(2, 0.5, Leaf(0.0), Leaf(0.5)), Leaf(1.0))), 1),
        (ModelConfig(Family.LM, sigma=1.0), ThetaLM((0.5, 0.5), (-1.0, 1.0)), 2),
    ], ids=["VR", "AC", "LM"])
    def test_entropy_table_projects_once_where_directions_coincide(
            self, config, target, projections, tmp_path, monkeypatch):
        # for the regression families stein_bound equals project_entropy (the
        # L2 identity), so one projection serves both rows; LM projects twice
        calls = []
        project = entropy._project
        monkeypatch.setattr(entropy, "_project",
                            lambda *a, **kw: calls.append(1) or project(*a, **kw))
        table = entropy_table(spec_for(tmp_path, config=config, theta_star=target), 3)
        rows = [line.split(",") for line in table.splitlines()[1:]]
        assert len(calls) == projections and len(rows) == 6
        if projections == 1:
            assert [r[2:] for r in rows[0::2]] == [r[2:] for r in rows[1::2]]

    def test_reruns_byte_identical(self, tmp_path):
        spec = spec_for(tmp_path, mode="consistency", trials=5, n_grid=(120,),
                        output_dir=str(tmp_path / "a"))
        run(spec)
        first = (tmp_path / "a" / "consistency_results.csv").read_bytes()
        run(spec)
        assert (tmp_path / "a" / "consistency_results.csv").read_bytes() == first

    def test_manifest_suffices_to_rerun(self, tmp_path):
        spec = spec_for(tmp_path, mode="consistency", trials=5, n_grid=(120,),
                        output_dir=str(tmp_path / "b"))
        run(spec)
        manifest = json.loads(
            (tmp_path / "b" / "consistency_results.csv.manifest.json").read_text())
        assert manifest["spec_hash"] == git_blob_sha1(manifest["spec_text"].encode())
        replay = parse_spec(manifest["spec_text"])
        assert replay == spec

    def test_results_header(self, tmp_path):
        spec = spec_for(tmp_path, mode="consistency", trials=5, n_grid=(120,),
                        output_dir=str(tmp_path / "c"))
        run(spec)
        content = (tmp_path / "c" / "consistency_results.csv").read_text()
        assert content.splitlines()[0] == \
            "n,trials,p_under,p_over,p_correct,ci_lo,ci_hi,method,ess"
        assert content.endswith("\n") and "\r" not in content

    def test_under_exponent_mode(self, tmp_path):
        spec = spec_for(tmp_path, mode="under_exponent", trials=200,
                        n_grid=(100, 150, 200), schedule_spec="bic D=dim*0.05",
                        output_dir=str(tmp_path / "d"))
        assert run(spec) == 0
        assert (tmp_path / "d" / "under_exponent_results.csv").exists()
        assert (tmp_path / "d" / "under_exponent_fit.csv").exists()
        fit_lines = (tmp_path / "d" / "under_exponent_fit.csv").read_text().splitlines()
        assert fit_lines[0] == "x,neg_log_p"

    def test_low_ess_rows_warn_on_stderr(self, tmp_path, capsys):
        # 4 trials give an effective sample size below 10 at every n
        spec = spec_for(tmp_path, mode="under_exponent", trials=4, n_grid=(60, 90),
                        schedule_spec="bic D=dim*0.05", output_dir=str(tmp_path / "e"))
        assert run(spec) == 0
        err = capsys.readouterr().err.splitlines()
        rows = (tmp_path / "e" / "under_exponent_results.csv").read_text().splitlines()[1:]
        warned = [line for line in err if line.startswith("warning: importance sampling")]
        assert len(warned) == len(rows) == 2
        for line, row in zip(warned, rows):
            n, ess = row.split(",")[0], float(row.split(",")[-1])
            assert f"at n={n} " in line and f"size {ess:.3g} of 4 trials" in line

    def test_invariants_mode(self, tmp_path, capsys, monkeypatch, invariant_results):
        from orderest import experiments
        seeds = []
        monkeypatch.setattr(experiments, "invariant_suite",
                            lambda seed: seeds.append(seed) or invariant_results)
        spec = spec_for(tmp_path, mode="invariants", seed=0)
        assert run(spec) == 0
        assert seeds == [0]
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 4


class TestInvariantSuite:
    def test_all_pass(self, invariant_results):
        results = invariant_results
        names = [name for name, _, _ in results]
        assert names == ["kl_nonnegativity", "em_monotonicity",
                         "profile_monotonicity", "peeling"]
        assert all(ok for _, ok, _ in results)
