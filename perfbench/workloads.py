"""The frozen campaign specs the benchmark runs, and the layers each one must reach.

Every workload is one `orderest campaign` spec.  The benchmark's --seed becomes
the spec's `seed`, so the program sees nothing but the spec.  The
exceptions are the timed parts of lm_mc and ac_mc (see `timed_seed`).
"""

from __future__ import annotations

from dataclasses import dataclass

# Seed of lm_mc's and ac_mc's timed inputs, and the seed the smoke test runs at.
DEFAULT_SEED = 1

SIZES = ("full", "tiny")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    model: str  # body of the [model] section
    schedule: str
    mode: str
    n_grid: tuple[int, ...]
    trials: dict[str, int]  # per size
    k_max: int
    k_star: int  # true order of the spec's theta
    # wrapped functions (tracer.LAYERS names) this workload must call
    layers: tuple[str, ...]
    # entering one of these starts a new op in the span records
    op_roots: tuple[str, ...]
    # When set, timed repetitions run at this seed instead of --seed, and
    # --seed drives an extra tiny-size campaign that only feeds the
    # correctness gate.  Used where the cost of one op varies so much across
    # datasets that no run short enough for the time budget is steady.
    timed_seed: int | None = None

    def spec_text(self, seed: int, size: str, output_dir: str) -> str:
        return (f"[model]\n{self.model}\n\n[schedule]\nspec = {self.schedule}\n\n"
                f"[run]\nmode = {self.mode}\nestimator = global\n"
                f"n_grid = {' '.join(map(str, self.n_grid))}\n"
                f"trials = {self.trials[size]}\nseed = {seed}\nk_max = {self.k_max}\n"
                f"output_dir = {output_dir}\n")

    def ops(self, size: str) -> int:
        """Ops in one campaign: MC trials, or entropy-table rows."""
        if self.mode == "entropy_table":
            return 2 * self.k_max
        return self.trials[size] * len(self.n_grid)


_TRIAL_LAYERS = ("models.simulate", "models.log_likelihood", "fitting.profile",
                 "criterion.crit_values", "experiments.run", "experiments.write_artifact")

WORKLOADS = {w.name: w for w in (
    Workload(
        name="vr_is",
        why="VR importance-sampling campaign: ~1 ms trials, so per-call overhead in "
            "simulate/profile/loglik dominates; no EM, tree DP or quadrature",
        model="family = VR\nsigma = 1.0\nm_lo = -2.0\nm_hi = 2.0\n"
              "theta.kind = vr\ntheta.coeffs = 1.0 0.5",
        schedule="bic D=dim*0.05", mode="under_exponent",
        n_grid=(100, 200, 400, 600, 800), trials={"full": 300, "tiny": 25},
        k_max=3, k_star=2,
        layers=_TRIAL_LAYERS + ("entropy.project_entropy",
                                "deviations.is_underestimation_prob"),
        op_roots=("models.simulate",)),
    Workload(
        name="lm_mc",
        why="LM plain-MC consistency campaign: multi-start EM and its logsumexp "
            "take ~99% of the time; timed on fixed inputs, --seed drives a gate campaign",
        model="family = LM\nsigma = 1.0\nm_lo = -2.0\nm_hi = 2.0\n"
              "theta.kind = lm\ntheta.weights = 0.5 0.5\ntheta.means = -2 2",
        schedule="bic D=dim", mode="consistency",
        n_grid=(100, 200), trials={"full": 3, "tiny": 1}, k_max=3, k_star=2,
        layers=_TRIAL_LAYERS + ("fitting.fit_lm_em", "deviations.mc_error_probs",
                                "deviations.order_trials"),
        op_roots=("models.simulate",),
        # one LM trial costs 0.04-1.8 s depending on its data (CV ~0.9 over
        # 50 trials); a steady figure would need ~300 trials per run
        timed_seed=DEFAULT_SEED),
    Workload(
        name="ac_mc",
        why="AC plain-MC consistency campaign: the guillotine tree DP and its "
            "memo take ~100% of time and memory; timed on fixed inputs, --seed drives "
            "a gate campaign",
        model="family = AC\nsigma = 1.0\nm_lo = -2.0\nm_hi = 2.0\nac_depth_max = 2\n"
              "theta.kind = ac\ntheta.tree.r = split 1 0.5\n"
              "theta.tree.r0 = leaf 0\ntheta.tree.r1 = leaf 1",
        schedule="bic D=dim", mode="consistency",
        n_grid=(100,), trials={"full": 4, "tiny": 1}, k_max=3, k_star=2,
        layers=_TRIAL_LAYERS + ("fitting.fit_ac", "guillotine.fit_tree_empirical",
                                "deviations.mc_error_probs", "deviations.order_trials"),
        op_roots=("models.simulate",),
        # the median rate of a 6-trial campaign ranged 0.68-0.85 ops/s over
        # seeds 0-9 while repetitions at one seed stayed within ~5%
        timed_seed=DEFAULT_SEED),
    Workload(
        name="lm_entropy",
        why="LM entropy table: L-BFGS projections over wide quadrature grids, the "
            "mixture log-density on 4800 nodes instead of ~100 points",
        model="family = LM\nsigma = 1.0\nm_lo = -2.0\nm_hi = 2.0\n"
              "theta.kind = lm\ntheta.weights = 0.3 0.4 0.3\ntheta.means = -2 0 2",
        schedule="bic D=dim", mode="entropy_table",
        n_grid=(100,), trials={"full": 1, "tiny": 1}, k_max=3, k_star=3,
        layers=("entropy.project_entropy", "entropy.stein_bound",
                "entropy.kl_mixture_quadrature", "experiments.run",
                "experiments.write_artifact"),
        op_roots=("entropy.project_entropy", "entropy.stein_bound")),
)}
