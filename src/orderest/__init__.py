"""Penalized maximum-likelihood order estimation for nested model families.

Modules:

- models: the three families (LM, AC, VR), parameter types, simulators,
  log-densities and serialization.
- fitting: per-family maximum likelihood (EM / box-constrained least
  squares / guillotine-tree DP) and the per-K profile curve.
- criterion: penalty schedules pen(n, K) = v_n D(K), the penalized criterion,
  the first-local-max and smallest-global-max order estimators (both read by
  estimate_orders from crit at K = 1..K_max), and the finite-grid schedule
  diagnostics.
- entropy: relative entropies, projections onto the classes in both
  directions, and the projection characterizations.
- deviations: Monte Carlo / importance-sampling error probabilities, exponent
  fits, the empirical-process (peeling) inequalities, strong-law traces.
- experiments, cli: the spec-driven experiment runner and command line.
"""

__version__ = "0.1.0"

from .models import (  # noqa: F401
    Family, ModelConfig, Sample, Theta, ThetaAC, ThetaLM, ThetaVR,
    ParameterError, UsageError, Leaf, Split,
    simulate, log_density, log_likelihood, eval_regression_fn,
    embed, true_order, theta_dim, random_theta, rng_for, derive_seed,
)
from .fitting import (  # noqa: F401
    FitResult, ProfileCurve, fit, fit_ac, fit_lm_em, profile,
)
from .criterion import (  # noqa: F401
    OrderEstimate, PenaltySchedule, ScheduleReport, dim_weights, estimate_orders,
    linear_weights, parse_schedule, validate_schedule,
)
from .entropy import (  # noqa: F401
    EntropyValue, kl_divergence, kl_mixture_quadrature, kl_regression,
    project_entropy, pythagorean_residual, reversed_projection_check_vr, stein_bound,
)
from .deviations import (  # noqa: F401
    ErrorProbEstimate, ExponentFit, FitError, PeelingReport, fit_exponent,
    fit_moderate_rate, is_underestimation_prob, mc_error_probs, order_trials,
    peeling_assert, slln_trace, wilson_interval,
)
from .experiments import ExperimentSpec, parse_spec, run  # noqa: F401
