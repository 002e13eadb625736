"""Monte Carlo estimators for forward uncertainty propagation.

Estimator families:

- ``mc``: standard Monte Carlo and control variates
- ``mlmc``: multilevel Monte Carlo over a model hierarchy, and the
  two-level estimator as its budget-mode special case
- ``mfmc``: multifidelity Monte Carlo over a surrogate ensemble
- ``mmmc``: multimodel Monte Carlo for small-data input uncertainty

plus ``distributions`` (parametric families), ``models`` (model +
cost-ledger abstractions and built-in benchmark problems), and ``rng``
(counter-based reproducible streams).
"""

from . import mmmc
from .distributions import (
    Dataset,
    Distribution,
    Family,
    log_likelihood,
    mle_fit,
    sample,
)
from .mc import ControlVariateConfig, cv_estimate, draw_inputs, mc_estimate
from .mfmc import (
    MfmcPlan,
    PilotStats,
    mfmc_estimate,
    mfmc_plan,
    pilot_statistics,
    validate_ordering,
)
from .mlmc import (
    LevelStats,
    MlmcPlan,
    MlmcResult,
    level_statistics,
    mlmc_allocation,
    mlmc_convergence_test,
    mlmc_estimate,
    two_level_estimate,
)
from .models import (
    CostLedger,
    FidelityEnsemble,
    LevelHierarchy,
    Model,
    ProblemBundle,
    builtin_problem,
    evaluate,
)
from .reports import EstimateReport, Z_975
from .rng import RngStream

__version__ = "0.1.0"

__all__ = [
    "ControlVariateConfig",
    "CostLedger",
    "Dataset",
    "Distribution",
    "EstimateReport",
    "Family",
    "FidelityEnsemble",
    "LevelHierarchy",
    "LevelStats",
    "MfmcPlan",
    "MlmcPlan",
    "MlmcResult",
    "Model",
    "PilotStats",
    "ProblemBundle",
    "RngStream",
    "Z_975",
    "builtin_problem",
    "cv_estimate",
    "draw_inputs",
    "evaluate",
    "level_statistics",
    "log_likelihood",
    "mc_estimate",
    "mfmc_estimate",
    "mfmc_plan",
    "mle_fit",
    "mlmc_allocation",
    "mlmc_convergence_test",
    "mlmc_estimate",
    "mmmc",
    "pilot_statistics",
    "sample",
    "two_level_estimate",
    "validate_ordering",
]
