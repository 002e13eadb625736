"""Standard Monte Carlo and control variates.

Substream layout shared by both estimators: split(0) draws the main
sample and split(1) the control-variate pilot, so a control-variate run
draws the same main sample as ``mc_estimate`` on the same stream.  The
two-level estimator is MLMC with one correction and lives in ``mlmc``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import Distribution
from .exceptions import EstimatorError, InvalidParameterError
from .models import CostLedger, Model, evaluate
from .reports import EstimateReport
from .rng import RngStream

_MAIN, _PILOT = 0, 1


def draw_inputs(dist: Distribution, rng: RngStream, n: int, dim: int = 1) -> np.ndarray:
    """(n, dim) i.i.d. input matrix; row i consumes draw indices
    [i*dim, (i+1)*dim), so each row is reproducible in isolation."""
    return dist.ppf(rng.uniforms(n * dim)).reshape(n, dim)


def mc_estimate(
    model: Model,
    input: Distribution,
    n: int,
    rng: RngStream,
    ledger: CostLedger | None = None,
) -> EstimateReport:
    """Plain Monte Carlo mean estimate with its CLT error estimate.

    The sampling-variance estimate uses the unbiased 1/(n-1) form; the
    biased 1/n variant is reported as a diagnostic.
    """
    if n < 2:
        raise InvalidParameterError("mc_estimate needs n >= 2 for a variance estimate")
    ledger = ledger if ledger is not None else CostLedger()
    x = draw_inputs(input, rng.split(_MAIN), n, model.input_dim)
    y = evaluate(model, x, ledger)
    s_hat = float(np.mean(y))
    zeta_sq = float(np.var(y, ddof=1))
    return EstimateReport(
        estimate=s_hat,
        estimator_variance=zeta_sq / n,
        n_per_model={model.id: n},
        total_cost=ledger.total(),
        seed=rng.seed,
        method="mc",
        diagnostics={
            "zeta_sq": zeta_sq,
            "zeta_sq_biased": float(np.var(y)),
        },
    )


@dataclass(frozen=True)
class ControlVariateConfig:
    """Control model with known mean; coefficient fixed or fit on a pilot."""

    control: Model
    control_mean: float
    coef: float | str = "auto"
    pilot_n: int = 100

    def __post_init__(self):
        if isinstance(self.coef, str) and self.coef != "auto":
            raise InvalidParameterError("coef must be a number or 'auto'")
        if self.coef == "auto" and self.pilot_n < 2:
            raise InvalidParameterError("auto coefficient needs pilot_n >= 2")


def cv_estimate(
    model: Model,
    input: Distribution,
    cfg: ControlVariateConfig,
    n: int,
    rng: RngStream,
    ledger: CostLedger | None = None,
) -> EstimateReport:
    """Control-variates estimate of E[model] using a control with known mean.

    With coef='auto' the coefficient is the sample regression slope
    rho * sqrt(V[model]/V[control]) from a dedicated pilot whose samples
    are not reused in the main estimate (reuse would bias it); pilot cost
    is charged.
    """
    if n < 2:
        raise InvalidParameterError("cv_estimate needs n >= 2")
    if model.input_dim != cfg.control.input_dim:
        raise InvalidParameterError("model and control must share input_dim")
    ledger = ledger if ledger is not None else CostLedger()

    lam = cfg.coef
    rho_hat = None
    if lam == "auto":
        xp = draw_inputs(input, rng.split(_PILOT), cfg.pilot_n, model.input_dim)
        yp = evaluate(model, xp, ledger)
        gp = evaluate(cfg.control, xp, ledger)
        var_g = float(np.var(gp, ddof=1))
        if var_g == 0.0:
            raise EstimatorError("control variate is constant on the pilot sample")
        cov = float(np.cov(yp, gp, ddof=1)[0, 1])
        lam = cov / var_g
        var_y = float(np.var(yp, ddof=1))
        rho_hat = cov / np.sqrt(var_y * var_g) if var_y > 0.0 else 0.0
    lam = float(lam)

    x = draw_inputs(input, rng.split(_MAIN), n, model.input_dim)
    y = evaluate(model, x, ledger)
    g = evaluate(cfg.control, x, ledger)
    adjusted = y - lam * (g - cfg.control_mean)
    s_hat = float(np.mean(adjusted))
    zeta_sq = float(np.var(adjusted, ddof=1))
    per_model = n + (cfg.pilot_n if cfg.coef == "auto" else 0)
    n_per_model: dict[str, int] = {}
    for m in (model, cfg.control):
        n_per_model[m.id] = n_per_model.get(m.id, 0) + per_model
    return EstimateReport(
        estimate=s_hat,
        estimator_variance=zeta_sq / n,
        n_per_model=n_per_model,
        total_cost=ledger.total(),
        seed=rng.seed,
        method="cv",
        diagnostics={
            "lambda": lam,
            "rho_pilot": rho_hat,
            "zeta_sq": zeta_sq,
            "zeta_sq_biased": float(np.var(adjusted)),
        },
    )

