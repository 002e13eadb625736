"""Standard Monte Carlo, control variates, and the two-level estimator.

Substream layout shared by all estimators in this module: split(0) draws
the main sample, split(1) the pilot, split(2)/split(3) the independent
term samples of the two-level estimator.  Estimators that degenerate to
plain MC therefore reproduce ``mc_estimate`` bit for bit on the same
stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import Distribution
from .exceptions import BudgetError, EstimatorError, InvalidParameterError
from .models import CostLedger, Model, evaluate
from .reports import EstimateReport
from .rng import RngStream

_MAIN, _PILOT, _TERM0, _TERM1 = 0, 1, 2, 3


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


def two_level_estimate(
    coarse: Model,
    fine: Model,
    input: Distribution,
    budget: float,
    rng: RngStream,
    ledger: CostLedger | None = None,
    pilot_n: int = 50,
    coarsen=None,
) -> EstimateReport:
    """Two-term estimator: coarse mean plus a coupled fine-minus-coarse
    correction, with the budget split by the variance/cost ratio rule
    N1/N0 = sqrt(V1/C1) / sqrt(V0/C0).

    ``coarsen`` maps fine-level inputs onto coarse-level inputs when the
    two models have different input dimensions.
    """
    if coarse.input_dim != fine.input_dim and coarsen is None:
        raise InvalidParameterError("differing input dims need a coarsen map")
    ledger = ledger if ledger is not None else CostLedger()
    c0 = coarse.cost_per_eval
    c1 = fine.cost_per_eval + coarse.cost_per_eval

    def coupled(stream: RngStream, m: int) -> tuple[np.ndarray, np.ndarray]:
        x = draw_inputs(input, stream, m, fine.input_dim)
        xc = x if coarsen is None else coarsen(x)
        yf = evaluate(fine, x, ledger)
        yc = evaluate(coarse, xc, ledger)
        return yc, yf - yc

    pilot_cost = pilot_n * c1
    if budget < pilot_cost + 2 * c0 + 2 * c1:
        raise BudgetError(
            f"budget {budget} cannot cover a {pilot_n}-sample pilot plus 2 samples per term"
        )
    y0p, d1p = coupled(rng.split(_PILOT), pilot_n)
    v0 = float(np.var(y0p, ddof=1))
    v1 = float(np.var(d1p, ddof=1))
    remaining = budget - pilot_cost

    flags = []
    if v1 == 0.0:
        # Fine and coarse agree sample-for-sample: the correction carries no
        # information, so spend everything on the coarse term.
        flags.append("zero_correction_variance")
        n0 = max(2, int(remaining // c0))
        x = draw_inputs(input, rng.split(_TERM0), n0, fine.input_dim)
        xc = x if coarsen is None else coarsen(x)
        y = evaluate(coarse, xc, ledger)
        s_hat = float(np.mean(y))
        est_var = float(np.var(y, ddof=1)) / n0
        n1 = 0
    else:
        ratio = np.sqrt(v1 / c1) / np.sqrt(v0 / c0) if v0 > 0.0 else np.inf
        if np.isinf(ratio):
            n0_f, n1_f = 2.0, (remaining - 2 * c0) / c1
        else:
            n0_f = remaining / (c0 + ratio * c1)
            n1_f = ratio * n0_f
        n0 = max(2, int(n0_f))
        n1 = max(2, int(n1_f))
        if n0 * c0 + n1 * c1 > remaining:
            raise BudgetError("budget too small for 2 samples per term after the pilot")
        # Leftover buys extra coarse samples (always the cheaper term).
        n0 += int((remaining - n0 * c0 - n1 * c1) // c0)

        x0 = draw_inputs(input, rng.split(_TERM0), n0, fine.input_dim)
        x0c = x0 if coarsen is None else coarsen(x0)
        y0 = evaluate(coarse, x0c, ledger)
        _, d1 = coupled(rng.split(_TERM1), n1)
        s_hat = float(np.mean(y0) + np.mean(d1))
        est_var = float(np.var(y0, ddof=1)) / n0 + float(np.var(d1, ddof=1)) / n1

    return EstimateReport(
        estimate=s_hat,
        estimator_variance=est_var,
        n_per_model={
            coarse.id: pilot_n + n0 + n1,
            fine.id: pilot_n + n1,
        },
        total_cost=ledger.total(),
        seed=rng.seed,
        method="two_level",
        diagnostics={
            "pilot_v0": v0,
            "pilot_v1": v1,
            "n0": n0,
            "n1": n1,
            "flags": flags,
        },
    )
