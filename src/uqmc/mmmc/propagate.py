"""Importance-sampling estimation and single-loop multimodel propagation.

One sample set drawn from the optimal mixture is pushed through the
model once; every candidate input distribution is then served by
reweighting those outputs with its density ratio, so the model
evaluation count is n regardless of how many candidates there are.
Cached samples also let new candidate sets (e.g. after more data
arrives) be propagated with zero new model evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import EstimatorError, InvalidParameterError
from ..models import CostLedger, Model, evaluate
from ..reports import EstimateReport
from ..rng import RngStream
from .ensemble import CandidateModelSet
from .mixture import MixtureDensity

_MAIN = 0


def _who(candidate: int | None) -> str:
    return "" if candidate is None else f" for candidate {candidate}"


def _check_support(
    target, q_support: tuple[float, float], candidate: int | None = None
) -> None:
    t_lo, t_hi = target.support()
    q_lo, q_hi = q_support
    if t_lo < q_lo or t_hi > q_hi:
        raise EstimatorError(
            f"target{_who(candidate)} support ({t_lo}, {t_hi}) not contained in "
            f"proposal support ({q_lo}, {q_hi})"
        )


def _importance_weights(
    target, x: np.ndarray, log_q: np.ndarray, candidate: int | None = None
) -> np.ndarray:
    """Density ratios target/proposal at the proposal draws ``x``, given the
    proposal's log density ``log_q`` there.  A NaN or +inf weight aborts,
    naming the first offending sample (and the candidate, if given)."""
    log_w = np.asarray(target.logpdf(x)) - log_q
    bad = np.flatnonzero(~(np.isfinite(log_w) | (log_w == -np.inf)))
    if bad.size:
        i = int(bad[0])
        raise EstimatorError(
            f"non-finite importance weight{_who(candidate)} at sample {i} (x={x[i]!r}); "
            "proposal support does not cover the target"
        )
    return np.exp(log_w)


def effective_sample_count(w: np.ndarray) -> float:
    s = float(np.sum(w))
    ss = float(np.sum(w * w))
    return s * s / ss if ss > 0.0 else 0.0


def is_estimate(
    model: Model,
    target,
    proposal,
    n: int,
    rng: RngStream,
    ledger: CostLedger | None = None,
) -> EstimateReport:
    """Importance-sampling estimate of E_target[model] from proposal draws.

    Both densities are normalized by construction, so the plain density
    ratio is used (no self-normalization) and the estimator stays
    unbiased.  The effective sample count is reported to expose weight
    degeneracy.

    The zero-variance proposal proportional to |model| * target exists in
    theory but requires the very expectation being estimated, so it is
    never constructible in practice; mixture proposals built from the
    candidate ensemble are the workable choice here.
    """
    if n < 2:
        raise InvalidParameterError("is_estimate needs n >= 2")
    _check_support(target, proposal.support())
    ledger = ledger if ledger is not None else CostLedger()
    if isinstance(proposal, MixtureDensity):
        x = proposal.sample(rng.split(_MAIN), n)
    else:
        x = proposal.ppf(rng.split(_MAIN).uniforms(n))
    y = evaluate(model, x[:, None], ledger)
    w = _importance_weights(target, x, np.asarray(proposal.logpdf(x)))
    wy = w * y
    s_hat = float(np.mean(wy))
    sigma_sq = float(np.mean((wy - s_hat) ** 2))
    return EstimateReport(
        estimate=s_hat,
        estimator_variance=sigma_sq / n,
        n_per_model={model.id: n},
        total_cost=ledger.total(),
        seed=rng.seed,
        method="is",
        diagnostics={
            "ess": effective_sample_count(w),
            "mean_weight": float(np.mean(w)),
            "max_weight": float(np.max(w)),
        },
    )


@dataclass(frozen=True)
class PropagationSamples:
    """Cached proposal draws and model outputs, reusable across target sets."""

    x: np.ndarray
    y: np.ndarray
    log_q: np.ndarray
    proposal: MixtureDensity
    seed: int

    @property
    def n(self) -> int:
        return self.x.size


@dataclass
class MultimodelReport:
    """Reweighted estimates for every candidate model."""

    estimates: np.ndarray  # (T,)
    quantiles: dict[str, float]
    ess: np.ndarray  # (T,)
    n: int
    seed: int
    total_cost: float
    diagnostics: dict

    def to_dict(self) -> dict:
        return {
            "estimates": self.estimates.tolist(),
            "quantiles": self.quantiles,
            "ess": self.ess.tolist(),
            "n": self.n,
            "seed": self.seed,
            "total_cost": self.total_cost,
            "diagnostics": self.diagnostics,
        }


_QUANTILES = (0.05, 0.25, 0.5, 0.75, 0.95)


def draw_propagation_samples(
    model: Model,
    proposal: MixtureDensity,
    n: int,
    rng: RngStream,
    ledger: CostLedger | None = None,
) -> PropagationSamples:
    """Draw the single shared sample set and evaluate the model once."""
    if n < 2:
        raise InvalidParameterError("propagation needs n >= 2")
    ledger = ledger if ledger is not None else CostLedger()
    x = proposal.sample(rng.split(_MAIN), n)
    y = evaluate(model, x[:, None], ledger)
    return PropagationSamples(
        x=x, y=y, log_q=np.asarray(proposal.logpdf(x)), proposal=proposal, seed=rng.seed
    )


def reweight(
    samples: PropagationSamples,
    targets: CandidateModelSet,
    ledger: CostLedger | None = None,
) -> MultimodelReport:
    """Estimate E_p[model] for every candidate p by importance reweighting
    of the cached outputs; performs zero model evaluations."""
    T = targets.size
    estimates = np.empty(T)
    ess = np.empty(T)
    q_support = samples.proposal.support()
    for j, target in enumerate(targets.entries):
        _check_support(target, q_support, j)
        w = _importance_weights(target, samples.x, samples.log_q, j)
        estimates[j] = float(np.mean(w * samples.y))
        ess[j] = effective_sample_count(w)
    qs = np.quantile(estimates, _QUANTILES)
    return MultimodelReport(
        estimates=estimates,
        quantiles={f"{int(100 * q)}%": float(v) for q, v in zip(_QUANTILES, qs)},
        ess=ess,
        n=samples.n,
        seed=samples.seed,
        total_cost=ledger.total() if ledger is not None else float(samples.n),
        diagnostics={
            "n_candidates": T,
            "min_ess": float(np.min(ess)),
        },
    )


def propagate_multimodel(
    model: Model,
    proposal: MixtureDensity,
    targets: CandidateModelSet,
    n: int,
    rng: RngStream,
    ledger: CostLedger | None = None,
) -> MultimodelReport:
    """Single-loop propagation: n model evaluations total, independent of
    the number of candidate models."""
    ledger = ledger if ledger is not None else CostLedger()
    samples = draw_propagation_samples(model, proposal, n, rng, ledger)
    return reweight(samples, targets, ledger)
