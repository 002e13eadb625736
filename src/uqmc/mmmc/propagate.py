"""Importance-sampling estimation and single-loop multimodel propagation.

One sample set drawn from the optimal mixture is pushed through the
model once; every candidate input distribution is then served by
reweighting those outputs with its density ratio, so the model
evaluation count is n regardless of how many candidates there are.
Cached samples also let new candidate sets (e.g. after more data
arrives) be propagated with zero new model evaluations.

``is_estimate`` and ``run_multimodel`` draw, evaluate and take the
proposal log density on one path, ``draw_propagation_samples``.
``is_estimate`` and ``reweight`` weigh each target with one function,
``_weigh``, whose weights (``_importance_weights``) are the shared family
log-density kernel ``distributions._logpdf_into`` minus the proposal log
density, screened for NaN/+inf weights, then exponentiated, all in
caller-supplied buffers.
``reweight`` computes log x once, so its cost is one pass over n points
per distinct candidate: a repeated candidate (equal family and
parameters) copies the estimate and ESS of its first occurrence.  The
distinct candidates are split in index order into contiguous stripes, one
per usable core (``_threads``); candidates are drawn i.i.d., so each
stripe mixes the families.  Each stripe reuses its own two length-n
buffers for all its candidates and writes its candidates' slots.  An
error is the serial loop's first: the lowest failing index, its support
check before its weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..distributions import Distribution, _log_argument, _logpdf_into, sample
from ..exceptions import EstimatorError, InvalidParameterError
from ..models import CostLedger, Model, evaluate
from ..reports import EstimateReport
from ..rng import RngStream
from .._threads import fan_out, workers
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
    target, x, arg, log_q, out, tmp, candidate: int | None = None
) -> np.ndarray:
    """Write the density ratios target/proposal at the proposal draws ``x``
    into ``out`` and return it; ``log_q`` is the proposal's log density
    there, ``arg`` is ``_log_argument(x)`` and ``tmp`` a second work buffer.

    The log-weight is screened with one sum: only a NaN or +inf sum runs the
    elementwise check, which aborts on a NaN or +inf weight, naming the first
    offending sample (and the candidate, if given).  A sum that overflows
    from finite terms runs that check and passes it.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        _logpdf_into(target.family, *target.params, x, *arg, out, tmp)
        out -= log_q
        if not out.sum() < math.inf:
            bad = np.flatnonzero(~(np.isfinite(out) | (out == -np.inf)))
            if bad.size:
                i = int(bad[0])
                raise EstimatorError(
                    f"non-finite importance weight{_who(candidate)} at sample {i} "
                    f"(x={x[i]!r}); proposal support does not cover the target"
                )
        return np.exp(out, out=out)


def _weigh(target, x, arg, log_q, y, w, tmp, candidate: int | None = None):
    """(mean of w*y, effective sample count) for the importance weights w of
    ``target``, which are written into ``w``; w*y is left in ``tmp``."""
    _importance_weights(target, x, arg, log_q, w, tmp, candidate)
    s, ss = float(np.sum(w)), float(np.sum(np.multiply(w, w, out=tmp)))
    return float(np.mean(np.multiply(w, y, out=tmp))), s * s / ss if ss > 0.0 else 0.0


def is_estimate(
    model: Model,
    target: Distribution,
    proposal,
    n: int,
    rng: RngStream,
    ledger: CostLedger | None = None,
) -> EstimateReport:
    """Importance-sampling estimate of E_target[model] from proposal draws.

    ``target`` is a parametric ``Distribution``; ``proposal`` is a
    ``MixtureDensity`` or any object with ``support``, ``logpdf`` and
    ``ppf``, drawn from by ``draw_propagation_samples`` as in multimodel
    propagation.  Both densities are normalized by construction, so the
    plain density ratio is used (no self-normalization) and the estimator
    stays unbiased.  The effective sample count is reported to expose
    weight degeneracy.

    The zero-variance proposal proportional to |model| * target exists in
    theory but requires the very expectation being estimated, so it is
    never constructible in practice; mixture proposals built from the
    candidate ensemble are the workable choice here.
    """
    _check_support(target, proposal.support())
    ledger = ledger if ledger is not None else CostLedger()
    samples = draw_propagation_samples(model, proposal, n, rng, ledger)
    x, w, wy = samples.x, np.empty(n), np.empty(n)
    s_hat, ess = _weigh(target, x, _log_argument(x), samples.log_q, samples.y, w, wy)
    sigma_sq = float(np.mean((wy - s_hat) ** 2))
    return EstimateReport.from_ledger(
        ledger, rng.seed, "is",
        estimate=s_hat,
        estimator_variance=sigma_sq / n,
        diagnostics={
            "ess": ess,
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
    proposal: MixtureDensity | Distribution
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
    proposal,
    n: int,
    rng: RngStream,
    ledger: CostLedger | None = None,
) -> PropagationSamples:
    """Draw the single shared sample set and evaluate the model once.

    ``proposal`` is a ``MixtureDensity``, or any object that ``sample``
    can draw from by inverse CDF and that has ``logpdf``."""
    if n < 2:
        raise InvalidParameterError("propagation needs n >= 2")
    ledger = ledger if ledger is not None else CostLedger()
    if isinstance(proposal, MixtureDensity):
        x = proposal.sample(rng.split(_MAIN), n)
    else:
        x = sample(proposal, rng.split(_MAIN), n)
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
    of the cached outputs; performs zero model evaluations.

    ``total_cost`` is ``ledger.total()``: pass the ledger that drew
    ``samples`` to report their cost, since reweighting adds none; with no
    ledger it is 0.0.  Each distinct candidate is weighted once, at its
    first index; repeats get bit-identical copies, and errors name that
    first index."""
    if not targets.entries:
        raise InvalidParameterError("target set is empty")
    ledger = ledger if ledger is not None else CostLedger()
    T = targets.size
    estimates = np.empty(T)
    ess = np.empty(T)
    q_support = samples.proposal.support()
    x, y, log_q = samples.x, samples.y, samples.log_q
    arg = _log_argument(x)
    first: dict[Distribution, int] = {}
    for j, target in enumerate(targets.entries):
        first.setdefault(target, j)
    distinct = list(first.values())

    def stripe(js: list[int]) -> None:
        """Weigh candidates ``js`` in order; the first error raises."""
        w, tmp = np.empty(samples.n), np.empty(samples.n)
        for j in js:
            _check_support(targets.entries[j], q_support, j)
            estimates[j], ess[j] = _weigh(targets.entries[j], x, arg, log_q, y, w, tmp, j)

    # fan_out raises the lowest failing stripe's error, so contiguous
    # stripes raise the lowest failing candidate's.
    k = workers(len(distinct) * samples.n)
    size = -(-len(distinct) // k)
    fan_out(stripe, [distinct[i : i + size] for i in range(0, len(distinct), size)], k)
    for j, target in enumerate(targets.entries):
        i = first[target]
        if i != j:  # a repeat: the kernel is a pure function of the target
            estimates[j], ess[j] = estimates[i], ess[i]
    with np.errstate(invalid="ignore"):  # inf - inf between two infinite estimates: NaN
        qs = np.quantile(estimates, _QUANTILES)
    return MultimodelReport(
        estimates=estimates,
        quantiles={f"{int(100 * q)}%": float(v) for q, v in zip(_QUANTILES, qs)},
        ess=ess,
        n=samples.n,
        seed=samples.seed,
        total_cost=ledger.total(),
        diagnostics={
            "n_candidates": T,
            "min_ess": float(np.min(ess)),
        },
    )
