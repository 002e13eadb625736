"""Importance-sampling estimation and single-loop multimodel propagation.

One sample set drawn from the optimal mixture is pushed through the
model once; every candidate input distribution is then served by
reweighting those outputs with its density ratio, so the model
evaluation count is n regardless of how many candidates there are.
Cached samples also let new candidate sets (e.g. after more data
arrives) be propagated with zero new model evaluations.

``is_estimate`` and ``run_multimodel`` draw, evaluate and take the
proposal log density on one path, ``draw_propagation_samples``.  A
``Distribution`` proposal's log density is taken as a one-component
``MixtureDensity``'s, so every proposal log density comes from the natural
form of ``distributions``.

``is_estimate`` and ``reweight`` weigh their targets on one path,
``_WeightPass``: chunks of ``_CHUNK`` proposal draws, and in each chunk
natural-form blocks of up to ``_block_len(_SHARE * _CHUNK)`` candidates of
one family, with minus the proposal log density as one more statistic, so
the log weights of a block are one matrix product.  Normal and lognormal
statistics are centred on the proposal's centre for the family, which
makes a candidate equal to a one-component proposal weigh exactly 1, or
on the draws' median where the proposal has no component of the family;
never on the candidates, so a candidate's weights do not depend on the
others.  ``tests/test_natural_form.py`` holds the natural form to the
direct one, ``distributions._logpdf_into``.  A block is screened for NaN
and +inf log weights with one sum, then exponentiated in place
(``_exp_screened``).

``reweight`` weighs each distinct candidate once (a repeat, equal family
and parameters, copies the estimate and ESS of its first occurrence) and
keeps Σw, Σw² and Σw·y per candidate and chunk, each a sum along the
candidate's own contiguous row.  The chunks are split into contiguous
stripes, one per usable core (``_threads``), and the caller adds the
chunks' sums in chunk order, so a candidate's bits do not depend on the
thread count, the block budget or the other candidates.  An error is the
serial loop's first: the lowest failing candidate, its support check
before its weights, and its first non-finite weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..distributions import (
    Distribution,
    Family,
    _block_len,
    _log_argument,
    _natural_params,
    _natural_stats,
    sample,
)
# The family kernel of the weight blocks, under the name tests patch.
from ..distributions import _natural_logpdf_into as _logpdf_into
from ..exceptions import EstimatorError, InvalidParameterError
from ..models import CostLedger, Model, evaluate
from ..reports import EstimateReport
from ..rng import RngStream
from .._threads import fan_out, workers
from .ensemble import CandidateModelSet
from .mixture import MixtureDensity

_MAIN = 0

# Proposal draws per weight chunk.  Sums along a candidate's row of a
# chunk are numpy's pairwise sums; the chunks' sums are added in order.
_CHUNK = 2048
# A weight block holds a quarter of ``distributions._BLOCK_PAIRS`` pairs
# (``_block_len(_SHARE * chunk)`` candidates), so the block and its work
# buffer, 512 KiB each, stay in a core's cache through the passes over them.
_SHARE = 4


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


def _weight_error(candidate: int | None, i: int, x: np.ndarray) -> EstimatorError:
    return EstimatorError(
        f"non-finite importance weight{_who(candidate)} at sample {i} "
        f"(x={x[i]!r}); proposal support does not cover the target"
    )


def _as_mixture(proposal):
    """A ``Distribution`` proposal as a one-component ``MixtureDensity``;
    any other proposal as it is."""
    if isinstance(proposal, Distribution):
        return MixtureDensity((proposal,), np.ones(1))
    return proposal


class _WeightPass:
    """Log importance weights of ``targets`` (distinct distributions) at
    the draws of ``samples``, by chunk of ``_CHUNK`` draws and natural-form
    block of one family's candidates (``blocks``)."""

    def __init__(self, samples: PropagationSamples, targets):
        x = samples.x
        self.x = x
        self.lx, self.outside = _log_argument(x)
        self.neg_log_q = -samples.log_q
        known = getattr(_as_mixture(samples.proposal), "_centres", {})
        groups = []
        families = [t.family for t in targets]
        for fam in dict.fromkeys(families):
            rows = np.flatnonzero([f is fam for f in families])
            params = np.array([targets[j].params for j in rows])
            centre = known.get(fam)
            if centre is None:
                centre = self._median_centre(fam)
            natural = _natural_params(fam, params[:, 0], params[:, 1], centre)
            groups.append((fam, rows, natural, centre))
        self.groups = groups
        self.widest = max(rows.size for _, rows, _, _ in groups)

    def _median_centre(self, family: Family) -> float:
        """The median of the draws (normal) or of their logs where positive
        (lognormal); 0 for other families or when there is none."""
        if family is Family.NORMAL:
            v = self.x[np.isfinite(self.x)]
        elif family is Family.LOGNORMAL:
            v = self.lx[~self.outside]
        else:
            return 0.0
        return float(np.median(v)) if v.size else 0.0

    def blocks(self, lo: int):
        """(rows, log weights, work buffer) per block of the chunk at draw
        ``lo``: ``rows`` index ``targets``; the log weights are a C-ordered
        (len(rows), chunk size) array, and the work buffer one of the same
        shape, both reused by the next block."""
        hi = min(lo + _CHUNK, self.x.size)
        x, lx, outside = self.x[lo:hi], self.lx[lo:hi], self.outside[lo:hi]
        extra = self.neg_log_q[lo:hi]
        size = hi - lo
        width = _block_len(_SHARE * size)
        buf = np.empty(min(width, self.widest) * size)
        tmp = np.empty_like(buf)
        for fam, rows, natural, centre in self.groups:
            stats = _natural_stats(fam, x, lx, outside, centre, extra)
            for c0 in range(0, rows.size, width):
                c1 = min(c0 + width, rows.size)
                lw = buf[: (c1 - c0) * size].reshape(c1 - c0, size)
                work = tmp[: lw.size].reshape(lw.shape)
                _logpdf_into(fam, stats, natural.columns(c0, c1), lw.T, work.T)
                yield rows[c0:c1], lw, work


def _exp_screened(lw: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Exponentiate the log weights ``lw`` in place and return the sum of
    each row, and the first sample of each row whose log weight is NaN or
    +inf (-1 for none), or None when no row has one.

    One sum screens the block: only a NaN or +inf sum runs the elementwise
    check, and a sum that overflows from finite terms runs it and passes it.
    """
    bad = None
    if not lw.sum() < math.inf:
        nonfinite = ~(np.isfinite(lw) | (lw == -np.inf))
        if nonfinite.any():
            bad = np.where(nonfinite.any(axis=1), nonfinite.argmax(axis=1), -1)
    np.exp(lw, out=lw)
    return lw.sum(axis=1), bad


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
    weights = _WeightPass(samples, (target,))
    w = np.empty(n)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for lo in range(0, n, _CHUNK):
            ((_, lw, _),) = weights.blocks(lo)
            _, bad = _exp_screened(lw)
            if bad is not None:
                raise _weight_error(None, lo + int(bad[0]), samples.x)
            w[lo : lo + _CHUNK] = lw[0]
    wy = w * samples.y
    s, ss = float(np.sum(w)), float(np.sum(w * w))
    s_hat, ess = float(np.mean(wy)), s * s / ss if ss > 0.0 else 0.0
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
    log_q = np.asarray(_as_mixture(proposal).logpdf(x))
    return PropagationSamples(x=x, y=y, log_q=log_q, proposal=proposal, seed=rng.seed)


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
    first: dict[Distribution, int] = {}
    for j, target in enumerate(targets.entries):
        first.setdefault(target, j)
    distinct = list(first.values())
    support_error = None
    for pos, j in enumerate(distinct):
        try:
            _check_support(targets.entries[j], q_support, j)
        except EstimatorError as exc:  # raised after the weights of lower candidates
            support_error, distinct = exc, distinct[:pos]
            break
    if distinct:
        _weigh_distinct(samples, [targets.entries[j] for j in distinct], distinct, estimates, ess)
    if support_error is not None:
        raise support_error
    for j, target in enumerate(targets.entries):
        i = first[target]
        if i != j:  # a repeat: the weights are a pure function of the target
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


def _weigh_distinct(samples, candidates, index, estimates, ess) -> None:
    """Write the estimate and ESS of each of ``candidates`` (distinct, in
    index order) into ``estimates`` and ``ess`` at ``index``; raise the
    non-finite weight of the lowest failing candidate, at its first
    sample."""
    weights = _WeightPass(samples, candidates)
    n, y = samples.n, samples.y
    starts = list(range(0, n, _CHUNK))

    def stripe(los: list[int]) -> list:
        """(Σw, Σw·y, Σw²) per candidate, and its first bad sample (-1 for
        none), of each chunk of ``los``."""
        parts = []
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for lo in los:
                sums = np.zeros((3, len(candidates)))
                first_bad = np.full(len(candidates), -1)
                ys = y[lo : lo + _CHUNK]
                for rows, w, work in weights.blocks(lo):
                    sums[0, rows], bad = _exp_screened(w)
                    if bad is not None:
                        first_bad[rows] = np.where(bad >= 0, lo + bad, -1)
                    sums[1, rows] = np.multiply(w, ys, out=work).sum(axis=1)
                    sums[2, rows] = np.square(w, out=w).sum(axis=1)
                parts.append((sums, first_bad))
        return parts

    k = workers(len(candidates) * n)
    size = -(-len(starts) // k)
    stripes = fan_out(stripe, [starts[i : i + size] for i in range(0, len(starts), size)], k)
    total = np.zeros((3, len(candidates)))
    first_bad = np.full(len(candidates), -1)
    for sums, bad in (part for parts in stripes for part in parts):  # in chunk order
        total += sums
        first_bad = np.where(first_bad < 0, bad, first_bad)
    failed = np.flatnonzero(first_bad >= 0)
    if failed.size:
        pos = int(failed[0])
        raise _weight_error(index[pos], int(first_bad[pos]), samples.x)
    s, sy, ss = total
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        estimates[index] = sy / n
        ess[index] = np.where(ss > 0.0, s * s / ss, 0.0)
