"""Multifidelity Monte Carlo: pilot statistics, surrogate-ordering
validation, closed-form coefficient/allocation optimum, and the
estimator with exact prefix reuse of low-fidelity outputs.  Neither
sample keeps outputs: the pilot keeps every model's means and co-moments
(``mc._Moments``), the main sample each model's sums over the prefixes
the estimator averages (``_prefix_sums``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .distributions import Distribution
from .exceptions import BudgetError, EstimatorError, InvalidParameterError
from .mc import _Moments, draw_evaluate
from .models import CostLedger, FidelityEnsemble
from .reports import EstimateReport
from .rng import RngStream

_MAIN, _PILOT = 0, 1
_RHO_ONE_TOL = 1e-14


@dataclass(frozen=True)
class PilotStats:
    """Variances, correlations, and costs estimated on a shared pilot.

    ``rho`` has one trailing zero appended (the correlation of a
    hypothetical (k+1)-th surrogate), which closes the telescoping
    formulas below.  ``low_ids`` tracks the surrogate ordering.
    """

    sigma_hi: float
    sigma_lo: tuple[float, ...]
    rho: tuple[float, ...]  # length k+1, rho[k] == 0
    cost_hi: float
    cost_lo: tuple[float, ...]
    low_ids: tuple[str, ...]
    flags: tuple[str, ...] = ()

    @property
    def k(self) -> int:
        return len(self.sigma_lo)


@dataclass(frozen=True)
class MfmcPlan:
    """Coefficients and evaluation counts for a budget."""

    beta: tuple[float, ...]
    t: tuple[float, ...]  # length k+1, t[0] == 1
    n: tuple[int, ...]  # length k+1, non-decreasing
    n_real: tuple[float, ...]
    chi: float
    budget: float
    flags: tuple[str, ...] = ()


def pilot_statistics(
    ensemble: FidelityEnsemble,
    input: Distribution,
    n_pilot: int,
    rng: RngStream,
    ledger: CostLedger | None = None,
) -> PilotStats:
    """Evaluate every member on the same pilot inputs and estimate
    variances (unbiased) and Pearson correlations with the high-fidelity
    output."""
    if n_pilot < 10:
        raise InvalidParameterError("pilot needs n_pilot >= 10")
    models = ensemble.all_models
    pilot = _Moments.merged(draw_evaluate(
        models, [n_pilot] * len(models), input, rng, ledger, lambda lo, ys: _Moments.of(*ys)
    ))
    var_hi = pilot.var(0)
    if var_hi == 0.0:
        raise EstimatorError("high-fidelity model is constant on the pilot sample")
    sig_lo, rho = [], []
    for i, m in enumerate(ensemble.lows, 1):
        v = pilot.var(i)
        if v == 0.0:
            raise EstimatorError(f"model '{m.id}' is constant on the pilot sample")
        sig_lo.append(math.sqrt(v))
        rho.append(pilot.cov(0, i) / math.sqrt(var_hi * v))
    return PilotStats(
        sigma_hi=math.sqrt(var_hi),
        sigma_lo=tuple(sig_lo),
        rho=tuple(rho) + (0.0,),
        cost_hi=ensemble.high.cost_per_eval,
        cost_lo=tuple(m.cost_per_eval for m in ensemble.lows),
        low_ids=tuple(m.id for m in ensemble.lows),
    )


def _ordering_violations(rho_sq: np.ndarray, costs: np.ndarray) -> list[int]:
    """Indices i (0-based into the surrogate list) failing the cost /
    correlation-gap inequality
    c_{i-1}/c_i > (rho_{i-1}^2 - rho_i^2) / (rho_i^2 - rho_{i+1}^2),
    with the high-fidelity model as element -1 (cost c_hi, rho 1)."""
    k = len(rho_sq) - 1  # rho_sq includes the trailing 0
    r = np.concatenate(([1.0], rho_sq))  # r[0] = hi
    c = costs  # length k+1, c[0] = cost_hi
    bad = []
    for i in range(1, k + 1):
        gap_num = r[i - 1] - r[i]
        gap_den = r[i] - r[i + 1]
        if gap_den <= 0.0 or c[i - 1] / c[i] <= gap_num / gap_den:
            bad.append(i - 1)
    return bad


def validate_ordering(stats: PilotStats) -> PilotStats:
    """Reorder surrogates by descending rho^2 and drop any that violate
    the cost/correlation-gap conditions required by the closed-form
    optimum (cheapest violator first); drops are recorded in flags, plus
    ``all_surrogates_dropped`` when none is left.  A perfect leading
    surrogate makes the conditions moot: ``mfmc_plan`` shortcuts it."""
    keep = sorted(range(stats.k), key=lambda i: -stats.rho[i] ** 2)
    flags = list(stats.flags)
    if keep and stats.rho[keep[0]] ** 2 >= 1.0 - _RHO_ONE_TOL:
        flags.append("perfect_surrogate")
    else:
        while bad := _ordering_violations(
            np.array([stats.rho[i] * stats.rho[i] for i in keep] + [0.0]),
            np.array([stats.cost_hi] + [stats.cost_lo[i] for i in keep]),
        ):
            drop = keep.pop(min(bad, key=lambda b: stats.cost_lo[keep[b]]))
            flags.append(f"dropped:{stats.low_ids[drop]}")
    if stats.k and not keep:
        flags.append("all_surrogates_dropped")
    return replace(
        stats,
        sigma_lo=tuple(stats.sigma_lo[i] for i in keep),
        rho=tuple(stats.rho[i] for i in keep) + (0.0,),
        cost_lo=tuple(stats.cost_lo[i] for i in keep),
        low_ids=tuple(stats.low_ids[i] for i in keep),
        flags=tuple(flags),
    )


def estimator_variance(
    stats: PilotStats, n: np.ndarray, beta: np.ndarray
) -> float:
    """Variance of the multifidelity estimator at evaluation counts n
    (length k+1) and coefficients beta (length k)."""
    var = stats.sigma_hi**2 / n[0]
    for i in range(stats.k):
        gap = 1.0 / n[i] - 1.0 / n[i + 1]
        var += gap * (
            beta[i] ** 2 * stats.sigma_lo[i] ** 2
            - 2.0 * beta[i] * stats.rho[i] * stats.sigma_hi * stats.sigma_lo[i]
        )
    return float(var)


def variance_ratio(stats: PilotStats) -> float:
    """Predicted variance of the planned estimator relative to plain MC
    at equal budget."""
    acc = math.sqrt(1.0 - stats.rho[0] ** 2)
    for i in range(stats.k):
        acc += math.sqrt(
            stats.cost_lo[i] / stats.cost_hi * (stats.rho[i] ** 2 - stats.rho[i + 1] ** 2)
        )
    return float(acc**2)


def mfmc_plan(stats: PilotStats, budget: float) -> MfmcPlan:
    """Closed-form optimal coefficients and evaluation counts.

    beta_i = rho_i * sigma_hi / sigma_i; the count ratios
    t_i = sqrt(c_hi (rho_i^2 - rho_{i+1}^2) / (c_i (1 - rho_1^2)))
    scale n_0 = budget / (c . t).  Real-valued counts are floored
    (n_0 >= 2) and monotonicity is repaired by raising the cheaper side,
    never exceeding the budget.
    """
    if budget < 2.0 * stats.cost_hi:
        raise BudgetError("budget below two high-fidelity evaluations")
    flags = list(stats.flags)
    k = stats.k
    costs = np.array([stats.cost_hi] + list(stats.cost_lo))

    beta = tuple(
        stats.rho[i] * stats.sigma_hi / stats.sigma_lo[i] for i in range(k)
    )

    if stats.rho[0] ** 2 >= 1.0 - _RHO_ONE_TOL:
        # Perfect surrogate: two high-fidelity anchors, the rest of the
        # budget spread evenly over the surrogates.  Equal surrogate counts
        # zero out every correction term beyond the first, so only the
        # perfect surrogate carries weight and the budget holds for any k.
        if "perfect_surrogate" not in flags:
            flags.append("perfect_surrogate")
        t = [1.0] + [float("nan")] * k
        n1 = max(2, int((budget - 2 * stats.cost_hi) // sum(stats.cost_lo)))
        n = [2] + [n1] * k
        n_real = [float(v) for v in n]
        chi = estimator_variance(stats, np.array(n_real), np.array(beta)) / (
            stats.sigma_hi**2 / (budget / stats.cost_hi)
        )
    else:
        one_m_rho1 = 1.0 - stats.rho[0] ** 2
        t = [1.0]
        for i in range(k):
            gap = stats.rho[i] ** 2 - stats.rho[i + 1] ** 2
            t.append(math.sqrt(stats.cost_hi * gap / (stats.cost_lo[i] * one_m_rho1)))
        n_real = budget / float(np.dot(costs, t)) * np.array(t)

        n = np.maximum(np.floor(n_real).astype(int), 2)
        for i in range(1, k + 1):
            if n[i] < n[i - 1]:
                n[i] = n[i - 1]
        # Flooring leaves slack, so repairs stay within budget in all but
        # pathological cases; trim from the cheap end if one arises.
        while float(np.dot(n, costs)) > budget and n[k] > max(2, n[k - 1] if k else 2):
            n[k] -= 1
        if float(np.dot(n, costs)) > budget:
            raise BudgetError("budget cannot cover minimum evaluation counts")
        chi = variance_ratio(stats)

    return MfmcPlan(
        beta=beta,
        t=tuple(float(v) for v in t),
        n=tuple(int(v) for v in n),
        n_real=tuple(float(v) for v in n_real),
        chi=float(chi),
        budget=budget,
        flags=tuple(flags),
    )


def _prefix_cuts(n) -> list[tuple[int, ...]]:
    """Per model in plan order, the prefix counts the estimator averages
    its outputs over: n[0] for the high-fidelity model, and n[i] and
    n[i + 1] for surrogate i."""
    return [(n[0],)] + [(n[i], n[i + 1]) for i in range(len(n) - 1)]


def _prefix_sums(y: np.ndarray, lo: int, cuts) -> dict:
    """{c: sum of the outputs of rows below c} over a block ``y`` of
    outputs that starts at row ``lo``, for each cut c past ``lo``."""
    return {c: np.add.reduce(y[: c - lo]) for c in cuts if c > lo}


def _combine(sums: list[dict], n, beta) -> float:
    """The estimator from prefix sums, ``sums[j][c]`` the sum of model j's
    first c outputs: the hi mean on n[0] samples plus beta-weighted
    differences of each surrogate's n[i+1]-mean and n[i]-prefix-mean."""
    est = float(sums[0][n[0]] / n[0])
    for i, s in enumerate(sums[1:]):
        est += beta[i] * (float(s[n[i + 1]] / n[i + 1]) - float(s[n[i]] / n[i]))
    return est


def combine_multifidelity(
    y_hi: np.ndarray, y_lows: list[np.ndarray], n: tuple[int, ...], beta
) -> float:
    """Assemble the estimator from stored outputs with prefix reuse: the
    ``_combine`` rule of ``mfmc_estimate`` on their prefix sums.  With
    every count in one ``draw_evaluate`` block the two agree bit for bit."""
    cuts = _prefix_cuts(n)
    return _combine([_prefix_sums(y, 0, c) for y, c in zip([y_hi, *y_lows], cuts)], n, beta)


def mfmc_estimate(
    ensemble: FidelityEnsemble,
    input: Distribution,
    budget: float,
    rng: RngStream,
    *,
    n_pilot: int = 50,
    ledger: CostLedger | None = None,
) -> tuple[EstimateReport, MfmcPlan]:
    """Full multifidelity run: pilot, ordering validation, plan, fresh
    main sample with prefix reuse.

    The pilot is charged against the budget and the coefficients are
    frozen before the main draws, keeping the estimator unbiased.  With
    no surrogate, or none left after validation (flagged), the plan spends
    the rest of the budget on the high-fidelity model alone, and the
    estimate is the plain MC mean of those draws.

    The report's ``n_per_model`` and ``total_cost`` are the ledger's counts
    and total.  The ledger's ``pilot`` phase times the pilot with the
    ordering validation, its ``main`` phase the plan, draws and estimate.
    """
    ledger = ledger if ledger is not None else CostLedger()
    # Per model, in model order, as the ledger adds the pilot's work.
    pilot_cost = sum(n_pilot * m.cost_per_eval for m in ensemble.all_models)
    if budget < pilot_cost + 2.0 * ensemble.high.cost_per_eval:
        raise BudgetError("budget cannot cover the pilot plus two high-fidelity samples")

    with ledger.phase("pilot"):
        stats = pilot_statistics(ensemble, input, n_pilot, rng.split(_PILOT), ledger)
        stats = validate_ordering(stats)

    with ledger.phase("main"):
        plan = mfmc_plan(stats, budget - pilot_cost)

        models = {m.id: m for m in ensemble.all_models}
        kept = [ensemble.high] + [models[i] for i in stats.low_ids]
        # Each block of each model's outputs reduces to its prefix sums,
        # merged in block order; no output is kept.
        cuts = _prefix_cuts(plan.n)
        blocks = draw_evaluate(
            kept, plan.n, input, rng.split(_MAIN), ledger,
            lambda lo, ys: [{} if y is None else _prefix_sums(y, lo, c) for y, c in zip(ys, cuts)],
        )
        sums: list[dict] = [{} for _ in kept]
        for block in blocks:
            for total, part in zip(sums, block):
                for c, v in part.items():
                    total[c] = total[c] + v if c in total else v
        estimate = _combine(sums, plan.n, plan.beta)
        est_var = estimator_variance(stats, np.array(plan.n, dtype=float), np.array(plan.beta))

    report = EstimateReport.from_ledger(
        ledger, rng.seed, "mfmc",
        estimate=estimate,
        estimator_variance=est_var,
        diagnostics={
            "chi": plan.chi,
            "beta": list(plan.beta),
            "rho_pilot": list(stats.rho[:-1]),
            "sigma_hi_pilot": stats.sigma_hi,
            "low_order": list(stats.low_ids),
            "flags": list(plan.flags),
        },
    )
    return report, plan
