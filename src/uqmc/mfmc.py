"""Multifidelity Monte Carlo: pilot statistics, surrogate-ordering
validation, closed-form coefficient/allocation optimum, and the
estimator with exact prefix reuse of low-fidelity outputs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .distributions import Distribution
from .exceptions import BudgetError, EstimatorError, InvalidParameterError
from .mc import draw_evaluate
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
    n_pilot: int
    hi_id: str
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
    y_hi, *y_lows = draw_evaluate(models, [n_pilot] * len(models), input, rng, ledger)
    var_hi = float(np.var(y_hi, ddof=1))
    if var_hi == 0.0:
        raise EstimatorError("high-fidelity model is constant on the pilot sample")
    sig_lo, rho = [], []
    for m, y in zip(ensemble.lows, y_lows):
        v = float(np.var(y, ddof=1))
        if v == 0.0:
            raise EstimatorError(f"model '{m.id}' is constant on the pilot sample")
        cov = float(np.cov(y_hi, y, ddof=1)[0, 1])
        sig_lo.append(math.sqrt(v))
        rho.append(cov / math.sqrt(var_hi * v))
    return PilotStats(
        sigma_hi=math.sqrt(var_hi),
        sigma_lo=tuple(sig_lo),
        rho=tuple(rho) + (0.0,),
        cost_hi=ensemble.high.cost_per_eval,
        cost_lo=tuple(m.cost_per_eval for m in ensemble.lows),
        n_pilot=n_pilot,
        hi_id=ensemble.high.id,
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
    ``all_surrogates_dropped`` when none is left."""
    order = sorted(range(stats.k), key=lambda i: -stats.rho[i] ** 2)
    sig = [stats.sigma_lo[i] for i in order]
    rho = [stats.rho[i] for i in order]
    cost = [stats.cost_lo[i] for i in order]
    ids = [stats.low_ids[i] for i in order]
    flags = list(stats.flags)

    if rho and rho[0] ** 2 >= 1.0 - _RHO_ONE_TOL:
        flags.append("perfect_surrogate")

    while True:
        rho_sq = np.array([r * r for r in rho] + [0.0])
        costs = np.array([stats.cost_hi] + cost)
        if rho and rho[0] ** 2 >= 1.0 - _RHO_ONE_TOL:
            break  # conditions are moot; plan will shortcut
        bad = _ordering_violations(rho_sq, costs)
        if not bad:
            break
        drop = min(bad, key=lambda i: cost[i])
        flags.append(f"dropped:{ids[drop]}")
        for seq in (sig, rho, cost, ids):
            del seq[drop]
    if stats.k and not ids:
        flags.append("all_surrogates_dropped")

    return replace(
        stats,
        sigma_lo=tuple(sig),
        rho=tuple(rho) + (0.0,),
        cost_lo=tuple(cost),
        low_ids=tuple(ids),
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
    acc = math.sqrt(1.0 - stats.rho[0] ** 2) if stats.k else 1.0
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

    if k == 0:
        n0 = max(2, int(budget // stats.cost_hi))
        return MfmcPlan(
            beta=(),
            t=(1.0,),
            n=(n0,),
            n_real=(budget / stats.cost_hi,),
            chi=1.0,
            budget=budget,
            flags=tuple(flags),
        )

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
        n0 = 2
        n1 = max(2, int((budget - n0 * stats.cost_hi) // sum(stats.cost_lo)))
        n = [n0] + [n1] * k
        n_real = [float(v) for v in n]
        chi = estimator_variance(stats, np.array(n_real), np.array(beta)) / (
            stats.sigma_hi**2 / (budget / stats.cost_hi)
        )
        return MfmcPlan(
            beta=beta,
            t=(1.0,) + (float("nan"),) * k,
            n=tuple(n),
            n_real=tuple(n_real),
            chi=float(chi),
            budget=budget,
            flags=tuple(flags),
        )

    one_m_rho1 = 1.0 - stats.rho[0] ** 2
    t = [1.0]
    for i in range(k):
        gap = stats.rho[i] ** 2 - stats.rho[i + 1] ** 2
        t.append(math.sqrt(stats.cost_hi * gap / (stats.cost_lo[i] * one_m_rho1)))
    t_arr = np.array(t)
    n0_real = budget / float(np.dot(costs, t_arr))
    n_real = n0_real * t_arr

    n = np.maximum(np.floor(n_real).astype(int), 2)
    n[0] = max(n[0], 2)
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
        chi=chi,
        budget=budget,
        flags=tuple(flags),
    )


def combine_multifidelity(
    y_hi: np.ndarray, y_lows: list[np.ndarray], n: tuple[int, ...], beta
) -> float:
    """Assemble the estimator from stored outputs with prefix reuse:
    hi mean on n[0] samples plus beta-weighted differences of each
    surrogate's n[i]-mean and n[i-1]-prefix-mean."""
    est = float(np.mean(y_hi[: n[0]]))
    for i, y in enumerate(y_lows):
        est += beta[i] * (
            float(np.mean(y[: n[i + 1]])) - float(np.mean(y[: n[i]]))
        )
    return est


def mfmc_estimate(
    ensemble: FidelityEnsemble,
    input: Distribution,
    budget: float,
    rng: RngStream,
    *,
    n_pilot: int = 50,
    beta_override=None,
    ledger: CostLedger | None = None,
    phase_seconds: dict[str, float] | None = None,
) -> tuple[EstimateReport, MfmcPlan]:
    """Full multifidelity run: pilot, ordering validation, plan, fresh
    main sample with prefix reuse.

    The pilot is charged against the budget and the coefficients are
    frozen before the main draws, keeping the estimator unbiased.  With
    no surrogate, or none left after validation (flagged), the plan spends
    the rest of the budget on the high-fidelity model alone, and the
    estimate is the plain MC mean of those draws.

    When ``phase_seconds`` is given, the wall seconds of the pilot (with
    the ordering validation) and of the main sample (plan, draws and
    estimate) go into its ``pilot`` and ``main`` entries.
    """
    ledger = ledger if ledger is not None else CostLedger()
    pilot_cost = n_pilot * sum(m.cost_per_eval for m in ensemble.all_models)
    if budget < pilot_cost + 2.0 * ensemble.high.cost_per_eval:
        raise BudgetError("budget cannot cover the pilot plus two high-fidelity samples")

    t0 = time.perf_counter()
    stats = pilot_statistics(ensemble, input, n_pilot, rng.split(_PILOT), ledger)
    stats = validate_ordering(stats)
    t1 = time.perf_counter()
    remaining = budget - pilot_cost

    plan = mfmc_plan(stats, remaining)
    beta = tuple(float(b) for b in beta_override) if beta_override is not None else plan.beta
    if len(beta) != stats.k:
        raise InvalidParameterError("beta_override length must match surviving surrogates")

    models = {m.id: m for m in ensemble.all_models}
    lows = [models[i] for i in stats.low_ids]
    y_hi, *y_lows = draw_evaluate(
        [ensemble.high] + lows, plan.n, input, rng.split(_MAIN), ledger
    )
    estimate = combine_multifidelity(y_hi, y_lows, plan.n, beta)
    est_var = estimator_variance(stats, np.array(plan.n, dtype=float), np.array(beta))

    n_per_model = {ensemble.high.id: plan.n[0] + n_pilot}
    for i, m in enumerate(lows):
        n_per_model[m.id] = plan.n[i + 1] + n_pilot
    for m in ensemble.lows:
        n_per_model.setdefault(m.id, n_pilot)

    report = EstimateReport(
        estimate=estimate,
        estimator_variance=est_var,
        n_per_model=n_per_model,
        total_cost=ledger.total(),
        seed=rng.seed,
        method="mfmc",
        diagnostics={
            "chi": plan.chi,
            "beta": list(beta),
            "rho_pilot": list(stats.rho[:-1]),
            "sigma_hi_pilot": stats.sigma_hi,
            "low_order": list(stats.low_ids),
            "flags": list(plan.flags),
        },
    )
    if phase_seconds is not None:
        phase_seconds["pilot"] = t1 - t0
        phase_seconds["main"] = time.perf_counter() - t1
    return report, plan
