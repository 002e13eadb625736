"""Multilevel Monte Carlo: coupled per-level statistics, cost-optimal
sample allocation, and the adaptive estimator loop.

The estimator assembles the telescoping sum of coupled corrections
Y_l = M(l) - M(l-1), each estimated on its own independent substream
(stream id = level, counter continuing across top-up rounds), so adding
samples or levels never perturbs draws already taken.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import BudgetError, InvalidParameterError
from .mc import draw_inputs
from .models import CostLedger, LevelHierarchy, evaluate
from .reports import EstimateReport
from .rng import RngStream

_ADAPT_SPLIT = math.sqrt(2.0)  # eps^2 split evenly between variance and bias^2
_MAX_ROUNDS = 100


@dataclass(frozen=True)
class LevelStats:
    """Sample statistics of one coupled correction term."""

    level: int
    mean: float
    variance: float
    cost: float  # work units per coupled sample
    n: int


@dataclass(frozen=True)
class MlmcPlan:
    """Per-level sample counts for a target standard error."""

    eps: float
    n_per_level: tuple[int, ...]
    max_level: int
    xi: float
    predicted_cost: float
    flags: tuple[str, ...] = ()


@dataclass
class MlmcResult:
    report: EstimateReport
    plan: MlmcPlan
    levels: list[LevelStats]


def coupled_sample(
    h: LevelHierarchy,
    level: int,
    n: int,
    rng: RngStream,
    ledger: CostLedger | None = None,
) -> np.ndarray:
    """n draws of the level correction Y_l, both models evaluated on the
    same underlying inputs."""
    fine = h.levels[level]
    x = draw_inputs(h.input, rng, n, fine.input_dim)
    y = evaluate(fine, x, ledger)
    if level > 0:
        coarse = h.levels[level - 1]
        xc = x if coarse.input_dim == fine.input_dim else h.coarsen(x)
        y = y - evaluate(coarse, xc, ledger)
    return y


def level_statistics(
    h: LevelHierarchy,
    level: int,
    n: int,
    rng: RngStream,
    ledger: CostLedger | None = None,
) -> LevelStats:
    """Mean/variance of Y_l from n fresh coupled samples."""
    if not 0 <= level <= h.max_level:
        raise InvalidParameterError(f"level {level} outside hierarchy 0..{h.max_level}")
    if n < 2:
        raise InvalidParameterError("level_statistics needs n >= 2")
    y = coupled_sample(h, level, n, rng, ledger)
    return LevelStats(
        level=level,
        mean=float(np.mean(y)),
        variance=float(np.var(y, ddof=1)),
        cost=h.coupled_cost(level),
        n=n,
    )


def mlmc_allocation(stats: list[LevelStats], eps: float) -> MlmcPlan:
    """Cost-minimizing integer sample counts with total variance <= eps^2.

    The Lagrange solution N_l = xi * sqrt(V_l / C_l) with
    xi = eps^-2 * sum(sqrt(V_l * C_l)) is ceiled with a floor of 2 per
    level, which preserves the variance constraint exactly.
    """
    if eps <= 0.0:
        raise InvalidParameterError("eps must be positive")
    v = np.array([s.variance for s in stats])
    c = np.array([s.cost for s in stats])
    flags: tuple[str, ...] = ()
    if np.all(v == 0.0):
        n = np.ones(len(stats), dtype=int)
        flags = ("all_level_variances_zero",)
        xi = 0.0
    else:
        xi = float(np.sum(np.sqrt(v * c)) / eps**2)
        n = np.maximum(np.ceil(xi * np.sqrt(v / c)).astype(int), 2)
    return MlmcPlan(
        eps=eps,
        n_per_level=tuple(int(k) for k in n),
        max_level=len(stats) - 1,
        xi=xi,
        predicted_cost=float(np.dot(n, c)),
        flags=flags,
    )


def mlmc_convergence_test(stats: list[LevelStats], eps: float) -> tuple[bool, float]:
    """Remaining-bias test on the decay of the correction means.

    The decay exponent alpha is fit by least squares on log2|mean_l| over
    l >= 1 (floored at 0.5 to guard against noise-dominated fits); the
    extrapolated remaining bias must stay below eps/sqrt(2).
    """
    if len(stats) < 3:
        raise InvalidParameterError("convergence test needs at least 3 levels")
    means = np.array([s.mean for s in stats])
    tail = np.abs(means[1:])
    ells = np.arange(1, len(means))
    nz = tail > 0.0
    if np.count_nonzero(nz) >= 2:
        slope = np.polyfit(ells[nz], np.log2(tail[nz]), 1)[0]
        alpha = max(0.5, -float(slope))
    else:
        alpha = 0.5
    rem = max(tail[-2] / 2.0**alpha, tail[-1]) / (2.0**alpha - 1.0)
    return bool(rem < eps / math.sqrt(2.0)), alpha


@dataclass
class _LevelAccumulator:
    """Stored correction samples for one level (kept raw so means and
    variances are computed over the full array, independent of batching)."""

    level: int
    cost: float
    dim: int
    batches: list = field(default_factory=list)
    n: int = 0
    draws_consumed: int = 0
    _cache: np.ndarray | None = None

    def add(self, y: np.ndarray, dim: int) -> None:
        self.batches.append(y)
        self.n += y.size
        self.draws_consumed += y.size * dim
        self._cache = None

    def values(self) -> np.ndarray:
        if self._cache is None or self._cache.size != self.n:
            self._cache = np.concatenate(self.batches) if self.batches else np.empty(0)
        return self._cache

    def stats(self) -> LevelStats:
        y = self.values()
        return LevelStats(
            level=self.level,
            mean=float(np.mean(y)),
            variance=float(np.var(y, ddof=1)) if y.size > 1 else 0.0,
            cost=self.cost,
            n=self.n,
        )


def mlmc_estimate(
    h: LevelHierarchy,
    eps: float,
    rng: RngStream,
    *,
    initial_samples: int = 100,
    max_level: int | None = None,
    max_cost: float | None = None,
    fixed_level: int | None = None,
    ledger: CostLedger | None = None,
) -> MlmcResult:
    """Adaptive multilevel estimator.

    Starts from levels 0..2 (or fewer if the hierarchy is shorter) with
    ``initial_samples`` pilot draws per level, then alternates sample
    top-ups against the eps^2/2 variance target with the remaining-bias
    test at eps/sqrt(2), adding a level whenever the test fails.  With
    ``fixed_level`` set, the level set is frozen and the full eps^2
    variance budget is used with no bias test.
    """
    if eps <= 0.0:
        raise InvalidParameterError("eps must be positive")
    ledger = ledger if ledger is not None else CostLedger()
    avail = h.max_level if max_level is None else min(max_level, h.max_level)
    flags: list[str] = []

    adaptive = fixed_level is None
    if adaptive:
        top = min(2, avail)
        eps_alloc = eps / _ADAPT_SPLIT
    else:
        if not 0 <= fixed_level <= avail:
            raise InvalidParameterError(f"fixed_level must be in 0..{avail}")
        top = fixed_level
        eps_alloc = eps

    accs: list[_LevelAccumulator] = []

    def add_level(lv: int) -> None:
        accs.append(
            _LevelAccumulator(level=lv, cost=h.coupled_cost(lv), dim=h.levels[lv].input_dim)
        )

    def top_up(acc: _LevelAccumulator, want: int) -> None:
        need = want - acc.n
        if need <= 0:
            return
        stream = rng.split(acc.level).advance(acc.draws_consumed)
        y = coupled_sample(h, acc.level, need, stream, ledger)
        acc.add(y, acc.dim)

    for lv in range(top + 1):
        add_level(lv)

    plan = None
    alpha_hat = None
    converged = not adaptive
    for _round in range(_MAX_ROUNDS):
        for acc in accs:
            top_up(acc, initial_samples)
        stats = [acc.stats() for acc in accs]
        plan = mlmc_allocation(stats, eps_alloc)
        needed = [
            max(want - acc.n, 0) for want, acc in zip(plan.n_per_level, accs)
        ]
        if any(needed):
            for acc, want in zip(accs, plan.n_per_level):
                top_up(acc, want)
            if max_cost is not None and ledger.total() > max_cost:
                raise BudgetError(f"mlmc exceeded max_cost={max_cost}")
            continue
        if not adaptive:
            break
        stats = [acc.stats() for acc in accs]
        if len(stats) >= 3:
            converged, alpha_hat = mlmc_convergence_test(stats, eps)
        else:
            converged = False
            flags.append("bias_untested")
            break
        if converged:
            break
        if len(accs) - 1 >= avail:
            flags.append("bias_target_unmet")
            break
        add_level(len(accs))
        if max_cost is not None and ledger.total() > max_cost:
            raise BudgetError(f"mlmc exceeded max_cost={max_cost}")
    else:
        flags.append("round_limit_reached")

    stats = [acc.stats() for acc in accs]
    estimate = float(sum(s.mean for s in stats))
    est_var = float(sum(s.variance / s.n for s in stats))

    n_per_model: dict[str, int] = {}
    for s in stats:
        n_per_model[h.levels[s.level].id] = n_per_model.get(h.levels[s.level].id, 0) + s.n
        if s.level > 0:
            mid = h.levels[s.level - 1].id
            n_per_model[mid] = n_per_model.get(mid, 0) + s.n

    report = EstimateReport(
        estimate=estimate,
        estimator_variance=est_var,
        n_per_model=n_per_model,
        total_cost=ledger.total(),
        seed=rng.seed,
        method="mlmc",
        diagnostics={
            "eps": eps,
            "alpha_hat": alpha_hat,
            "converged": converged,
            "flags": flags,
            "levels_used": len(stats),
        },
    )
    return MlmcResult(report=report, plan=plan, levels=stats)
