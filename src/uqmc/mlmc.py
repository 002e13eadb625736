"""Multilevel Monte Carlo: coupled per-level statistics, cost-optimal
sample allocation, the adaptive estimator loop, and the two-level
estimator (MLMC with one correction, under a work budget).

Both estimators assemble the telescoping sum of coupled corrections
Y_l = M(l) - M(l-1), drawn by ``coupled_sample``.  Substream layout:

- ``mlmc_estimate`` draws level l on split(l), its counter continuing
  across top-up rounds, so adding samples or levels never perturbs draws
  already taken;
- ``two_level_estimate`` draws its pilot on split(1), the coarse term
  Y_0 on split(2) and the correction Y_1 on split(3).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .distributions import Distribution
from .exceptions import BudgetError, InvalidParameterError
from .mc import draw_inputs
from .models import CostLedger, LevelHierarchy, Model, evaluate
from .reports import EstimateReport
from .rng import RngStream

_ADAPT_SPLIT = math.sqrt(2.0)  # eps^2 split evenly between variance and bias^2
_MAX_ROUNDS = 100
_PILOT_STREAM, _TERM_STREAM = 1, 2  # two_level_estimate: Y_l on split(_TERM_STREAM + l)


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
    """Per-level sample counts for a target standard error ``se_target``."""

    se_target: float
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
    # Wall seconds of the first pilot and of the rounds after it; not part
    # of any deterministic report.
    phase_seconds: dict[str, float] = field(default_factory=dict)


def _coupled_outputs(h: LevelHierarchy, level: int, n: int, rng: RngStream, ledger):
    """Outputs of levels l and l-1 (None at level 0) on n shared inputs,
    coarsened for level l-1 only when the input dimensions differ."""
    fine = h.levels[level]
    x = draw_inputs(h.input, rng, n, fine.input_dim)
    y = evaluate(fine, x, ledger)
    if level == 0:
        return y, None
    coarse = h.levels[level - 1]
    xc = x if coarse.input_dim == fine.input_dim else h.coarsen(x)
    return y, evaluate(coarse, xc, ledger)


def coupled_sample(
    h: LevelHierarchy,
    level: int,
    n: int,
    rng: RngStream,
    ledger: CostLedger | None = None,
) -> np.ndarray:
    """n draws of the level correction Y_l, both models evaluated on the
    same underlying inputs."""
    y, yc = _coupled_outputs(h, level, n, rng, ledger)
    return y if yc is None else y - yc


def _level_stats(level: int, y: np.ndarray, cost: float) -> LevelStats:
    return LevelStats(
        level=level,
        mean=float(np.mean(y)),
        variance=float(np.var(y, ddof=1)) if y.size > 1 else 0.0,
        cost=cost,
        n=y.size,
    )


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
    return _level_stats(level, coupled_sample(h, level, n, rng, ledger), h.coupled_cost(level))


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
        se_target=eps,
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
    variances are computed over the full array, independent of batching).

    ``stats`` is computed once per ``add``: it joins the batches into one
    array and caches the result until the next ``add``."""

    level: int
    cost: float
    dim: int
    batches: list = field(default_factory=list)
    n: int = 0
    _stats: LevelStats | None = None

    def add(self, y: np.ndarray) -> None:
        self.batches.append(y)
        self.n += y.size
        self._stats = None

    def stats(self) -> LevelStats:
        if self._stats is None:
            if len(self.batches) != 1:
                self.batches = [np.concatenate(self.batches) if self.batches else np.empty(0)]
            self._stats = _level_stats(self.level, self.batches[0], self.cost)
        return self._stats


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
    variance budget is used with no bias test.  ``max_cost`` is checked
    before every batch, pilots included: a batch that would take the
    ledger past it raises ``BudgetError`` instead of being drawn.
    """
    if eps <= 0.0:
        raise InvalidParameterError("eps must be positive")
    if initial_samples < 2:
        # One sample per level has no variance to allocate by.
        raise InvalidParameterError("mlmc_estimate needs initial_samples >= 2")
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
        if max_cost is not None and ledger.total() + need * acc.cost > max_cost:
            raise BudgetError(f"mlmc would exceed max_cost={max_cost}")
        stream = rng.split(acc.level).advance(acc.n * acc.dim)
        acc.add(coupled_sample(h, acc.level, need, stream, ledger))

    t0 = time.perf_counter()
    for lv in range(top + 1):
        add_level(lv)
        top_up(accs[-1], initial_samples)
    t1 = time.perf_counter()

    plan = None
    alpha_hat = None
    converged = not adaptive
    for _round in range(_MAX_ROUNDS):
        for acc in accs:  # the pilot of a level added in the last round
            top_up(acc, initial_samples)
        stats = [acc.stats() for acc in accs]
        plan = mlmc_allocation(stats, eps_alloc)
        needed = [
            max(want - acc.n, 0) for want, acc in zip(plan.n_per_level, accs)
        ]
        if any(needed):
            for acc, want in zip(accs, plan.n_per_level):
                top_up(acc, want)
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
    else:
        flags.append("round_limit_reached")

    flags += plan.flags
    stats = [acc.stats() for acc in accs]
    if "all_level_variances_zero" in plan.flags:
        # Any sample count meets the target, so the plan is the samples drawn.
        plan = replace(
            plan,
            n_per_level=tuple(s.n for s in stats),
            predicted_cost=float(np.dot([s.n for s in stats], [s.cost for s in stats])),
        )
    phase_seconds = {"pilot": t1 - t0, "rounds": time.perf_counter() - t1}
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
    return MlmcResult(report=report, plan=plan, levels=stats, phase_seconds=phase_seconds)


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
    """MLMC on the hierarchy (coarse, fine) under a work budget: coarse
    mean plus a coupled fine-minus-coarse correction.

    A coupled pilot estimates V_0 and V_1; the budget B left after it is
    split by the budget form of the ``mlmc_allocation`` rule,
    N_l = xi * sqrt(V_l / C_l) with xi = B / sum(sqrt(V_l * C_l)), each
    count floored to 2 and the leftover spent on coarse samples.
    ``coarsen`` is the hierarchy's map from fine to coarse inputs.
    """
    if pilot_n < 2:
        raise InvalidParameterError("two_level_estimate needs pilot_n >= 2")
    h = LevelHierarchy((coarse, fine), input, coarsen)
    ledger = ledger if ledger is not None else CostLedger()
    c0, c1 = h.coupled_cost(0), h.coupled_cost(1)

    pilot_cost = pilot_n * c1
    if budget < pilot_cost + 2 * c0 + 2 * c1:
        raise BudgetError(
            f"budget {budget} cannot cover a {pilot_n}-sample pilot plus 2 samples per term"
        )
    y, yc = _coupled_outputs(h, 1, pilot_n, rng.split(_PILOT_STREAM), ledger)
    v0 = float(np.var(yc, ddof=1))
    v1 = float(np.var(y - yc, ddof=1))
    remaining = budget - pilot_cost

    flags = []
    if v1 == 0.0:
        # Fine and coarse agree sample-for-sample: the correction carries no
        # information, so spend everything on the coarse term.
        flags.append("zero_correction_variance")
        n0, n1 = max(2, int(remaining // c0)), 0
    else:
        if v0 == 0.0:
            # A constant coarse model needs only its floor of 2 samples.
            n0_f, n1_f = 2.0, (remaining - 2 * c0) / c1
        else:
            xi = remaining / (math.sqrt(v0 * c0) + math.sqrt(v1 * c1))
            n0_f, n1_f = xi * math.sqrt(v0 / c0), xi * math.sqrt(v1 / c1)
        n0, n1 = max(2, int(n0_f)), max(2, int(n1_f))
        if n0 * c0 + n1 * c1 > remaining:
            raise BudgetError("budget too small for 2 samples per term after the pilot")
        n0 += int((remaining - n0 * c0 - n1 * c1) // c0)

    stats = [
        level_statistics(h, lv, n, rng.split(_TERM_STREAM + lv), ledger)
        for lv, n in enumerate((n0, n1))
        if n
    ]
    return EstimateReport(
        estimate=float(sum(s.mean for s in stats)),
        estimator_variance=float(sum(s.variance / s.n for s in stats)),
        n_per_model={coarse.id: pilot_n + n0 + n1, fine.id: pilot_n + n1},
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
