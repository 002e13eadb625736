"""Multilevel Monte Carlo: coupled per-level statistics, cost-optimal
sample allocation, the adaptive estimator loop, and the two-level
estimator (MLMC with one correction, under a work budget).

Both estimators report, through ``_telescoped``, the telescoping sum of
coupled corrections Y_l = M(l) - M(l-1), drawn by ``coupled_sample``:
the models of ``LevelHierarchy.coupled_models(l)`` go through
``mc.draw_evaluate``, the draw-and-evaluate walk of every estimator with
a ``Distribution`` input, so a batch's input matrix is drawn and
coarsened block by block and never held whole.  Each block of
corrections is reduced to its count, mean and M2 once both levels have
evaluated it, and each block of the two-level pilot to the moments of its
coarse outputs and corrections, so no batch, level or pilot keeps its
samples.  Substream layout:

- ``mlmc_estimate`` draws level l on split(l), its counter continuing
  across top-up rounds, so adding samples or levels never perturbs draws
  already taken;
- ``two_level_estimate`` draws its pilot on split(1), the coarse term
  Y_0 on split(2) and the correction Y_1 on split(3).

The adaptive loop follows Giles (Acta Numerica 2015): only the starting
levels 0..2 draw a fixed ``initial_samples`` first batch.  A level added
by the bias test is sized from the variance V_{L-1} / 2^beta,
extrapolated with the decay rate beta fit to the sampled levels, and
every round allocates levels l >= 2 by max(V_l, V_{l-1} / 2^(beta + 1)).
A new level therefore draws what the plan asks of it, not a fixed pilot,
and a level whose few samples happen to vary little is not starved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .distributions import Distribution
from .exceptions import BudgetError, InvalidParameterError
from .mc import _Moments, draw_evaluate
from .models import CostLedger, LevelHierarchy, Model
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
    xi: float
    predicted_cost: float
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class MlmcRound:
    """One round of ``mlmc_estimate``: the sample count of each level
    0..len(n) - 1 after the round, the variances V_l it allocated by
    (``floor_variances``, with a new level's extrapolated), and the
    remaining bias ``rem`` when the round ran the bias test."""

    n: tuple[int, ...]
    variance: tuple[float, ...]
    rem: float | None = None


@dataclass
class MlmcResult:
    report: EstimateReport
    plan: MlmcPlan
    levels: list[LevelStats]
    rounds: list[MlmcRound]


def coupled_sample(
    h: LevelHierarchy,
    level: int,
    n: int,
    rng: RngStream,
    ledger: CostLedger | None = None,
) -> _Moments:
    """The moments (``mc._Moments``) of n draws of the level correction
    Y_l, both models evaluated on the same inputs.  Each ``draw_evaluate``
    block reduces once both models have evaluated it: level 0's outputs,
    or the fine outputs minus the coarse ones, taken in place in the fine
    block.  The blocks merge in block order, so no batch of samples is
    built; over more than one block (``mc._block_rows``) the moments move
    in their last bits only, and never with the thread count."""

    def correction(lo: int, ys: list) -> _Moments:
        return _Moments.of(np.subtract(ys[0], ys[1], out=ys[0]) if level else ys[0])

    models = h.coupled_models(level)
    blocks = draw_evaluate(models, [n] * len(models), h.input, rng, ledger, correction)
    return _Moments.merged(blocks)


def level_statistics(
    h: LevelHierarchy,
    level: int,
    n: int,
    rng: RngStream,
    ledger: CostLedger | None = None,
) -> LevelStats:
    """Mean/variance of Y_l from n fresh coupled samples, reduced block by
    block (``coupled_sample``)."""
    if not 0 <= level <= h.max_level:
        raise InvalidParameterError(f"level {level} outside hierarchy 0..{h.max_level}")
    if n < 2:
        raise InvalidParameterError("level_statistics needs n >= 2")
    acc = _LevelAccumulator(level=level, cost=h.coupled_cost(level))
    acc.merge(coupled_sample(h, level, n, rng, ledger))
    return acc.stats


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
        xi=xi,
        predicted_cost=float(np.dot(n, c)),
        flags=flags,
    )


def _log2_slope(values: np.ndarray) -> float | None:
    """Least-squares slope of log2(values[i]) against level i + 1, over the
    positive values; None when fewer than two are positive."""
    ells = np.arange(1, len(values) + 1)
    nz = values > 0.0
    if np.count_nonzero(nz) < 2:
        return None
    return float(np.polyfit(ells[nz], np.log2(values[nz]), 1)[0])


def _decay_rate(values: np.ndarray) -> float:
    """Decay exponent r of values ~ 2^(-r l) over levels l >= 1, floored at
    0.5 to guard against noise-dominated fits."""
    slope = _log2_slope(values)
    return 0.5 if slope is None else max(0.5, -slope)


def remaining_bias(stats: list[LevelStats]) -> tuple[float, float]:
    """(rem, alpha): the extrapolated bias left beyond the finest level, and
    the decay exponent alpha of the correction means it is extrapolated by.

    alpha is fit by least squares on log2|mean_l| over l >= 1 (floored at
    0.5); rem = max(|mean_{L-1}| / 2^alpha, |mean_L|) / (2^alpha - 1).
    """
    if len(stats) < 3:
        raise InvalidParameterError("convergence test needs at least 3 levels")
    tail = np.abs([s.mean for s in stats[1:]])
    alpha = _decay_rate(tail)
    rem = max(tail[-2] / 2.0**alpha, tail[-1]) / (2.0**alpha - 1.0)
    return float(rem), alpha


def _bias_test(stats: list[LevelStats], eps: float) -> tuple[bool, float, float]:
    """(passed, alpha, rem): MLMC's bias rule, passed when ``remaining_bias``
    stays below eps/sqrt(2)."""
    rem, alpha = remaining_bias(stats)
    return bool(rem < eps / _ADAPT_SPLIT), alpha, rem


def mlmc_convergence_test(stats: list[LevelStats], eps: float) -> tuple[bool, float]:
    """Remaining-bias test on the decay of the correction means
    (``_bias_test``).  Returns (passed, alpha)."""
    return _bias_test(stats, eps)[:2]


def variance_decay_rate(stats: list[LevelStats]) -> float:
    """beta: decay exponent of the correction variances, V_l ~ 2^(-beta l),
    fit by least squares on log2 V_l over l >= 1 and floored at 0.5."""
    return _decay_rate(np.array([s.variance for s in stats[1:]]))


def floor_variances(stats: list[LevelStats], beta: float) -> list[LevelStats]:
    """The statistics the adaptive loop allocates by: V_l for l >= 2 is
    raised to at least half the extrapolation V_{l-1} / 2^beta, in level
    order, so a level whose few samples happen to vary little is not starved
    (Giles, Acta Numerica 2015)."""
    out = list(stats[:2])
    for s in stats[2:]:
        out.append(replace(s, variance=max(s.variance, 0.5 * out[-1].variance / 2.0**beta)))
    return out


@dataclass
class _LevelAccumulator(_Moments):
    """The count, mean and M2 of one level's correction samples
    (``mc._Moments``), into which each top-up batch's moments merge, so a
    level keeps no samples."""

    level: int = field(kw_only=True)
    cost: float = field(kw_only=True)

    @property
    def stats(self) -> LevelStats:
        variance = self.var() if self.n > 1 else 0.0
        return LevelStats(self.level, float(self.mean[0]), variance, self.cost, self.n)


def _telescoped(
    stats: list[LevelStats], ledger: CostLedger, seed: int, method: str, diagnostics: dict
) -> EstimateReport:
    """The report of the telescoping sum over the sampled levels: the sum
    of the correction means, with variance the sum of V_l / N_l."""
    return EstimateReport.from_ledger(
        ledger, seed, method,
        estimate=float(sum(s.mean for s in stats)),
        estimator_variance=float(sum(s.variance / s.n for s in stats)),
        diagnostics=diagnostics,
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
    """Adaptive multilevel estimator (Giles, Acta Numerica 2015).

    Starts from levels 0..2 (or fewer if the hierarchy is shorter) with
    ``initial_samples`` draws each, then alternates sample top-ups against
    the eps^2/2 variance target with the remaining-bias test at
    eps/sqrt(2), adding a level whenever the test fails.  Each round
    allocates by ``floor_variances`` with beta fit to the sampled levels
    (``variance_decay_rate``).  A new level draws no pilot: before its first
    draw its variance is extrapolated as V_{L-1} / 2^beta, and its first
    batch is the count the allocation then gives it, at least 2.  The
    returned ``plan`` is ``mlmc_allocation`` over the final sample
    statistics, with no floor or extrapolation, and ``rounds`` holds one
    ``MlmcRound`` per round.

    With ``fixed_level`` set, the level set 0..fixed_level is frozen, each
    level starts from ``initial_samples``, and the full eps^2 variance
    budget is allocated by the sample variances alone, with no bias test.
    ``max_cost`` is checked before every batch, the first ones included: a
    batch that would take the ledger past it raises ``BudgetError``
    instead of being drawn.  The ledger's ``pilot`` phase times the
    starting levels' first draws, its ``rounds`` phase the rounds after.
    """
    if eps <= 0.0:
        raise InvalidParameterError("eps must be positive")
    if initial_samples < 2:
        # One sample per level has no variance to allocate by.
        raise InvalidParameterError("mlmc_estimate needs initial_samples >= 2")
    if max_level is not None and max_level < 0:
        raise InvalidParameterError("max_level must be >= 0")
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
        accs.append(_LevelAccumulator(level=lv, cost=h.coupled_cost(lv)))

    def top_up(acc: _LevelAccumulator, want: int) -> None:
        need = want - acc.n
        if need <= 0:
            return
        if max_cost is not None and ledger.total() + need * acc.cost > max_cost:
            raise BudgetError(f"mlmc would exceed max_cost={max_cost}")
        stream = rng.split(acc.level).advance(acc.n * h.levels[acc.level].input_dim)
        acc.merge(coupled_sample(h, acc.level, need, stream, ledger))

    with ledger.phase("pilot"):
        for lv in range(top + 1):
            add_level(lv)
            top_up(accs[-1], initial_samples)

    trace: list[MlmcRound] = []

    def log_round(alloc: list[LevelStats], rem: float | None = None) -> None:
        trace.append(MlmcRound(tuple(a.n for a in accs), tuple(s.variance for s in alloc), rem))

    alpha_hat = rem = None
    converged = not adaptive
    with ledger.phase("rounds"):
        for rounds in range(1, _MAX_ROUNDS + 1):
            stats = [acc.stats for acc in accs if acc.n]
            alloc = stats
            if adaptive and len(stats) >= 3:
                beta = variance_decay_rate(stats)
                alloc = floor_variances(stats, beta)
                if len(stats) < len(accs):  # the level the bias test just added
                    new = accs[-1]
                    v_new = alloc[-1].variance / 2.0**beta
                    alloc.append(LevelStats(new.level, 0.0, v_new, new.cost, 0))
            want = mlmc_allocation(alloc, eps_alloc).n_per_level
            if any(w > acc.n for w, acc in zip(want, accs)):
                for acc, w in zip(accs, want):
                    top_up(acc, max(w, 2))
                log_round(alloc)
                continue
            tested = adaptive and len(stats) >= 3
            if tested:
                converged, alpha_hat, rem = _bias_test(stats, eps)
            log_round(alloc, rem)
            if converged:
                break
            if not tested:
                flags.append("bias_untested")
                break
            if len(accs) - 1 >= avail:
                flags.append("bias_target_unmet")
                break
            add_level(len(accs))
        else:
            flags.append("round_limit_reached")

    stats = [acc.stats for acc in accs if acc.n]
    plan = mlmc_allocation(stats, eps_alloc)
    flags += plan.flags
    if "all_level_variances_zero" in plan.flags:
        # Any sample count meets the target, so the plan is the samples drawn.
        plan = replace(
            plan,
            n_per_level=tuple(s.n for s in stats),
            predicted_cost=float(np.dot([s.n for s in stats], [s.cost for s in stats])),
        )
    report = _telescoped(
        stats, ledger, rng.seed, "mlmc",
        {
            "eps": eps,
            "alpha_hat": alpha_hat,
            "beta_hat": variance_decay_rate(stats) if len(stats) >= 3 else None,
            "gamma": _log2_slope(np.array([s.cost for s in stats[1:]])),
            "bias_estimate": rem,
            "converged": converged,
            "flags": flags,
            "levels_used": len(stats),
            "rounds": rounds,
        },
    )
    return MlmcResult(report, plan, stats, trace)


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
    pilot = _Moments.merged(draw_evaluate(
        h.coupled_models(1), [pilot_n] * 2, h.input, rng.split(_PILOT_STREAM), ledger,
        lambda lo, ys: _Moments.of(ys[1], ys[0] - ys[1]),
    ))
    v0, v1 = pilot.var(0), pilot.var(1)
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
    return _telescoped(
        stats, ledger, rng.seed, "two_level",
        {
            "pilot_v0": v0,
            "pilot_v1": v1,
            "n0": n0,
            "n1": n1,
            "flags": flags,
        },
    )
