"""Deterministic computational models with cost accounting, plus built-in
benchmark problems used by the tests, demos, and CLI.

Costs are abstract work units declared per evaluation, never measured
time, so allocation decisions and reports are exactly reproducible.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .distributions import _EVAL_CHUNK, Dataset, Distribution, Family
from .exceptions import EvaluationError, InvalidParameterError


@dataclass(frozen=True)
class Model:
    """A pure map from input vectors to scalar outputs.

    ``fn`` receives an (n, input_dim) array and must return an (n,) array;
    identical inputs must produce identical outputs.  ``mc.draw_evaluate``
    may call it at the same time on disjoint row blocks from two threads,
    so it must be pure: no state shared between calls.
    """

    id: str
    fn: Callable[[np.ndarray], np.ndarray]
    cost_per_eval: float
    input_dim: int = 1

    def __post_init__(self):
        if self.cost_per_eval <= 0.0:
            raise InvalidParameterError("cost_per_eval must be positive")
        if self.input_dim < 1:
            raise InvalidParameterError("input_dim must be >= 1")


class CostLedger:
    """A run's one account: per-model evaluation counts, work units and
    measured evaluation seconds, and the wall seconds of each named phase.

    One ledger serves one run: ``EstimateReport.from_ledger``, the one
    constructor every estimator reports through, takes its ``counts`` as
    ``n_per_model`` and its ``total()`` as ``total_cost``.  Allocation
    only reads declared work units, and ``as_dict`` holds only counts and
    work, so reports stay exactly reproducible; the seconds in
    ``wall_time`` and ``phase_s`` are a diagnostic.  ``wall_time`` sums a
    model's evaluation seconds over every thread that ran its blocks, so
    it can exceed the wall seconds of the phase that spent them.
    """

    def __init__(self):
        self.counts: dict[str, int] = {}
        self.work: dict[str, float] = {}
        self.wall_time: dict[str, float] = {}
        self.phase_s: dict[str, float] = {}

    @contextmanager
    def phase(self, name: str):
        """Store the wall seconds of the ``with`` body in ``phase_s[name]``."""
        started = time.perf_counter()
        yield
        self.phase_s[name] = time.perf_counter() - started

    def charge(self, model: Model, n: int, elapsed: float = 0.0) -> None:
        self.counts[model.id] = self.counts.get(model.id, 0) + n
        self.work[model.id] = self.work.get(model.id, 0.0) + n * model.cost_per_eval
        self.wall_time[model.id] = self.wall_time.get(model.id, 0.0) + elapsed

    def count(self, model_id: str) -> int:
        return self.counts.get(model_id, 0)

    def total(self) -> float:
        return float(sum(self.work.values()))

    def as_dict(self) -> dict:
        return {
            "counts": dict(self.counts),
            "work": {k: float(v) for k, v in self.work.items()},
            "total": self.total(),
        }


def evaluate(
    model: Model,
    inputs,
    ledger: CostLedger | None = None,
) -> np.ndarray:
    """Evaluate a batch of input vectors, in input order.

    The ledger is charged len(inputs) * cost_per_eval.  A non-finite
    output aborts with the offending input rather than being dropped,
    since silently dropping samples biases every estimator built on top.
    The model runs once on all the rows: ``mc.draw_evaluate`` bounds its
    temporaries by passing blocks of rows.  The outputs are a copy, never
    a view of ``inputs``.
    """
    x = _as_inputs(model, inputs)
    n = x.shape[0]
    started = time.perf_counter()
    out = np.array(model.fn(x), dtype=np.float64)
    if out.shape != (n,):
        raise EvaluationError(f"model '{model.id}' returned shape {out.shape} for {n} inputs")
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        raise nonfinite_output(model, int(bad[0]), x[bad[0]].copy())
    if ledger is not None:
        ledger.charge(model, n, time.perf_counter() - started)
    return out


def _as_inputs(model: Model, inputs) -> np.ndarray:
    """``inputs`` as the float (n, input_dim) array ``model.fn`` takes."""
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise InvalidParameterError(
            f"model '{model.id}' expects input_dim={model.input_dim}, got shape {x.shape}"
        )
    return x


def nonfinite_output(model: Model, index: int, x_row: np.ndarray) -> EvaluationError:
    """The error for a non-finite output of ``model`` at sample ``index``."""
    return EvaluationError(
        f"model '{model.id}' produced non-finite output at sample {index}",
        index=index,
        x=x_row,
    )


@dataclass(frozen=True)
class LevelHierarchy:
    """Models of increasing accuracy and strictly increasing cost.

    ``input`` is the scalar distribution of each input coordinate (inputs
    are i.i.d. across a model's input_dim).  When dimensions differ across
    levels, ``coarsen`` maps a level-l input batch to the level-(l-1)
    batch driven by the same underlying randomness, which is what makes
    coupled corrections contract.  ``coarsen`` must be row-wise (row i of
    its output depends on row i of its input only), so coupled samples
    can be drawn and evaluated in blocks of rows.
    """

    levels: tuple[Model, ...]
    input: Distribution
    coarsen: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        levels = tuple(self.levels)
        if not levels:
            raise InvalidParameterError("hierarchy needs at least one level")
        costs = [m.cost_per_eval for m in levels]
        if any(b <= a for a, b in zip(costs, costs[1:])):
            raise InvalidParameterError("level costs must be strictly increasing")
        dims = {m.input_dim for m in levels}
        if len(dims) > 1 and self.coarsen is None:
            raise InvalidParameterError("levels with differing input_dim need a coarsen map")
        object.__setattr__(self, "levels", levels)

    @property
    def max_level(self) -> int:
        return len(self.levels) - 1

    def coupled_models(self, level: int) -> tuple[Model, ...]:
        """The models of one coupled sample at ``level``, all taking level
        ``level``'s inputs: ``(fine,)`` at level 0, else ``(fine, coarse)``.
        When the input dimensions differ, ``coarse`` keeps the coarse
        level's id and cost and evaluates it on ``coarsen(x)``, checked as
        ``evaluate`` checks its inputs."""
        fine = self.levels[level]
        if level == 0:
            return (fine,)
        coarse = self.levels[level - 1]
        if coarse.input_dim != fine.input_dim:
            coarse = Model(
                coarse.id,
                lambda x, m=coarse: m.fn(_as_inputs(m, self.coarsen(x))),
                coarse.cost_per_eval,
                fine.input_dim,
            )
        return (fine, coarse)

    def coupled_cost(self, level: int) -> float:
        """Work units for one coupled sample at the given level."""
        return sum(m.cost_per_eval for m in self.coupled_models(level))


@dataclass(frozen=True)
class FidelityEnsemble:
    """One high-fidelity model and its cheaper surrogates.

    All members share the same input space; the low-fidelity ordering is
    validated (and possibly pruned) from pilot statistics before use.
    """

    high: Model
    lows: tuple[Model, ...]

    def __post_init__(self):
        lows = tuple(self.lows)
        dims = {self.high.input_dim} | {m.input_dim for m in lows}
        if len(dims) > 1:
            raise InvalidParameterError("ensemble members must share input_dim")
        object.__setattr__(self, "lows", lows)

    @property
    def all_models(self) -> tuple[Model, ...]:
        return (self.high,) + self.lows


@dataclass(frozen=True)
class ProblemBundle:
    """A fully configured benchmark problem.

    Exactly one of ``model``, ``hierarchy`` and ``ensemble`` is set; the
    CLI takes the one its method needs.  ``input`` is None when the input
    law is to be inferred from ``dataset`` (``smalldata_demo``)."""

    name: str
    input: Distribution | None
    model: Model | None = None
    hierarchy: LevelHierarchy | None = None
    ensemble: FidelityEnsemble | None = None
    truth: dict = field(default_factory=dict)
    dataset: Dataset | None = None


# Ten positive observations bundled for the small-data demo.
SMALLDATA_VALUES = (
    1.73, 3.42, 0.88, 2.15, 4.61, 1.02, 2.94, 1.48, 3.07, 0.67,
)


def _quadratic(params: dict) -> ProblemBundle:
    _reject_unknown(params, set(), "quadratic")
    model = Model("quadratic", lambda x: x[:, 0] ** 2, cost_per_eval=1.0)
    return ProblemBundle(
        name="quadratic",
        model=model,
        input=Distribution(Family.NORMAL, (0.0, 1.0)),
        truth={"mean": 1.0, "variance": 2.0},
    )


def _gbm_euler(params: dict) -> ProblemBundle:
    _reject_unknown(params, {"s0", "r", "sigma", "T", "max_level"}, "gbm_euler")
    s0 = float(params.get("s0", 1.0))
    r = float(params.get("r", 0.05))
    sigma = float(params.get("sigma", 0.2))
    horizon = float(params.get("T", 1.0))
    max_level = int(params.get("max_level", 8))
    if s0 <= 0 or sigma < 0 or horizon <= 0 or max_level < 0:
        raise InvalidParameterError("gbm_euler needs s0>0, sigma>=0, T>0, max_level>=0")

    def make_level(level: int) -> Model:
        steps = 2**level
        dt = horizon / steps
        c1, c2 = 1.0 + r * dt, sigma * math.sqrt(dt)

        def fn(z: np.ndarray) -> np.ndarray:
            # s <- s * (c1 + c2 z_j), column by column.  Each panel of
            # ``width`` columns holds its factors, with s multiplied into
            # the first, and one multiply.reduce down axis 0 applies them in
            # column order (numpy multiplies sequentially), so every product
            # matches a column-by-column loop bit for bit at four numpy
            # calls per panel instead of three per column.  A panel is 128
            # columns wide, or holds _EVAL_CHUNK factors when that is wider,
            # so a block of few rows pays for few panels.
            n, cols = z.shape
            width = max(128, _EVAL_CHUNK // max(n, 1))
            s = s0
            panel = np.empty((min(cols, width), n))
            for lo in range(0, cols, width):
                f = panel[: min(cols - lo, width)]
                np.multiply(z[:, lo : lo + width].T, c2, out=f)
                np.add(f, c1, out=f)
                np.multiply(f[0], s, out=f[0])
                s = np.multiply.reduce(f, axis=0)
            return s

        return Model(f"gbm_l{level}", fn, cost_per_eval=float(steps), input_dim=steps)

    def coarsen(z: np.ndarray) -> np.ndarray:
        # Sum of two fine Brownian increments is one coarse increment;
        # in standardized units that is (z1 + z2) / sqrt(2).
        coarse = np.add(z[:, 0::2], z[:, 1::2])
        coarse /= math.sqrt(2.0)
        return coarse

    hierarchy = LevelHierarchy(
        levels=tuple(make_level(l) for l in range(max_level + 1)),
        input=Distribution(Family.NORMAL, (0.0, 1.0)),
        coarsen=coarsen,
    )
    return ProblemBundle(
        name="gbm_euler",
        hierarchy=hierarchy,
        input=hierarchy.input,
        truth={"mean": s0 * math.exp(r * horizon)},
    )


def _poly_fidelity(params: dict) -> ProblemBundle:
    _reject_unknown(params, {"cost_hi", "cost_lo"}, "poly_fidelity")
    cost_hi = float(params.get("cost_hi", 1.0))
    cost_lo = [float(c) for c in params.get("cost_lo", (0.1, 0.02))]
    if len(cost_lo) > 2:
        raise InvalidParameterError("poly_fidelity has at most 2 low-fidelity members")

    high = Model(
        "poly_hi",
        lambda x: x[:, 0] + 0.1 * x[:, 0] ** 2 + 0.01 * np.sin(5.0 * x[:, 0]),
        cost_per_eval=cost_hi,
    )
    lows_all = [
        Model("poly_lo1", lambda x: x[:, 0] + 0.1 * x[:, 0] ** 2, cost_per_eval=cost_lo[0]),
    ]
    if len(cost_lo) > 1:
        lows_all.append(Model("poly_lo2", lambda x: x[:, 0], cost_per_eval=cost_lo[1]))
    ensemble = FidelityEnsemble(high=high, lows=tuple(lows_all))
    # Gaussian-moment truth: E[sin(aX)] = 0, E[X sin(aX)] = a exp(-a^2/2),
    # E[sin(aX)^2] = (1 - exp(-2a^2))/2 for X ~ N(0,1).
    a = 5.0
    exs = a * math.exp(-a * a / 2.0)
    var_s = 0.5 * (1.0 - math.exp(-2.0 * a * a))
    var_lo1 = 1.0 + 0.01 * 2.0  # Var[X + 0.1 X^2]
    cov_hi_lo1 = var_lo1 + 0.01 * exs
    var_hi = var_lo1 + 1e-4 * var_s + 2.0 * 0.01 * exs
    means = {"poly_hi": 0.1, "poly_lo1": 0.1, "poly_lo2": 0.0}
    rho1 = cov_hi_lo1 / math.sqrt(var_hi * var_lo1)
    rho2 = (1.0 + 0.01 * exs) / math.sqrt(var_hi)
    return ProblemBundle(
        name="poly_fidelity",
        ensemble=ensemble,
        input=Distribution(Family.NORMAL, (0.0, 1.0)),
        truth={
            "mean": 0.1,
            "variance": var_hi,
            "low_means": [means[m.id] for m in ensemble.lows],
            "rho": [rho1, rho2][: len(ensemble.lows)],
        },
    )


def _smalldata_demo(params: dict) -> ProblemBundle:
    _reject_unknown(params, set(), "smalldata_demo")
    model = Model("smalldata_exp", lambda x: np.exp(0.3 * x[:, 0]), cost_per_eval=1.0)
    return ProblemBundle(
        name="smalldata_demo",
        model=model,
        input=None,
        dataset=Dataset(np.asarray(SMALLDATA_VALUES)),
    )


_BUILTINS = {
    "quadratic": _quadratic,
    "gbm_euler": _gbm_euler,
    "poly_fidelity": _poly_fidelity,
    "smalldata_demo": _smalldata_demo,
}


def _reject_unknown(params: dict, allowed: set, name: str) -> None:
    unknown = set(params) - allowed
    if unknown:
        raise InvalidParameterError(f"unknown {name} params: {sorted(unknown)}")


def builtin_problem(name: str, params: dict | None = None) -> ProblemBundle:
    """Look up a built-in benchmark problem by name."""
    if name not in _BUILTINS:
        raise InvalidParameterError(
            f"unknown problem '{name}'; available: {sorted(_BUILTINS)}"
        )
    try:
        return _BUILTINS[name](dict(params or {}))
    except (TypeError, ValueError, OverflowError) as exc:  # e.g. {"sigma": "high"}
        raise InvalidParameterError(f"{name} params: {exc}") from exc
