"""Standard Monte Carlo and control variates, and the streamed input
layer that they, MFMC and MLMC share.

Substream layout shared by both estimators: split(0) draws the main
sample and split(1) the control-variate pilot, so a control-variate run
draws the same main sample as ``mc_estimate`` on the same stream.  The
two-level estimator is MLMC with one correction and lives in ``mlmc``.

Every estimator with a ``Distribution`` input (MC, CV, MFMC, MLMC and
two-level) goes through ``draw_evaluate``: it draws and evaluates the
input matrix in blocks of ``_EVAL_CHUNK`` draws (at least 1 024 rows), so
the full matrix never exists.  Row i always consumes the same draw
indices, so every result is independent of the block size; a call of
more than ``_EVAL_CHUNK`` draws runs its blocks on every usable core.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from ._threads import fan_out, workers
from .distributions import _EVAL_CHUNK, Distribution, draw_into
from .exceptions import EstimatorError, EvaluationError, InvalidParameterError
from .models import CostLedger, Model, evaluate, nonfinite_output
from .reports import EstimateReport
from .rng import RngStream

_MAIN, _PILOT = 0, 1


def draw_inputs(dist: Distribution, rng: RngStream, n: int, dim: int = 1) -> np.ndarray:
    """(n, dim) i.i.d. input matrix; row i consumes draw indices
    [i*dim, (i+1)*dim), so each row is reproducible in isolation."""
    return draw_into(dist, rng, np.empty((n, dim)))


def _block_rows(dim: int) -> int:
    """Rows per ``draw_evaluate`` block: ``_EVAL_CHUNK`` draws, but at
    least ``_EVAL_CHUNK // 64`` rows (1 024).  A model such as GBM-Euler
    loops over its input columns in Python, so blocks of fewer rows at a
    fine level cost more interpreter time than the second core saves."""
    return max(_EVAL_CHUNK // dim, _EVAL_CHUNK // 64, 1)


def draw_evaluate(
    models, counts, dist: Distribution, rng: RngStream, ledger: CostLedger | None = None
) -> list[np.ndarray]:
    """Outputs of ``models[j]`` on the first ``counts[j]`` rows of
    ``draw_inputs(dist, rng, max(counts), dim)``, without building it.

    The rows go in blocks of ``_EVAL_CHUNK`` draws (``_block_rows``); each
    block is drawn once, at its own draw indices, and evaluated by every
    model that needs its rows, in model order, writing the outputs by
    index.  A call of more than ``_EVAL_CHUNK`` draws spreads its blocks
    over the usable cores (``_threads``), so every ``fn`` may run on two
    blocks at once; the outputs do not depend on the thread count.

    The ledger is charged once per model with its full count and the
    seconds of its evaluations summed over blocks, so its work sums match
    one ``evaluate`` call per model.  Errors of every kind match them too:
    the lowest failing model in order raises the error of its first
    failing block, a non-finite output with its global sample index, and
    only the models before it are charged.  A shape error names the rows
    of the block it came from.
    """
    dim = models[0].input_dim
    n = max(counts)
    rows = _block_rows(dim)
    ys = [np.empty(c) for c in counts]

    def block(lo: int) -> tuple[list[float], tuple[int, Exception] | None]:
        """Seconds per model on rows [lo, lo + rows), and the first
        failure there with its model index: later models skip the block."""
        hi = min(lo + rows, n)
        x = draw_inputs(dist, rng.advance(lo * dim), hi - lo, dim)
        seconds = [0.0] * len(models)
        for j, c in enumerate(counts):
            if c <= lo:
                continue
            m = min(c, hi) - lo
            started = perf_counter()
            try:
                ys[j][lo : lo + m] = evaluate(models[j], x[:m])
            except Exception as exc:
                if isinstance(exc, EvaluationError) and exc.index is not None:
                    exc = nonfinite_output(models[j], lo + exc.index, exc.x)  # index it globally
                return seconds, (j, exc)
            seconds[j] += perf_counter() - started
        return seconds, None

    done = fan_out(block, list(range(0, n, rows)), workers(n * dim))
    # The lowest failing model stops the walk at its first failing block,
    # as a serial loop of one ``evaluate`` per model would.
    stop, error = len(models), None
    for _, failed in done:
        if failed is not None and failed[0] < stop:
            stop, error = failed
    if ledger is not None:
        for j in range(stop):
            ledger.charge(models[j], counts[j], sum(s[j] for s, _ in done))
    if error is not None:
        raise error
    return ys


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
    return _mc_run(model, input, n, rng, ledger)[0]


def _mc_run(
    model: Model,
    input: Distribution,
    n: int,
    rng: RngStream,
    ledger: CostLedger | None = None,
) -> tuple[EstimateReport, np.ndarray]:
    """``mc_estimate`` and the n model outputs it averages, row i of them
    on row i of ``draw_inputs(input, rng.split(0), n, model.input_dim)``."""
    if n < 2:
        raise InvalidParameterError("mc_estimate needs n >= 2 for a variance estimate")
    ledger = ledger if ledger is not None else CostLedger()
    (y,) = draw_evaluate([model], [n], input, rng.split(_MAIN), ledger)
    return _mean_report(ledger, rng.seed, "mc", y, {}), y


def _mean_report(
    ledger: CostLedger, seed: int, method: str, y: np.ndarray, diagnostics: dict
) -> EstimateReport:
    """The report of the sample mean of ``y`` (MC and CV): its variance is
    zeta_sq / n, zeta_sq the 1/(n-1) sample variance, and the diagnostics
    add zeta_sq and its biased 1/n variant to ``diagnostics``."""
    zeta_sq = float(np.var(y, ddof=1))
    return EstimateReport.from_ledger(
        ledger, seed, method,
        estimate=float(np.mean(y)),
        estimator_variance=zeta_sq / y.size,
        diagnostics=diagnostics | {"zeta_sq": zeta_sq, "zeta_sq_biased": float(np.var(y))},
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
        yp, gp = draw_evaluate(
            [model, cfg.control], [cfg.pilot_n] * 2, input, rng.split(_PILOT), ledger
        )
        var_g = float(np.var(gp, ddof=1))
        if var_g == 0.0:
            raise EstimatorError("control variate is constant on the pilot sample")
        cov = float(np.cov(yp, gp, ddof=1)[0, 1])
        lam = cov / var_g
        var_y = float(np.var(yp, ddof=1))
        rho_hat = cov / np.sqrt(var_y * var_g) if var_y > 0.0 else 0.0
    lam = float(lam)

    y, g = draw_evaluate([model, cfg.control], [n, n], input, rng.split(_MAIN), ledger)
    adjusted = y - lam * (g - cfg.control_mean)
    return _mean_report(ledger, rng.seed, "cv", adjusted, {"lambda": lam, "rho_pilot": rho_hat})
