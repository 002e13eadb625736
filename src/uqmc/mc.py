"""Standard Monte Carlo and control variates, and the streamed input
layer that they, MFMC and MLMC share.

Substream layout shared by both estimators: split(0) draws the main
sample and split(1) the control-variate pilot, so a control-variate run
draws the same main sample as ``mc_estimate`` on the same stream.  The
two-level estimator is MLMC with one correction and lives in ``mlmc``.

Every estimator with a ``Distribution`` input (MC, CV, MFMC, MLMC and
two-level) goes through ``draw_evaluate``: it draws and evaluates the
input matrix in blocks of ``_EVAL_CHUNK`` draws (at least one row), so
the full matrix never exists.  The estimators keep no outputs either:
each block is reduced once, with every model's outputs on its rows, to
its moments (MC, CV, their pilots, each MLMC and two-level batch) or
prefix sums (MFMC's main sample), and the blocks are merged in block
order.  Only an ``mc`` run that dumps its samples stores outputs.  Row i
always consumes the same draw indices, so every output is independent of
the block size; a sum over more than one block depends on the block
boundaries, fixed by ``_block_rows``, in its last bits only.  A call of
more than ``_EVAL_CHUNK`` draws runs its blocks on every usable core.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from ._threads import fan_out, workers
from .distributions import _EVAL_CHUNK, Distribution, _borrowed, draw_into
from .exceptions import EstimatorError, EvaluationError, InvalidParameterError
from .models import CostLedger, Model, evaluate, nonfinite_output
from .reports import EstimateReport
from .rng import RngStream

_MAIN, _PILOT = 0, 1


def draw_inputs(
    dist: Distribution, rng: RngStream, n: int, dim: int = 1, buf: np.ndarray | None = None
) -> np.ndarray:
    """(n, dim) i.i.d. input matrix; row i consumes draw indices
    [i*dim, (i+1)*dim), so each row is reproducible in isolation.  With
    ``buf`` (a float64 array of at least n*dim elements) the matrix is
    drawn into its first n*dim elements."""
    out = np.empty((n, dim)) if buf is None else buf[: n * dim].reshape(n, dim)
    return draw_into(dist, rng, out)


def _block_rows(dim: int) -> int:
    """Rows per ``draw_evaluate`` block: ``_EVAL_CHUNK`` draws (at least
    one row), so every block of at most ``_EVAL_CHUNK`` input columns fits
    the reused per-thread buffer, and a fine MLMC level of a few rows per
    block still fans its blocks out over the usable cores."""
    return max(_EVAL_CHUNK // dim, 1)


def draw_evaluate(
    models, counts, dist: Distribution, rng: RngStream, ledger: CostLedger | None, reduce
) -> list:
    """``reduce`` of the outputs of ``models[j]`` on the first ``counts[j]``
    rows of ``draw_inputs(dist, rng, max(counts), dim)``, block by block,
    without building it.

    The rows go in blocks of ``_EVAL_CHUNK`` draws (``_block_rows``); each
    block is drawn once, at its own draw indices, into a reused per-thread
    buffer when it holds at most ``_EVAL_CHUNK`` draws, and evaluated by
    every model that needs its rows, in model order.  Then ``reduce(lo,
    ys)`` runs once for the block, on the thread that evaluated it:
    ``ys[j]`` is model j's outputs (``evaluate``'s copy, which it may
    overwrite) on rows [lo, lo + ys[j].size), or None where model j's
    count ends before the block.  The call returns the results of
    ``reduce``, one per block in block order; the caller merges them in
    that order.  A call of more than ``_EVAL_CHUNK`` draws spreads its blocks
    over the usable cores (``_threads``), so every ``fn`` and ``reduce``
    may run on two blocks at once; blocks are fixed by ``_block_rows``, so
    the results do not depend on the thread count.

    The ledger is charged once per model with its full count and the
    seconds of its evaluations summed over blocks, so its work sums match
    one ``evaluate`` call per model.  Errors of every kind match them too:
    the lowest failing model in order raises the error of its first
    failing block, a non-finite output with its global sample index, and
    only the models before it are charged.  A block in which a model
    failed is not reduced.  A shape error names the rows of the block it
    came from.
    """
    return draw_evaluate_walks([(models, counts, dist, rng, reduce)], ledger)[0]


def draw_evaluate_walks(walks, ledger: CostLedger | None) -> list[list]:
    """``draw_evaluate`` of each walk (models, counts, dist, rng, reduce), the
    blocks of every walk in one fan-out: one result list per walk, in walk
    order.  Each walk keeps its own blocks, so no value depends on which
    walks share the call or on the thread count.

    The walks are then settled in order, each as ``draw_evaluate`` settles
    its one: charged, and raising the error of its lowest failing model.
    The first walk that fails raises, and no later walk is charged, as a
    loop of one ``draw_evaluate`` per walk would leave the ledger.  An
    error raised outside the models, by a draw or a ``reduce``, leaves the
    fan-out before any walk is charged.
    """
    shapes = [(models[0].input_dim, max(counts)) for models, counts, *_ in walks]

    def block(item: tuple[int, int]) -> tuple[list[float], object, tuple[int, Exception] | None]:
        """Seconds per model of walk k on rows [lo, lo + rows), the result of
        its ``reduce``, and the first failure there with its model index:
        later models skip the block, and it is not reduced."""
        k, lo = item
        models, counts, dist, rng, reduce = walks[k]
        dim, n = shapes[k]
        hi = min(lo + _block_rows(dim), n)
        seconds = [0.0] * len(models)
        ys = [None] * len(models)
        with _borrowed("x", (hi - lo) * dim) as buf:
            x = draw_inputs(dist, rng.advance(lo * dim), hi - lo, dim, buf)
            for j, c in enumerate(counts):
                if c <= lo:
                    continue
                started = perf_counter()
                try:
                    ys[j] = evaluate(models[j], x[: min(c, hi) - lo])
                except Exception as exc:
                    if isinstance(exc, EvaluationError) and exc.index is not None:
                        exc = nonfinite_output(models[j], lo + exc.index, exc.x)  # index it globally
                    return seconds, None, (j, exc)
                seconds[j] += perf_counter() - started
        return seconds, reduce(lo, ys), None

    starts = [range(0, n, _block_rows(dim)) for dim, n in shapes]
    items = [(k, lo) for k, walk in enumerate(starts) for lo in walk]
    done = fan_out(block, items, workers(sum(dim * n for dim, n in shapes)))
    results = []
    end = 0
    for (models, counts, *_), walk in zip(walks, starts):
        mine, end = done[end : end + len(walk)], end + len(walk)
        # The lowest failing model stops the walk at its first failing block,
        # as a serial loop of one ``evaluate`` per model would.
        stop, error = len(models), None
        for _, _, failed in mine:
            if failed is not None and failed[0] < stop:
                stop, error = failed
        if ledger is not None:
            for j in range(stop):
                ledger.charge(models[j], counts[j], sum(s[j] for s, _, _ in mine))
        if error is not None:
            raise error
        results.append([result for _, result, _ in mine])
    return results


@dataclass
class _Moments:
    """Count, means and co-moments of k series, which it does not keep:
    ``m2[i, j]`` sums (y_i - mean_i)(y_j - mean_j).  ``of`` takes a block's,
    and ``merge`` adds another's by the pairwise update of Chan, Golub &
    LeVeque (1983) in Pébay's co-moment form (SAND2008-6212).  One block
    gives ``np.mean``, ``np.var`` and ``np.cov`` bit for bit; merges move
    only the last bits.  MC, CV, MLMC, two-level and every pilot merge
    their blocks so, and each MLMC level its top-up batches."""

    n: int = 0
    mean: np.ndarray | float = 0.0  # (k,)
    m2: np.ndarray | float = 0.0  # (k, k)

    @classmethod
    def of(cls, *ys: np.ndarray) -> "_Moments":
        """The moments of k float64 arrays of one length; a lone one is
        overwritten.  numpy's arithmetic: the diagonal of M2 is a pairwise
        sum, as in ``np.var``, the rest the ``np.dot`` of ``np.cov``, a
        k-row dsyrk that OpenBLAS keeps on the calling thread (``_GEMM_MNK``)."""
        y = np.stack(ys) if len(ys) > 1 else ys[0][None]
        mean = np.add.reduce(y, axis=1) / y.shape[1]
        d = np.subtract(y, mean[:, None], out=y)
        m2 = np.dot(d, d.T) if len(ys) > 1 else np.empty((1, 1))
        m2.flat[:: len(ys) + 1] = np.add.reduce(np.square(d, out=d), axis=1)
        return cls(y.shape[1], mean, m2)

    @classmethod
    def merged(cls, parts) -> "_Moments":
        acc = cls()
        for part in parts:
            acc.merge(part)
        return acc

    def merge(self, other: "_Moments") -> None:
        if self.n:
            n = self.n + other.n
            delta = other.mean - self.mean
            self.mean = self.mean + delta * (other.n / n)
            self.m2 = self.m2 + other.m2 + np.multiply.outer(delta, delta) * (self.n * other.n / n)
            self.n = n
        else:
            self.n, self.mean, self.m2 = other.n, other.mean, other.m2

    def var(self, i: int = 0, ddof: int = 1) -> float:
        return float(self.m2[i, i] / (self.n - ddof))

    def cov(self, i: int, j: int) -> float:
        """The unbiased covariance, scaled by 1 / (n - 1) as ``np.cov`` does."""
        return float(self.m2[i, j] * (1 / (self.n - 1)))


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
    return _mc_run(model, input, n, rng, ledger)


def _mc_run(
    model: Model,
    input: Distribution,
    n: int,
    rng: RngStream,
    ledger: CostLedger | None = None,
    samples: np.ndarray | None = None,
) -> EstimateReport:
    """``mc_estimate``, which reduces each block of outputs to its moments.
    With ``samples`` (n floats) it also writes the outputs there, row i of
    them on row i of ``draw_inputs(input, rng.split(0), n, model.input_dim)``."""
    if n < 2:
        raise InvalidParameterError("mc_estimate needs n >= 2 for a variance estimate")
    ledger = ledger if ledger is not None else CostLedger()

    def moments(lo: int, ys: list) -> _Moments:
        (y,) = ys
        if samples is not None:
            samples[lo : lo + y.size] = y
        return _Moments.of(y)

    blocks = draw_evaluate([model], [n], input, rng.split(_MAIN), ledger, moments)
    return _mean_report(ledger, rng.seed, "mc", _Moments.merged(blocks), {})


def _mean_report(
    ledger: CostLedger, seed: int, method: str, m: _Moments, diagnostics: dict
) -> EstimateReport:
    """The report of a sample mean (MC and CV) from its moments: its
    variance is zeta_sq / n, zeta_sq = M2 / (n - 1) the unbiased sample
    variance, and the diagnostics add zeta_sq and its biased M2 / n
    variant to ``diagnostics``."""
    zeta_sq = m.var()
    return EstimateReport.from_ledger(
        ledger, seed, method,
        estimate=float(m.mean[0]),
        estimator_variance=zeta_sq / m.n,
        diagnostics=diagnostics | {"zeta_sq": zeta_sq, "zeta_sq_biased": m.var(ddof=0)},
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
        pilot = _Moments.merged(draw_evaluate(
            [model, cfg.control], [cfg.pilot_n] * 2, input, rng.split(_PILOT), ledger,
            lambda lo, ys: _Moments.of(*ys),
        ))
        var_g = pilot.var(1)
        if var_g == 0.0:
            raise EstimatorError("control variate is constant on the pilot sample")
        cov = pilot.cov(0, 1)
        lam = cov / var_g
        var_y = pilot.var(0)
        rho_hat = cov / np.sqrt(var_y * var_g) if var_y > 0.0 else 0.0
    lam = float(lam)

    blocks = draw_evaluate(
        [model, cfg.control], [n, n], input, rng.split(_MAIN), ledger,
        lambda lo, ys: _Moments.of(ys[0] - lam * (ys[1] - cfg.control_mean)),
    )
    return _mean_report(
        ledger, rng.seed, "cv", _Moments.merged(blocks),
        {"lambda": lam, "rho_pilot": rho_hat},
    )
