"""Parametric distribution families: density, sampling, likelihood, MLE.

Five scalar families (normal, lognormal, gamma, weibull, uniform) with a
common two-parameter interface.  Gamma and Weibull use the shape/scale
parameterization.  Sampling is inverse-CDF on counter-based uniform
draws, so sample i of a stream is reproducible in isolation.  ``draw_into``
draws in blocks of ``_EVAL_CHUNK`` draw indices into a reused per-thread
buffer (``_borrowed``) and runs the ppf in place into the output, so no
full-size uniform array exists; results do not depend on the block size.

The ``family_logpdf`` / ``family_ppf`` kernels broadcast over parameter
arrays as well as argument arrays; evidence integrals, ``emsd`` and the
Metropolis walk reuse them to evaluate many parameter vectors at once.

Each log density has two forms.  The direct form, ``_logpdf_into``, writes
one formula per family into caller buffers; ``family_logpdf`` allocates
them.  The natural form writes the normal, lognormal, gamma and weibull
log densities as θ·T(x): natural parameters θ per parameter row
(``_natural_params``) against a few statistics T per point
(``_natural_stats``), so a block of rows x points is one small matrix
product (``_natural_logpdf_into``, through ``_matmul``); weibull also
subtracts exp(k·log x − k·log λ), a second product.  Normal and lognormal
statistics are centred on a location the caller picks, so a location of
1e6 with a scale of 1 cancels no digits.  The mixture log density and the
importance weights use the natural form; uniform rows take the direct
form inside it.  ``tests/test_natural_form.py`` holds the two forms to
within 1e-12 of each other, relative to max(1, |log density|), with the
same -inf and NaN.
"""

from __future__ import annotations

import enum
import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import gammainc, gammaincinv, gammaln, ndtr, ndtri, polygamma, psi

from .exceptions import (
    DegenerateDataError,
    FitConvergenceError,
    InvalidParameterError,
    SupportError,
)
from .rng import RngStream

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

# Draw indices per inverse-CDF block here and per ``mc.draw_evaluate``
# block, through which every estimator with a ``Distribution`` input draws
# and evaluates; ``_threads`` reads it as its fan-out threshold.
_EVAL_CHUNK = 65536

# (row, point) pairs per block of a pass that lays parameter rows against
# points: the mixture log density, the ``emsd`` integrand and the evidence
# likelihoods (``_block_len``).  2 ** 18 pairs are 2 MiB of doubles a block.
_BLOCK_PAIRS = 2**18

# Multiply-adds per dgemm call of ``_matmul``, at most.  OpenBLAS keeps a
# dgemm of up to 2 ** 18 on the calling thread, so a call inside
# ``_threads.fan_out`` starts no threads of its own.
_GEMM_MNK = 2**18

# Each thread's reusable block buffers, by slot name (``_borrowed``).
_scratch = threading.local()

# Newton tolerance on the per-datum profile score for gamma/weibull fits.
_SCORE_TOL = 1e-10
_MAX_NEWTON_ITER = 100


class Family(str, enum.Enum):
    NORMAL = "normal"
    LOGNORMAL = "lognormal"
    GAMMA = "gamma"
    WEIBULL = "weibull"
    UNIFORM = "uniform"

    @property
    def param_count(self) -> int:
        return 2

    @property
    def param_names(self) -> tuple[str, str]:
        return _PARAM_NAMES[self]

    @property
    def positive_support(self) -> bool:
        """True when the support is (0, inf)."""
        return self in (Family.LOGNORMAL, Family.GAMMA, Family.WEIBULL)

    @property
    def positive_params(self) -> tuple[bool, bool]:
        """Which of the two parameters must be positive (shape, scale, sigma)."""
        return (self in (Family.GAMMA, Family.WEIBULL), self is not Family.UNIFORM)


_PARAM_NAMES = {
    Family.NORMAL: ("mu", "sigma"),
    Family.LOGNORMAL: ("mu", "sigma"),
    Family.GAMMA: ("shape", "scale"),
    Family.WEIBULL: ("shape", "scale"),
    Family.UNIFORM: ("lower", "upper"),
}


def family_logpdf(family: Family, a, b, x) -> np.ndarray:
    """Log density with broadcasting over parameters and argument.

    Out-of-support arguments yield -inf; invalid parameter combinations
    (non-positive scale/shape, upper <= lower) also yield -inf rather
    than raising, which lets vectorized parameter sweeps self-filter.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    shape = np.broadcast(a, b, x).shape
    lx, outside = _log_argument(x) if family.positive_support else (None, None)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _logpdf_into(family, a, b, x, lx, outside, np.empty(shape), np.empty(shape))


def _block_len(n: int) -> int:
    """Entries per block along one axis of a (row, point) pass whose other
    axis holds ``n`` entries, all kept: ``_BLOCK_PAIRS // n``, at least 1."""
    return max(1, _BLOCK_PAIRS // n)


def _log_argument(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``log x`` where 0 < x < inf (0 elsewhere) and the mask of points
    outside (0, inf), +inf and NaN included: what ``_logpdf_into`` reads for
    the positive-support families, which write -inf at every point of the
    mask."""
    inside = (x > 0.0) & (x < np.inf)
    return np.log(np.where(inside, x, 1.0)), ~inside


def _logpdf_into(family: Family, a, b, x, lx, outside, out, tmp) -> np.ndarray:
    """Write the log density of ``family`` at ``x`` into ``out`` and return it.

    The one copy of every family formula.  ``out`` and ``tmp`` are work
    buffers of the broadcast shape of (a, b, x); ``lx`` and ``outside`` come
    from ``_log_argument(x)`` and are read only by the positive-support
    families, so callers evaluating many parameter pairs at the same points
    compute them once.  Invalid parameters and arguments make divide,
    invalid and overflow float errors on the way to their -inf or NaN;
    callers hold ``np.errstate`` ignoring them, once around however many
    calls they make.
    """
    if family is Family.UNIFORM:
        width = b - a
        np.copyto(out, -np.log(np.where(width > 0.0, width, 1.0)))
        np.copyto(out, -np.inf, where=~((width > 0.0) & (x >= a) & (x <= b)))
        return out
    if family is Family.NORMAL:
        np.subtract(x, a, out=tmp)
        tmp /= b  # z
        np.multiply(tmp, -0.5, out=out)
        out *= tmp
        out -= np.log(b)
        out -= _HALF_LOG_2PI
        bad = np.logical_not(b > 0.0)
    elif family is Family.LOGNORMAL:
        np.subtract(lx, a, out=tmp)
        tmp /= b  # z
        np.multiply(tmp, -0.5, out=out)
        out *= tmp
        out -= lx
        out -= np.log(b)
        out -= _HALF_LOG_2PI
        bad = np.logical_not(b > 0.0)
    elif family is Family.GAMMA:
        np.multiply(a - 1.0, lx, out=out)
        np.divide(x, b, out=tmp)
        out -= tmp
        out -= gammaln(a)
        out -= a * np.log(b)
        bad = np.logical_not((a > 0.0) & (b > 0.0))
    else:  # WEIBULL
        np.subtract(lx, np.log(b), out=tmp)  # log(x / scale)
        np.multiply(a - 1.0, tmp, out=out)
        out += np.log(a / b)
        tmp *= a
        np.exp(tmp, out=tmp)
        out -= tmp
        bad = np.logical_not((a > 0.0) & (b > 0.0))
    if bad.shape or bad:  # skip the pass for one valid parameter pair
        np.copyto(out, -np.inf, where=bad)
    if family.positive_support:
        np.copyto(out, -np.inf, where=outside)
    return out


class _Natural(NamedTuple):
    """Natural parameters of R parameter rows of one family, a column per
    row: ``theta`` (K, R) against the K columns of ``_natural_stats``;
    weibull's ``exp_theta`` (2, R) against its first two, [1, log x]; and
    ``bad``, the rows with invalid parameters, or None when there are none.
    A uniform ``theta`` holds the rows (lower, upper, constant) instead."""

    theta: np.ndarray
    exp_theta: np.ndarray | None
    bad: np.ndarray | None

    def columns(self, lo: int, hi: int) -> "_Natural":
        return _Natural(*(None if v is None else v[..., lo:hi] for v in self))


def _natural_params(family: Family, a, b, centre: float = 0.0, const=0.0) -> _Natural:
    """The natural parameters of the log densities of parameter rows (a, b)
    plus ``const`` (a number or one per row), for statistics centred on
    ``centre`` (read by normal and lognormal only).

    With m = (a - centre) / b, the statistics' coefficients are
    normal [const - m²/2 - log b - log √(2π), m/b, -1/(2b²), 1] on
    [1, x - c, (x - c)², extra]; lognormal the same on [1, lx - c,
    (lx - c)²], then -1 on lx and 1 on extra; gamma [const - log Γ(k) -
    k log θ, k - 1, -1/θ, 1] on [1, lx, x, extra]; weibull [const +
    log(k/λ) - (k - 1) log λ, k - 1, 1] on [1, lx, extra], less exp of
    [-k log λ, k] on [1, lx].
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    const = np.broadcast_to(np.asarray(const, dtype=np.float64), a.shape)
    if family is Family.UNIFORM:
        return _Natural(np.stack([a, b, const]), None, None)
    one = np.ones_like(a)
    exp_theta = None  # theta and exp_theta are (R, K) arrays seen as (K, R): see ``_matmul``
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if family is Family.NORMAL or family is Family.LOGNORMAL:
            inv = 1.0 / b
            m = (a - centre) * inv
            rows = [const - 0.5 * m * m - np.log(b) - _HALF_LOG_2PI, m * inv, -0.5 * inv * inv]
            if family is Family.LOGNORMAL:
                rows.append(-one)
            bad = ~(b > 0.0)
        elif family is Family.GAMMA:
            rows = [const - gammaln(a) - a * np.log(b), a - 1.0, -1.0 / b]
            bad = ~((a > 0.0) & (b > 0.0))
        else:  # WEIBULL
            log_b = np.log(b)
            rows = [const + np.log(a / b) - (a - 1.0) * log_b, a - 1.0]
            exp_theta = np.stack([-a * log_b, a], axis=1).T
            bad = ~((a > 0.0) & (b > 0.0))
    theta = np.stack(rows + [one], axis=1).T
    return _Natural(theta, exp_theta, bad if bad.any() else None)


def _natural_stats(family: Family, x, lx, outside, centre: float, extra) -> np.ndarray:
    """The (P, K) statistics of ``family`` at the P points ``x``, against
    which ``_natural_params`` are written: a leading 1, the family's
    statistics, then ``extra``, a term per point with coefficient 1 in every
    row (0, or minus the proposal log density for importance weights).

    ``lx`` and ``outside`` come from ``_log_argument(x)``.  Where the density
    is -inf at every parameter row (a positive-support family outside
    (0, inf), +inf and NaN included; a normal at ±inf) the statistics are 0
    and the extra term -inf; a normal at NaN gets NaN there.  Uniform
    statistics are [x, extra], read by the direct form.  Callers hold
    ``np.errstate`` ignoring invalid and overflow errors.
    """
    cols = [np.ones_like(x)]
    if family is Family.UNIFORM:
        cols = [x]
    elif family is Family.NORMAL:
        finite = np.isfinite(x)
        d = np.where(finite, x - centre, 0.0)
        cols += [d, d * d]
        extra = extra - np.where(finite, 0.0, np.abs(x))
    else:
        if family is Family.LOGNORMAL:
            d = np.where(outside, 0.0, lx - centre)
            cols += [d, d * d, lx]
        elif family is Family.GAMMA:
            cols += [lx, np.where(outside, 0.0, x)]
        else:  # WEIBULL
            cols += [lx]
        extra = extra + np.where(outside, -np.inf, 0.0)
    return np.stack(cols + [extra]).T  # stored (K, P): see ``_matmul``


def _natural_logpdf_into(family: Family, stats, natural: _Natural, out, tmp) -> np.ndarray:
    """Write the log densities of ``natural``'s R rows at the P points of
    ``stats`` (``_natural_stats``), plus each point's extra term, into the
    (P, R) array ``out`` and return it; ``tmp`` is a (P, R) work buffer.

    ``out`` and ``tmp`` may be C-ordered, or transposed views of (R, P)
    arrays.  A value depends only on its row and point, not on the block
    shape: ``_matmul`` calls dgemm on blocks of at least 2 x 2.  Callers
    hold ``np.errstate`` ignoring divide, invalid and overflow errors.
    """
    if family is Family.UNIFORM:
        lower, upper, const = natural.theta
        _logpdf_into(family, lower, upper, stats[:, :1], None, None, out, tmp)
        out += stats[:, 1:]
        out += const
        return out
    _matmul(stats, natural.theta, out)
    if natural.exp_theta is not None:
        np.exp(_matmul(stats[:, :2], natural.exp_theta, tmp), out=tmp)
        out -= tmp
    if natural.bad is not None:
        np.copyto(out, -np.inf, where=natural.bad)
    return out


def _matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``a @ b`` written into ``out`` and returned, by OpenBLAS dgemm calls
    of at least 2 x 2 outputs and at most ``_GEMM_MNK`` multiply-adds.

    dgemm computes every output with the same operations whatever the
    block, so the values do not depend on the tiling; a 1-row or 1-column
    product would go to gemv, which rounds differently, so it is padded to
    2 and a last tile of one row or column overlaps its neighbour.  The
    natural form stores statistics as (K, P) and parameters as (R, K)
    arrays, and its callers pass transposed views of (R, P) outputs, so
    numpy hands dgemm contiguous rows of all three.
    """
    m, k = a.shape
    n = b.shape[1]
    if m == 1 or n == 1:
        padded = np.empty((max(m, 2), max(n, 2)))
        a2 = np.repeat(a, 2, axis=0) if m == 1 else a
        b2 = np.repeat(b, 2, axis=1) if n == 1 else b
        _matmul(a2, b2, padded)
        out[...] = padded[:m, :n]
        return out
    cols = min(n, max(2, _GEMM_MNK // (2 * k)))
    rows = min(m, max(2, _GEMM_MNK // (k * cols)))
    for j in range(0, n, cols):
        j0 = min(j, n - 2)
        for i in range(0, m, rows):
            i0 = min(i, m - 2)
            np.matmul(a[i0 : i + rows], b[:, j0 : j + cols], out=out[i0 : i + rows, j0 : j + cols])
    return out


def family_cdf(family: Family, a, b, x) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if family is Family.NORMAL:
        return ndtr((x - a) / b)
    if family is Family.UNIFORM:
        return np.clip((x - a) / (b - a), 0.0, 1.0)
    xp = np.maximum(x, 0.0)
    with np.errstate(divide="ignore"):
        if family is Family.LOGNORMAL:
            out = ndtr((np.log(np.maximum(x, 1e-300)) - a) / b)
        elif family is Family.GAMMA:
            out = gammainc(a, xp / b)
        else:  # WEIBULL
            out = -np.expm1(-((xp / b) ** a))
    return np.where(x > 0.0, out, 0.0)


def family_ppf(family: Family, a, b, u, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse CDF with broadcasting over parameters and argument.

    Computed in place in ``out`` (a float64 array of the broadcast shape,
    which may be ``u`` itself) when given, else in a new array; the values
    do not depend on which.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    if out is None:
        out = np.empty(np.broadcast(a, b, u).shape)
    if family is Family.NORMAL or family is Family.LOGNORMAL:
        ndtri(u, out=out)
        out *= b
        out += a
        if family is Family.LOGNORMAL:
            np.exp(out, out=out)
    elif family is Family.GAMMA:
        gammaincinv(a, u, out=out)
        out *= b
    elif family is Family.WEIBULL:
        np.negative(u, out=out)
        np.log1p(out, out=out)
        np.negative(out, out=out)
        np.power(out, 1.0 / a, out=out)
        out *= b
    else:  # UNIFORM
        np.multiply(u, b - a, out=out)
        out += a
    return out if out.ndim else out[()]


@dataclass(frozen=True)
class Dataset:
    """A vector of scalar observations."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64).ravel()
        if v.size < 1:
            raise InvalidParameterError("dataset must contain at least one value")
        if not np.all(np.isfinite(v)):
            raise InvalidParameterError("dataset values must be finite")
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.size

    @classmethod
    def from_csv(cls, path) -> "Dataset":
        """One value per line; '#' starts a comment."""
        vals = []
        with open(path) as fh:
            for i, line in enumerate(fh, 1):
                body = line.split("#", 1)[0].strip()
                if not body:
                    continue
                try:
                    vals.append(float(body))
                except ValueError:
                    msg = f"{path} line {i}: {body!r} is not a number"
                    raise InvalidParameterError(msg) from None
        return cls(np.asarray(vals))


@dataclass(frozen=True)
class Distribution:
    """A parametric scalar distribution (family + parameter pair)."""

    family: Family
    params: tuple[float, float]

    def __post_init__(self):
        fam = Family(self.family)
        p = tuple(float(v) for v in self.params)
        if len(p) != fam.param_count:
            raise InvalidParameterError(f"{fam.value} takes {fam.param_count} parameters")
        if not all(math.isfinite(v) for v in p):
            raise InvalidParameterError("parameters must be finite")
        if fam is Family.UNIFORM and not p[0] < p[1]:
            raise InvalidParameterError("uniform requires lower < upper")
        if any(v <= 0.0 for v, pos in zip(p, fam.positive_params) if pos):
            raise InvalidParameterError(f"{fam.value} requires positive shape/scale parameters")
        object.__setattr__(self, "family", fam)
        object.__setattr__(self, "params", p)

    def support(self) -> tuple[float, float]:
        if self.family is Family.UNIFORM:
            return self.params
        if self.family.positive_support:
            return (0.0, math.inf)
        return (-math.inf, math.inf)

    def logpdf(self, x) -> np.ndarray:
        return family_logpdf(self.family, self.params[0], self.params[1], x)

    def pdf(self, x) -> np.ndarray:
        return np.exp(self.logpdf(x))

    def cdf(self, x) -> np.ndarray:
        return family_cdf(self.family, self.params[0], self.params[1], x)

    def ppf(self, u, out: np.ndarray | None = None) -> np.ndarray:
        return family_ppf(self.family, self.params[0], self.params[1], u, out)

    def to_json(self) -> dict:
        return {"family": self.family.value, "params": list(self.params)}

    @classmethod
    def from_json(cls, obj: dict) -> "Distribution":
        try:
            fam = Family(obj["family"])
            params = tuple(obj["params"])
        except (KeyError, ValueError, TypeError) as exc:
            raise InvalidParameterError(f"bad distribution object: {obj!r}") from exc
        return cls(fam, params)


# -- module-level operations ----------------------------------------------


def sample(dist: Distribution, rng: RngStream, n: int) -> np.ndarray:
    """n i.i.d. inverse-CDF draws; draw i depends only on (stream, counter+i)."""
    if n < 1:
        raise InvalidParameterError("sample size must be >= 1")
    return draw_into(dist, rng, np.empty(n))


@contextmanager
def _borrowed(slot: str, size: int):
    """A float64 buffer of ``size`` elements, for one block.

    Up to ``_EVAL_CHUNK`` elements it is a view of this thread's buffer in
    ``slot``, which is taken out of the slot while in use: a draw nested on
    the same thread (a model or ppf that runs an estimator) finds the slot
    empty and allocates its own, so it cannot overwrite the caller's block.
    Reusing the buffer keeps blocks from turning into page faults, since
    glibc hands freed block-sized arrays back to the kernel.  A larger
    request gets a fresh array that is not kept.
    """
    if size > _EVAL_CHUNK:
        yield np.empty(size)
        return
    buf = getattr(_scratch, slot, None)
    if buf is None or buf.size < size:
        buf = np.empty(_EVAL_CHUNK)
    setattr(_scratch, slot, None)
    try:
        yield buf[:size]
    finally:
        setattr(_scratch, slot, buf)


def draw_into(dist, rng: RngStream, out: np.ndarray) -> np.ndarray:
    """Fill the C-contiguous float64 array ``out`` with inverse-CDF draws,
    in flat order, at draw indices [counter, counter + out.size), and
    return it.

    Blocks of ``_EVAL_CHUNK`` draw indices are drawn one at a time into
    this thread's borrowed uniform buffer (``_borrowed``), each
    ``Distribution`` block through its ppf straight into ``out``, so no
    uniform array is allocated per block.  Draws are counter-based, so the
    values do not depend on the block size.  ``dist`` may be any object
    with a ``ppf(u)``.
    """
    flat = out.reshape(-1)
    with _borrowed("u", min(flat.size, _EVAL_CHUNK)) as scratch:
        for lo in range(0, flat.size, _EVAL_CHUNK):
            block = flat[lo : lo + _EVAL_CHUNK]
            u = rng.advance(lo).uniforms(block.size, out=scratch[: block.size])
            if isinstance(dist, Distribution):
                dist.ppf(u, out=block)
            else:
                block[:] = dist.ppf(u)
    return out


def log_likelihood(dist: Distribution, data: Dataset) -> float:
    """Sum of log densities; -inf when any datum is outside the support."""
    return float(np.sum(dist.logpdf(data.values)))


def data_in_support(family: Family, data: Dataset) -> bool:
    if Family(family).positive_support:
        return bool(np.all(data.values > 0.0))
    return True


def mle_fit(family: Family, data: Dataset) -> tuple[Distribution, float]:
    """Maximum-likelihood fit; returns the fitted distribution and its
    maximized log-likelihood.

    Scale estimates use the 1/n convention so the returned log-likelihood
    is the true maximum (as information criteria require).  Gamma and
    Weibull solve the 1-D profile score by Newton iteration from a
    method-of-moments start.
    """
    family = Family(family)
    d = data.values
    if d.size < 2:
        raise DegenerateDataError("MLE requires at least 2 observations")
    if np.min(d) == np.max(d):
        raise DegenerateDataError("all observations identical; scale MLE degenerates to zero")
    if not data_in_support(family, data):
        raise SupportError(f"data outside the support of {family.value}")

    if family is Family.NORMAL:
        dist = Distribution(family, (float(np.mean(d)), float(np.std(d))))
    elif family is Family.LOGNORMAL:
        ld = np.log(d)
        dist = Distribution(family, (float(np.mean(ld)), float(np.std(ld))))
    elif family is Family.UNIFORM:
        dist = Distribution(family, (float(np.min(d)), float(np.max(d))))
    elif family is Family.GAMMA:
        dist = _fit_gamma(d)
    else:
        dist = _fit_weibull(d)
    return dist, log_likelihood(dist, data)


def _fit_gamma(d: np.ndarray) -> Distribution:
    mean = np.mean(d)
    var = np.var(d)
    mean_log = np.mean(np.log(d))
    k = float(mean * mean / var)  # method-of-moments start
    # Profile score per datum: log k - psi(k) + mean(log x) - log(mean x).
    const = mean_log - math.log(mean)
    for _ in range(_MAX_NEWTON_ITER):
        score = math.log(k) - psi(k) + const
        if abs(score) < _SCORE_TOL:
            return Distribution(Family.GAMMA, (k, mean / k))
        dscore = 1.0 / k - polygamma(1, k)
        step = score / dscore
        k_new = k - step
        while k_new <= 0.0:
            step *= 0.5
            k_new = k - step
        k = float(k_new)
    raise FitConvergenceError("gamma MLE did not converge in 100 Newton iterations")


def _fit_weibull(d: np.ndarray) -> Distribution:
    log_d = np.log(d)
    sd_log = np.std(log_d)
    k = float(math.pi / (sd_log * math.sqrt(6.0)))  # moment-based start
    m = np.max(log_d)
    mean_log = np.mean(log_d)
    for _ in range(_MAX_NEWTON_ITER):
        # Work with x^k / exp(k*m) to avoid overflow for large shapes.
        w = np.exp(k * (log_d - m))
        sw = np.sum(w)
        mw = np.sum(w * log_d) / sw
        score = 1.0 / k + mean_log - mw
        if abs(score) < _SCORE_TOL:
            scale = math.exp(m + math.log(sw / d.size) / k)
            return Distribution(Family.WEIBULL, (k, scale))
        var_w = np.sum(w * (log_d - mw) ** 2) / sw
        dscore = -1.0 / (k * k) - var_w
        step = score / dscore
        k_new = k - step
        while k_new <= 0.0:
            step *= 0.5
            k_new = k - step
        k = float(k_new)
    raise FitConvergenceError("weibull MLE did not converge in 100 Newton iterations")
