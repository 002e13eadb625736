"""Parametric distribution families: density, sampling, likelihood, MLE.

Five scalar families (normal, lognormal, gamma, weibull, uniform) with a
common two-parameter interface.  Gamma and Weibull use the shape/scale
parameterization.  Sampling is inverse-CDF on counter-based uniform
draws, so sample i of a stream is reproducible in isolation.  ``draw_into``
draws in blocks of ``_EVAL_CHUNK`` draw indices and runs the ppf in place
into the output, so no full-size uniform array exists; results do not
depend on the block size.

The ``family_logpdf`` / ``family_ppf`` kernels broadcast over parameter
arrays as well as argument arrays; mixtures and evidence integrals reuse
them to evaluate many parameter vectors at once.  Each log-density formula
lives once, in ``_logpdf_into``, which writes into caller buffers;
``family_logpdf`` allocates them, and importance reweighting reuses them
across candidates.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

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

# Draw indices per inverse-CDF block here, and rows per model call in
# ``models.evaluate`` and the streamed estimators of ``mc``.
_EVAL_CHUNK = 65536

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


def _log_argument(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``log x`` where x > 0 (0 elsewhere) and the mask of points outside
    (0, inf): what ``_logpdf_into`` reads for the positive-support families,
    which write -inf at every point of the mask."""
    inside = x > 0.0
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
            for line in fh:
                body = line.split("#", 1)[0].strip()
                if body:
                    vals.append(float(body))
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


def density(dist: Distribution, x, log_scale: bool = False):
    """pdf (or log pdf) at x; zero (-inf in log scale) outside the support."""
    out = dist.logpdf(x) if log_scale else dist.pdf(x)
    return float(out) if np.isscalar(x) else out


def sample(dist: Distribution, rng: RngStream, n: int) -> np.ndarray:
    """n i.i.d. inverse-CDF draws; draw i depends only on (stream, counter+i)."""
    if n < 1:
        raise InvalidParameterError("sample size must be >= 1")
    return draw_into(dist, rng, np.empty(n))


def draw_into(dist, rng: RngStream, out: np.ndarray) -> np.ndarray:
    """Fill the C-contiguous float64 array ``out`` with inverse-CDF draws,
    in flat order, at draw indices [counter, counter + out.size), and
    return it.

    Blocks of ``_EVAL_CHUNK`` draw indices are drawn one at a time, each
    ``Distribution`` block through its ppf straight into ``out``, so only
    one block of uniforms exists at a time.  Draws are counter-based, so
    the values do not depend on the block size.  ``dist`` may be any
    object with a ``ppf(u)``.
    """
    flat = out.reshape(-1)
    for lo in range(0, flat.size, _EVAL_CHUNK):
        block = flat[lo : lo + _EVAL_CHUNK]
        u = rng.advance(lo).uniforms(block.size)
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
