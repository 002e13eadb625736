"""Per-parameter priors for Bayesian inference over distribution families.

A coordinate prior exposes logpdf(x) and ppf(u); the importance sampler
of the Bayesian evidence draws its prior component through ppf on
counter-based uniforms.  Point-mass priors mark a coordinate as fixed,
which both posterior samplers leave out of their coordinates (that is how
"known sigma" setups are expressed).

The uniform, log-uniform and normal priors keep their log density as a
static ``_formula(x, *params)`` that broadcasts over arrays of parameters,
with ``_params`` the instance's values (constants precomputed), so the
sampler evaluates every coordinate prior of one class in one call; for a
single prior ``logpdf`` calls the same formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..distributions import _HALF_LOG_2PI, Dataset, Family
from ..exceptions import InvalidParameterError


@dataclass(frozen=True)
class UniformPrior:
    lower: float
    upper: float
    fixed = False

    def __post_init__(self):
        if not self.lower < self.upper:
            raise InvalidParameterError("uniform prior needs lower < upper")
        log_density = -math.log(self.upper - self.lower)
        object.__setattr__(self, "_params", (self.lower, self.upper, log_density))

    @staticmethod
    def _formula(x, lower, upper, log_density):
        return np.where((x >= lower) & (x <= upper), log_density, -np.inf)

    def logpdf(self, x):
        return self._formula(np.asarray(x, dtype=np.float64), *self._params)

    def ppf(self, u):
        return self.lower + np.asarray(u) * (self.upper - self.lower)


@dataclass(frozen=True)
class LogUniformPrior:
    """Uniform in log space on [lower, upper], lower > 0."""

    lower: float
    upper: float
    fixed = False

    def __post_init__(self):
        if not 0.0 < self.lower < self.upper:
            raise InvalidParameterError("log-uniform prior needs 0 < lower < upper")
        norm = math.log(math.log(self.upper / self.lower))
        object.__setattr__(self, "_params", (self.lower, self.upper, norm))

    @staticmethod
    def _formula(x, lower, upper, norm):
        # log(max(x, lower)) is log(x) wherever the result is kept, and never
        # sees a non-positive argument, so no errstate is needed.
        return np.where(
            (x >= lower) & (x <= upper), -np.log(np.maximum(x, lower)) - norm, -np.inf
        )

    def logpdf(self, x):
        return self._formula(np.asarray(x, dtype=np.float64), *self._params)

    def ppf(self, u):
        ll = math.log(self.lower)
        return np.exp(ll + np.asarray(u) * (math.log(self.upper) - ll))


@dataclass(frozen=True)
class NormalPrior:
    mu: float
    sigma: float
    fixed = False

    def __post_init__(self):
        if self.sigma <= 0.0:
            raise InvalidParameterError("normal prior needs sigma > 0")
        object.__setattr__(self, "_params", (self.mu, self.sigma, math.log(self.sigma)))

    @staticmethod
    def _formula(x, mu, sigma, log_sigma):
        z = (x - mu) / sigma
        return -0.5 * z * z - log_sigma - _HALF_LOG_2PI

    def logpdf(self, x):
        return self._formula(np.asarray(x, dtype=np.float64), *self._params)

    def ppf(self, u):
        from scipy.special import ndtri

        return self.mu + self.sigma * ndtri(np.asarray(u))


@dataclass(frozen=True)
class PointMassPrior:
    """Degenerate prior pinning a coordinate to a known value."""

    value: float
    fixed = True

    def logpdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        return np.where(x == self.value, 0.0, -np.inf)

    def ppf(self, u):
        return np.full(np.shape(u), self.value)


def default_priors(family: Family, data: Dataset) -> list:
    """Bounded proper priors wide enough to be weakly informative.

    Location parameters get a uniform prior spanning the data range
    padded by three ranges; positive scale/shape parameters get a
    log-uniform prior over six decades around a moment-based estimate.
    Bounded priors keep the evidence integral finite.
    """
    family = Family(family)
    d = data.values
    if family is Family.LOGNORMAL:
        if np.any(d <= 0.0):
            raise InvalidParameterError("lognormal priors need positive data")
        d = np.log(d)

    lo, hi = float(np.min(d)), float(np.max(d))
    rng_ = max(hi - lo, 1e-8 * (abs(hi) + 1.0))
    loc_prior = UniformPrior(lo - 3.0 * rng_, hi + 3.0 * rng_)

    def log_uniform_around(s: float) -> LogUniformPrior:
        s = max(s, 1e-12)
        return LogUniformPrior(1e-3 * s, 1e3 * s)

    if family in (Family.NORMAL, Family.LOGNORMAL):
        return [loc_prior, log_uniform_around(float(np.std(d)))]
    if family is Family.UNIFORM:
        return [loc_prior, loc_prior]
    mean = float(np.mean(d))
    var = float(np.var(d))
    if family is Family.GAMMA:
        if var <= 0.0:
            raise InvalidParameterError("gamma priors need non-degenerate data")
        return [
            log_uniform_around(mean * mean / var),
            log_uniform_around(var / mean),
        ]
    # WEIBULL: shape from the log-data spread, scale from the mean.
    sd_log = float(np.std(np.log(np.maximum(d, 1e-300))))
    shape_est = math.pi / (max(sd_log, 1e-6) * math.sqrt(6.0))
    return [log_uniform_around(shape_est), log_uniform_around(mean)]
