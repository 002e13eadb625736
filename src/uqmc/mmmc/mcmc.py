"""Random-walk Metropolis sampling of distribution parameters.

Coordinates the family constrains positive (``Family.positive_params``)
walk in log space with the Jacobian correction.  One global proposal
scale factor adapts during burn-in: after every ``_ADAPT_WINDOW`` (100)
steps it shrinks by 0.7 if the window's acceptance rate is below
``_ACCEPT_LOW`` (0.2) and grows by 1.4 if it is above ``_ACCEPT_HIGH``
(0.5).  The factor is frozen afterwards so the kept chain targets the
exact posterior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..distributions import Dataset, Family, family_logpdf, mle_fit
from ..exceptions import EstimatorError, InvalidParameterError, UqmcError
from ..rng import RngStream

_ADAPT_WINDOW = 100
_ACCEPT_LOW = 0.2
_ACCEPT_HIGH = 0.5


@dataclass(frozen=True)
class McmcOptions:
    burn_in: int = 5000
    keep: int = 2000
    thin: int = 5

    def __post_init__(self):
        if min(self.burn_in, self.keep, self.thin) < 1:
            raise InvalidParameterError("MCMC options must be positive")


@dataclass
class ParameterPosterior:
    """Thinned post-burn-in parameter draws for one family."""

    family: Family
    samples: np.ndarray  # (keep, 2)
    acceptance_rate: float
    chain_length: int
    diagnostics: dict = field(default_factory=dict)

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]


def effective_sample_size(x: np.ndarray) -> float:
    """ESS from the initial positive sequence of autocorrelations."""
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    x = x - np.mean(x)
    denom = float(np.dot(x, x))
    if denom == 0.0:
        return float(n)
    acf_sum = 0.0
    for lag in range(1, n // 2):
        r = float(np.dot(x[:-lag], x[lag:])) / denom
        if r <= 0.0:
            break
        acf_sum += r
    return float(n / (1.0 + 2.0 * acf_sum))


def _prior_medians(prior: list) -> np.ndarray:
    return np.array([pr.ppf(0.5) for pr in prior], dtype=np.float64)


def _initial_point(family: Family, data: Dataset, prior: list) -> np.ndarray:
    try:
        dist, _ = mle_fit(family, data)
    except UqmcError:
        return _prior_medians(prior)
    theta = np.array(dist.params, dtype=np.float64)
    # Pull coordinates the prior excludes back to the prior median.
    for j, pr in enumerate(prior):
        if not np.isfinite(float(pr.logpdf(theta[j]))):
            theta[j] = float(pr.ppf(0.5))
    return theta


def _initial_scales(family: Family, data: Dataset, free: list[int]) -> np.ndarray:
    d = np.log(data.values) if family is Family.LOGNORMAL else data.values
    spread = max(float(np.std(d)), 1e-6 * (abs(float(np.mean(d))) + 1.0))
    root_n = math.sqrt(data.n)
    positive = family.positive_params
    scales = []
    for j in free:
        if positive[j]:
            scales.append(max(1.0 / root_n, 0.05))  # log-space coordinate
        else:
            scales.append(spread / root_n)
    return np.array(scales)


def posterior_sample(
    family: Family,
    data: Dataset,
    prior: list,
    options: McmcOptions = McmcOptions(),
    rng: RngStream | None = None,
) -> ParameterPosterior:
    """Random-walk Metropolis on the parameter posterior.

    Coordinates with point-mass priors stay fixed at their value.  The
    proposal is an independent Gaussian step per free coordinate; one
    global scale factor adapts in burn-in windows and is then frozen.
    """
    family = Family(family)
    if rng is None:
        raise InvalidParameterError("posterior_sample requires an RngStream")
    if len(prior) != family.param_count:
        raise InvalidParameterError("one prior per parameter required")
    positive = family.positive_params
    fixed = [getattr(pr, "fixed", False) for pr in prior]
    free = [j for j, fx in enumerate(fixed) if not fx]
    if not free:
        raise InvalidParameterError("all parameters fixed; nothing to sample")

    def log_target(phi: np.ndarray, base: np.ndarray) -> tuple[float, np.ndarray]:
        """Log posterior at walk coordinates phi, and the parameters they map to.

        Fixed coordinates are copied from ``base``.  Invalid parameters make
        ``family_logpdf`` return -inf or NaN; both count as -inf here.
        """
        theta = base.copy()
        jac = 0.0
        for idx, j in enumerate(free):
            if positive[j]:
                theta[j] = math.exp(phi[idx])
                jac += phi[idx]
            else:
                theta[j] = phi[idx]
        lp = 0.0
        for j, pr in enumerate(prior):
            v = float(pr.logpdf(theta[j]))
            if not np.isfinite(v):
                return -np.inf, theta
            lp += v
        ll = float(np.sum(family_logpdf(family, theta[0], theta[1], data.values)))
        if not np.isfinite(ll):
            return -np.inf, theta
        return ll + lp + jac, theta

    # Start at the MLE; fall back to prior medians when that is infeasible.
    for theta in (_initial_point(family, data, prior), _prior_medians(prior)):
        for j, pr in enumerate(prior):
            if fixed[j]:
                theta[j] = pr.value
        phi = np.array([math.log(theta[j]) if positive[j] else theta[j] for j in free])
        lp_cur, theta = log_target(phi, theta)
        if np.isfinite(lp_cur):
            break
    else:
        raise EstimatorError("no feasible starting point for the chain")

    scales = _initial_scales(family, data, free)
    factor = 1.0
    gen = rng.generator()

    burn_in, thin = options.burn_in, options.thin
    total = options.keep * thin
    kept = np.empty((options.keep, family.param_count))
    accepted = 0  # in the current adaptation window, then after burn-in
    for step in range(1, burn_in + total + 1):
        prop = phi + factor * scales * gen.standard_normal(len(free))
        lp_prop, theta_prop = log_target(prop, theta)
        if math.log(gen.random()) < lp_prop - lp_cur:
            phi, lp_cur, theta = prop, lp_prop, theta_prop
            accepted += 1
        if step <= burn_in and step % _ADAPT_WINDOW == 0:
            rate = accepted / _ADAPT_WINDOW
            if rate < _ACCEPT_LOW:
                factor *= 0.7
            elif rate > _ACCEPT_HIGH:
                factor *= 1.4
            accepted = 0
        if step == burn_in:
            accepted = 0
        elif step > burn_in and (step - burn_in) % thin == 0:
            kept[(step - burn_in) // thin - 1] = theta

    rate = accepted / total
    if accepted == 0:
        raise EstimatorError("chain never accepted a proposal; posterior degenerate")
    warnings = []
    if not 0.05 <= rate <= 0.95:
        warnings.append(f"acceptance rate {rate:.3f} outside [0.05, 0.95]")

    return ParameterPosterior(
        family=family,
        samples=kept,
        acceptance_rate=rate,
        chain_length=options.burn_in + total,
        diagnostics={
            "proposal_scales": (factor * scales).tolist(),
            "free_parameters": free,
            "warnings": warnings,
        },
    )
