"""Model probabilities for candidate distribution families: information-
theoretic (AIC) weights, and Bayesian posterior weights whose evidence
and parameter posterior come from one importance sampler per family, all
computed in log space.

The sampler works in the coordinates of the Metropolis walk (``mcmc``):
log theta_j for a parameter the family constrains positive, theta_j
otherwise, leaving out the coordinates a point-mass prior pins.  Its
proposal is the defensive mixture (Hesterberg, Technometrics 1995; Owen &
Zhou, JASA 2000)

    q = alpha * prior + (1 - alpha) * N(phi_hat, 1.5^2 (-H)^-1),

with alpha = ``_PRIOR_SHARE`` (0.1), phi_hat the MLE pulled into the
prior's support (``mcmc._initial_point``) and H the central
finite-difference Hessian of the log posterior at phi_hat.  Where that log
posterior is not finite, or H is not finite and negative definite (the
uniform family, whose MLE sits on the edge of its support), alpha is 1
and the sampler is prior Monte Carlo.  Of the ``n_ev`` draws, the first
round(alpha n_ev) come from the prior and the rest from the Gaussian
(Owen and Zhou's deterministic mixture).  Each weighs
w = L(theta) prior(phi) / q(phi), with prior(phi) the prior density in
the walk coordinates (Jacobian included), so w <= L(theta) / alpha.

The evidence is the mean weight, through a log-sum-exp shift, with the
delta-method standard error of its log; the importance ESS is
(sum w)^2 / sum w^2.  The posterior is ``keep`` rows of the draws picked
by systematic resampling, so each row weighs the same.  A family reads
its draws' coordinate uniforms (row-major, one per free coordinate) and
then the resampling uniform from its stream.  A family with no free
coordinate has the likelihood at its pinned point as its evidence, with
standard error 0, and that point as every posterior row.

``bayes_posteriors`` runs the families' samplers side by side on
``_threads.fan_out``.  Family i reads only ``rng.split(i)``, so no draw
depends on the thread that runs it, and the lowest failing family's error
is raised, as a loop over the families in order would raise it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from ..distributions import Dataset, Family, _block_len, data_in_support, family_logpdf, mle_fit
from ..exceptions import EstimatorError, InvalidParameterError
from .._threads import fan_out, workers
from ..rng import RngStream
from .mcmc import ParameterPosterior, _initial_point, _initial_scales, _prior_medians

# The prior's share of the importance proposal: it bounds every weight by
# L(theta) / _PRIOR_SHARE however badly the Gaussian fits.
_PRIOR_SHARE = 0.1
# The Gaussian's spread over that of the Laplace approximation.
_INFLATE = 1.5
# Finite-difference steps of the Hessian, in units of the Metropolis
# walk's initial proposal scales (about a posterior sd).
_FD_STEP = 0.1
_LOG_2PI = math.log(2.0 * math.pi)
# A log-evidence standard error of 0.1 is about a 10% error in the
# family's evidence, and so in its model probability; the CLI flags a
# family above it.
EVIDENCE_SE_LIMIT = 0.1


@dataclass(frozen=True)
class ModelProbabilities:
    """Normalized plausibility weights over candidate families."""

    families: tuple[Family, ...]
    pi: np.ndarray
    method: str  # "aic" | "bayes"
    diagnostics: dict

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=np.float64)
        if np.any(pi < 0.0) or abs(float(np.sum(pi)) - 1.0) > 1e-12:
            raise InvalidParameterError("probabilities must be non-negative and sum to 1")
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "families", tuple(Family(f) for f in self.families))

    def as_dict(self) -> dict[Family, float]:
        return dict(zip(self.families, self.pi.tolist()))


def _softmax(log_w: np.ndarray) -> np.ndarray:
    finite = np.isfinite(log_w)
    out = np.zeros_like(log_w)
    shifted = np.exp(log_w[finite] - np.max(log_w[finite]))
    out[finite] = shifted / np.sum(shifted)
    return out


def aic_weights(families, data: Dataset) -> ModelProbabilities:
    """AIC-based model probabilities.

    Each feasible family is fit by maximum likelihood; AIC = -2 log L + 2K
    is put on the relative scale Delta = AIC - min(AIC) and weighted by
    exp(-Delta/2).  Families whose support excludes any datum get
    probability zero and are flagged.
    """
    families = [Family(f) for f in families]
    if data.n < 3:
        raise InvalidParameterError("AIC weights need at least 3 observations")
    aic = np.full(len(families), np.inf)
    fits = {}
    infeasible = []
    for i, fam in enumerate(families):
        if not data_in_support(fam, data):
            infeasible.append(fam.value)
            continue
        dist, ll = mle_fit(fam, data)
        aic[i] = -2.0 * ll + 2.0 * fam.param_count
        fits[fam.value] = dist.to_json()
    if not np.any(np.isfinite(aic)):
        raise EstimatorError("no candidate family is feasible for the data")
    delta = aic - np.min(aic[np.isfinite(aic)])
    pi = _softmax(-0.5 * delta)
    return ModelProbabilities(
        families=tuple(families),
        pi=pi,
        method="aic",
        diagnostics={
            "aic": aic.tolist(),
            "delta": delta.tolist(),
            "mle_fits": fits,
            "infeasible": infeasible,
        },
    )


def _loglik_over_params(family: Family, data: Dataset, theta: np.ndarray) -> np.ndarray:
    """Log likelihood of the dataset at each parameter row of theta (m, 2).

    Every data column is kept and the rows go ``_block_len(data.n)`` at a
    time, so a block holds at most ``distributions._BLOCK_PAIRS`` (row,
    datum) pairs however many rows there are.  Each row sums its own data
    in one call, so the sums do not depend on the block height.
    """
    x = data.values[None, :]
    step = _block_len(data.n)
    out = np.empty(theta.shape[0])
    for lo in range(0, theta.shape[0], step):
        t = theta[lo : lo + step]
        out[lo : lo + step] = np.sum(family_logpdf(family, t[:, :1], t[:, 1:], x), axis=1)
    return out


def _walk_log_prior(prior: list, free: list, log_walk: np.ndarray, theta, phi) -> np.ndarray:
    """Log prior density of each row in the walk coordinates: the free
    coordinates' log priors plus the Jacobian of each log coordinate."""
    out = np.zeros(theta.shape[0])
    for k, j in enumerate(free):
        out += prior[j].logpdf(theta[:, j])
        if log_walk[k]:
            out += phi[:, k]
    return out


def _to_params(point: np.ndarray, free: list, log_walk: np.ndarray, phi) -> np.ndarray:
    """Parameter rows: ``point`` with its free coordinates taken from phi."""
    theta = np.repeat(point[None, :], phi.shape[0], axis=0)
    theta[:, free] = np.where(log_walk, np.exp(phi), phi)
    return theta


def _laplace_factor(family, data, prior, free, log_walk, point, phi0) -> np.ndarray | None:
    """Cholesky factor of the Gaussian component's covariance,
    _INFLATE^2 (-H)^-1, or None when the log posterior at phi0 is not
    finite or its Hessian H is not finite and negative definite."""
    p = len(free)
    h = _FD_STEP * _initial_scales(family, data, free)
    # phi0, then +-h_i along each axis, then the four diagonal corners.
    steps = [np.zeros(p)] + [s * h[i] * np.eye(p)[i] for i in range(p) for s in (1.0, -1.0)]
    if p == 2:
        steps += [h * [s0, s1] for s0 in (1.0, -1.0) for s1 in (1.0, -1.0)]
    phi = phi0 + np.array(steps)
    theta = _to_params(point, free, log_walk, phi)
    lp = _loglik_over_params(family, data, theta) + _walk_log_prior(
        prior, free, log_walk, theta, phi
    )
    hess = np.empty((p, p))
    for i in range(p):
        hess[i, i] = (lp[1 + 2 * i] - 2.0 * lp[0] + lp[2 + 2 * i]) / (h[i] * h[i])
    if p == 2:
        hess[0, 1] = hess[1, 0] = (lp[5] - lp[6] - lp[7] + lp[8]) / (4.0 * h[0] * h[1])
    if not (np.isfinite(lp[0]) and np.all(np.isfinite(hess))):
        return None
    try:
        return np.linalg.cholesky(_INFLATE**2 * np.linalg.inv(-hess))
    except np.linalg.LinAlgError:
        return None


@dataclass(frozen=True)
class _Draws:
    """One family's importance draws and what they estimate."""

    theta: np.ndarray  # (n, 2) parameter rows
    w: np.ndarray  # (n,) weights over their largest
    log_evidence: float
    evidence_se: float
    ess: float
    prior_share: float  # alpha
    u: float  # the resampling uniform

    def resample(self, family: Family, keep: int) -> ParameterPosterior:
        """``keep`` rows by systematic resampling, at the positions
        (u + k) / keep of the cumulative weights of the positive ones."""
        rows = np.flatnonzero(self.w)
        cum = np.cumsum(self.w[rows])
        at = (self.u + np.arange(keep)) * (cum[-1] / keep)
        pick = np.minimum(np.searchsorted(cum, at, side="right"), rows.size - 1)
        return ParameterPosterior(
            family=family,
            samples=self.theta[rows[pick]],
            diagnostics={
                "ess": self.ess,
                "log_evidence": self.log_evidence,
                "evidence_se": self.evidence_se,
                "prior_share": self.prior_share,
            },
        )


def _importance_draws(
    family: Family, data: Dataset, prior: list, n_ev: int, rng: RngStream
) -> _Draws | None:
    """The defensive importance sampler of one family (module docstring);
    None when the family's support excludes a datum."""
    if n_ev < 1000:
        raise InvalidParameterError("evidence estimate needs n_ev >= 1000")
    if len(prior) != family.param_count:
        raise InvalidParameterError("one prior per parameter required")
    if not data_in_support(family, data):
        return None
    free = [j for j, pr in enumerate(prior) if not getattr(pr, "fixed", False)]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if not free:  # n_ev draws at the pinned point, weighing the same
            theta = np.repeat(_prior_medians(prior)[None, :], n_ev, axis=0)
            log_w = np.full(n_ev, _loglik_over_params(family, data, theta[:1])[0])
            alpha, u_last = 1.0, 0.5
        else:
            point = _initial_point(family, data, prior)
            log_walk = np.array([family.positive_params[j] for j in free])
            phi0 = np.where(log_walk, np.log(point[free]), point[free])
            chol = _laplace_factor(family, data, prior, free, log_walk, point, phi0)
            alpha = 1.0 if chol is None else _PRIOR_SHARE
            n_prior = round(alpha * n_ev)
            u = rng.uniforms(n_ev * len(free) + 1)
            z, u_last = u[:-1].reshape(n_ev, len(free)), float(u[-1])
            theta = np.repeat(point[None, :], n_ev, axis=0)
            for k, j in enumerate(free):
                theta[:n_prior, j] = prior[j].ppf(z[:n_prior, k])
            if chol is not None:
                phi = np.where(log_walk, np.log(theta[:, free]), theta[:, free])
                phi[n_prior:] = phi0 + ndtri(z[n_prior:]) @ chol.T
                theta[n_prior:] = _to_params(point, free, log_walk, phi[n_prior:])
            log_w = _loglik_over_params(family, data, theta)
            if chol is not None:
                log_prior = _walk_log_prior(prior, free, log_walk, theta, phi)
                d = np.linalg.solve(chol, (phi - phi0).T)
                log_gauss = (
                    -0.5 * np.sum(d * d, axis=0)
                    - float(np.sum(np.log(np.diag(chol))))
                    - 0.5 * len(free) * _LOG_2PI
                )
                log_q = np.logaddexp(
                    math.log(alpha) + log_prior, math.log1p(-alpha) + log_gauss
                )
                log_w += log_prior - log_q
        log_w[~np.isfinite(log_w)] = -np.inf
    m = float(np.max(log_w))
    if not np.isfinite(m):
        raise EstimatorError(
            f"every prior draw for {family.value} has zero likelihood; widen the prior"
        )
    w = np.exp(log_w - m)
    mean_w = float(np.mean(w))
    se_log = float(np.std(w, ddof=1) / np.sqrt(n_ev) / mean_w)
    ess = float(np.sum(w)) ** 2 / float(np.sum(w * w))
    return _Draws(theta, w, m + math.log(mean_w), se_log, ess, alpha, u_last)


def model_evidence(
    family: Family,
    data: Dataset,
    prior: list,
    n_ev: int,
    rng: RngStream,
) -> tuple[float, float]:
    """Log evidence and the standard error of the log evidence, from
    ``n_ev`` draws of the defensive importance sampler (module docstring).

    Data outside the family support short-circuits to (-inf, NaN).  A
    family whose priors pin every parameter gets the exact log likelihood
    at that point, with standard error 0.
    """
    draws = _importance_draws(Family(family), data, prior, n_ev, rng)
    if draws is None:
        return (-np.inf, float("nan"))
    return (draws.log_evidence, draws.evidence_se)


def bayes_posteriors(
    families,
    data: Dataset,
    priors,
    model_priors,
    n_ev: int,
    keep: int,
    rng: RngStream,
) -> tuple[ModelProbabilities, dict[Family, ParameterPosterior]]:
    """Posterior model probabilities, evidence times model prior,
    normalized, and ``keep`` posterior rows of every family with positive
    probability, both from one importance sampler per family.

    ``priors`` maps each family to its per-parameter prior list (or is a
    list aligned with ``families``); ``model_priors`` (None for uniform) is
    one prior probability per family.  A zero model prior annihilates a
    family regardless of its evidence.  Family i draws on ``rng.split(i)``,
    so the families' samplers run side by side on ``_threads.fan_out``
    with no draw moving; when several fail, the lowest family's error is
    raised, as a loop over them in order would raise it.
    """
    families = [Family(f) for f in families]
    if isinstance(priors, dict):
        # Families whose support excludes the data need no prior: their
        # evidence short-circuits to zero.
        prior_list = [
            priors[f] if data_in_support(f, data) else priors.get(f) for f in families
        ]
    else:
        prior_list = list(priors)
        if len(prior_list) != len(families):
            raise InvalidParameterError("need one prior list per family")
    if rng is None:
        raise InvalidParameterError("bayes inference requires an RngStream")
    if keep < 1:
        raise InvalidParameterError("keep must be >= 1")
    if model_priors is None:
        tilde = np.full(len(families), 1.0 / len(families))
    else:
        tilde = np.asarray(model_priors, dtype=np.float64)
        if tilde.shape != (len(families),) or np.any(tilde < 0.0):
            raise InvalidParameterError("model_priors must be non-negative, one per family")
        if abs(float(np.sum(tilde)) - 1.0) > 1e-9:
            raise InvalidParameterError("model_priors must sum to 1")

    log_post = np.full(len(families), -np.inf)
    log_ev = np.full(len(families), -np.inf)
    ev_se = [float("nan")] * len(families)
    active, infeasible = [], []
    for i, fam in enumerate(families):
        if tilde[i] == 0.0:
            continue
        if data_in_support(fam, data):
            active.append(i)
        else:
            infeasible.append(fam.value)

    def sampler(i: int) -> _Draws:
        return _importance_draws(families[i], data, prior_list[i], n_ev, rng.split(i))

    draws = dict(zip(active, fan_out(sampler, active, workers(len(active) * n_ev * data.n))))
    for i in active:
        log_ev[i] = draws[i].log_evidence
        ev_se[i] = draws[i].evidence_se
        log_post[i] = log_ev[i] + np.log(tilde[i])
    if not np.any(np.isfinite(log_post)):
        raise EstimatorError("all model evidences vanish; no feasible family")
    probabilities = ModelProbabilities(
        families=tuple(families),
        pi=_softmax(log_post),
        method="bayes",
        diagnostics={
            "log_evidence": log_ev.tolist(),
            "evidence_se": ev_se,
            "model_priors": tilde.tolist(),
            "infeasible": infeasible,
        },
    )
    posteriors = {
        fam: draws[i].resample(fam, keep)
        for i, fam in enumerate(families)
        if probabilities.pi[i] > 0.0
    }
    return probabilities, posteriors


def bayes_weights(
    families,
    data: Dataset,
    priors: dict,
    model_priors=None,
    n_ev: int = 10_000,
    rng: RngStream | None = None,
) -> ModelProbabilities:
    """The posterior model probabilities of ``bayes_posteriors``."""
    return bayes_posteriors(families, data, priors, model_priors, n_ev, 1, rng)[0]
