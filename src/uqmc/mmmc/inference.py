"""Model probabilities for candidate distribution families: information-
theoretic (AIC) weights and Bayesian posterior weights via Monte Carlo
evidence estimates, both computed in log space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..distributions import Dataset, Family, _block_len, data_in_support, family_logpdf, mle_fit
from ..exceptions import EstimatorError, InvalidParameterError
from ..rng import RngStream


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


def model_evidence(
    family: Family,
    data: Dataset,
    prior: list,
    n_ev: int,
    rng: RngStream,
) -> tuple[float, float]:
    """Monte Carlo evidence estimate over prior draws.

    Returns (log evidence, standard error of the log evidence).  The
    average of likelihood values over prior samples is computed through
    a log-sum-exp shift.  Data outside the family support short-circuits
    to -inf.  Prior Monte Carlo is the known weak point of evidence
    estimation; the returned standard error exposes it.
    """
    family = Family(family)
    if n_ev < 1000:
        raise InvalidParameterError("evidence estimate needs n_ev >= 1000")
    if len(prior) != family.param_count:
        raise InvalidParameterError("one prior per parameter required")
    if not data_in_support(family, data):
        return (-np.inf, float("nan"))
    u = rng.uniforms(n_ev * family.param_count).reshape(n_ev, family.param_count)
    theta = np.column_stack([prior[j].ppf(u[:, j]) for j in range(family.param_count)])
    ll = _loglik_over_params(family, data, theta)
    m = float(np.max(ll))
    if not np.isfinite(m):
        raise EstimatorError(
            f"every prior draw for {family.value} has zero likelihood; widen the prior"
        )
    w = np.exp(ll - m)
    mean_w = float(np.mean(w))
    log_ev = m + np.log(mean_w)
    se_log = float(np.std(w, ddof=1) / np.sqrt(n_ev) / mean_w)
    return (float(log_ev), se_log)


def bayes_weights(
    families,
    data: Dataset,
    priors: dict,
    model_priors=None,
    n_ev: int = 10_000,
    rng: RngStream | None = None,
) -> ModelProbabilities:
    """Posterior model probabilities: evidence times model prior, normalized.

    ``priors`` maps each family to its per-parameter prior list (or is a
    list aligned with ``families``); ``model_priors`` defaults to uniform.
    A zero model prior annihilates a family regardless of its evidence.
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
        raise InvalidParameterError("bayes_weights requires an RngStream")
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
    infeasible = []
    for i, fam in enumerate(families):
        if tilde[i] == 0.0:
            continue
        if not data_in_support(fam, data):
            infeasible.append(fam.value)
            continue
        le, se = model_evidence(fam, data, prior_list[i], n_ev, rng.split(i))
        log_ev[i] = le
        ev_se[i] = se
        log_post[i] = le + np.log(tilde[i])
    if not np.any(np.isfinite(log_post)):
        raise EstimatorError("all model evidences vanish; no feasible family")
    pi = _softmax(log_post)
    return ModelProbabilities(
        families=tuple(families),
        pi=pi,
        method="bayes",
        diagnostics={
            "log_evidence": log_ev.tolist(),
            "evidence_se": ev_se,
            "model_priors": tilde.tolist(),
            "infeasible": infeasible,
        },
    )
