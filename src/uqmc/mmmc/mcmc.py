"""Random-walk Metropolis sampling of distribution parameters.

``_CHAINS`` (4) chains per family advance in lockstep: one array step
proposes, evaluates and accepts for every chain at once, so four chains
cost about what one scalar chain did.  Every chain starts at the same
point, runs the full ``burn_in`` and then keeps ``ceil(keep / 4)`` draws,
one every ``thin`` steps; ``samples`` holds chain 0's draws, then chain
1's, and so on, truncated to ``keep`` rows.

Coordinates the family constrains positive (``Family.positive_params``)
walk in log space with the Jacobian correction.  Each chain has its own
proposal scale factor, which adapts during burn-in: after every
``_ADAPT_WINDOW`` (100) steps it shrinks by 0.7 if the chain's window
acceptance rate is below ``_ACCEPT_LOW`` (0.2) and grows by 1.4 if it is
above ``_ACCEPT_HIGH`` (0.5).  The factors are frozen afterwards so the
kept draws target the exact posterior.

Chain c draws its randomness from ``rng.split(c)``: step s reads the
uniforms at draw indices [s (P+1), (s+1) (P+1)), where P is the number of
free coordinates; the first P become the proposal's normal increments
through the inverse normal CDF and the last is the accept uniform.  The
draws are fetched in blocks of ``_BLOCK`` steps, and by the stream's
counter contract the result does not depend on the block size.

Mixing is reported per free parameter as the rank-normalised split-R-hat
and the bulk effective sample size of Vehtari, Gelman, Simpson, Carpenter
and Buerkner ("Rank-normalization, folding, and localization: an improved
R-hat", Bayesian Analysis 2021), computed over the kept draws of all
chains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from ..distributions import Dataset, Family, _log_argument, _logpdf_into, mle_fit
from ..exceptions import EstimatorError, InvalidParameterError, UqmcError
from ..rng import RngStream

_CHAINS = 4
_BLOCK = 512  # steps of pre-drawn randomness per fetch
_ADAPT_WINDOW = 100
_ACCEPT_LOW = 0.2
_ACCEPT_HIGH = 0.5
# Vehtari et al. recommend using draws only when R-hat is below 1.01.
RHAT_LIMIT = 1.01


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
    """Thinned post-burn-in parameter draws for one family, chain-major."""

    family: Family
    samples: np.ndarray  # (keep, 2)
    acceptance_rate: float
    chain_length: int  # steps per chain, burn-in included
    diagnostics: dict = field(default_factory=dict)

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]


def _split_chains(chains: np.ndarray) -> np.ndarray:
    """(M, N) chains -> (2M, N // 2) half-chains; an odd middle draw is dropped."""
    chains = np.asarray(chains, dtype=np.float64)
    half = chains.shape[1] // 2
    return np.concatenate([chains[:, :half], chains[:, chains.shape[1] - half :]])


def _rank_normalize(chains: np.ndarray) -> np.ndarray:
    """Normal scores of the pooled average ranks, (r - 3/8) / (S + 1/4).

    Tied draws, which every rejected Metropolis step makes, share their
    average rank, so ties cannot order one chain before another.
    """
    _, inverse, counts = np.unique(chains, return_inverse=True, return_counts=True)
    avg_rank = np.cumsum(counts) - 0.5 * (counts - 1)
    return ndtri((avg_rank[inverse.reshape(chains.shape)] - 0.375) / (chains.size + 0.25))


def _rhat(chains: np.ndarray) -> float:
    """Potential scale reduction of (M, N) chains (Gelman-Rubin)."""
    n = chains.shape[1]
    within = float(np.mean(np.var(chains, axis=1, ddof=1)))
    between = n * float(np.var(np.mean(chains, axis=1), ddof=1))
    if within == 0.0:  # every chain constant: apart, or all at one value
        return math.inf if between > 0.0 else math.nan
    return math.sqrt(((n - 1) / n * within + between / n) / within)


def split_rhat(chains: np.ndarray) -> float:
    """Rank-normalised split-R-hat of (M, N) chains of one scalar.

    The larger of the bulk value (on rank-normalised draws) and the tail
    value (on rank-normalised distances from the pooled median).  NaN when
    a half-chain has fewer than two draws or every draw is equal; infinite
    when each half-chain is constant but they differ.
    """
    split = _split_chains(chains)
    if split.shape[1] < 2:
        return math.nan
    bulk = _rhat(_rank_normalize(split))
    tail = _rhat(_rank_normalize(np.abs(split - np.median(split))))
    return max(bulk, tail)


def bulk_ess(chains: np.ndarray) -> float:
    """Bulk effective sample size of (M, N) chains of one scalar.

    The multi-chain autocorrelation estimate on rank-normalised split
    chains, truncated by Geyer's initial positive sequence and made
    monotone.  NaN when a half-chain has fewer than four draws or every
    draw is equal.
    """
    z = _split_chains(chains)
    m, n = z.shape
    if n < 4:
        return math.nan
    z = _rank_normalize(z)
    means = np.mean(z, axis=1)
    z -= means[:, None]
    acov0 = float(np.sum(z * z)) / (m * n)  # biased, averaged over half-chains
    within = acov0 * n / (n - 1)
    var_plus = acov0 + float(np.var(means, ddof=1))
    if var_plus == 0.0:
        return math.nan

    def rho(t: int) -> float:
        acov = float(np.sum(z[:, : n - t] * z[:, t:])) / (m * n)
        return 1.0 - (within - acov) / var_plus

    # Sum autocorrelation pairs while they are positive, each pair capped
    # by the one before it.
    tau = -1.0
    prev = math.inf
    for t in range(0, n - 1, 2):
        pair = (1.0 if t == 0 else rho(t)) + rho(t + 1)
        if pair <= 0.0:
            break
        prev = min(prev, pair)
        tau += 2.0 * prev
    tau = max(tau, 1.0 / math.log10(m * n))
    return m * n / tau


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
    """Random-walk Metropolis on the parameter posterior, ``_CHAINS``
    chains in lockstep.

    Coordinates with point-mass priors stay fixed at their value.  The
    proposal is an independent Gaussian step per free coordinate; each
    chain's scale factor adapts in burn-in windows and is then frozen.
    """
    family = Family(family)
    if rng is None:
        raise InvalidParameterError("posterior_sample requires an RngStream")
    if len(prior) != family.param_count:
        raise InvalidParameterError("one prior per parameter required")
    positive = family.positive_params
    fixed = [getattr(pr, "fixed", False) for pr in prior]
    free = [j for j, fx in enumerate(fixed) if not fx]
    pinned = [j for j, fx in enumerate(fixed) if fx]
    if not free:
        raise InvalidParameterError("all parameters fixed; nothing to sample")

    k, p = _CHAINS, len(free)
    x = data.values
    lx, outside = _log_argument(x) if family.positive_support else (None, None)
    out = np.empty((k, x.size))
    tmp = np.empty((k, x.size))
    # One row per chain: walk coordinates, the two parameters, log target.
    # ``new`` holds the proposal, ``cur`` the chain state; accepting copies
    # whole rows.
    cur = np.empty((k, p + 3))
    new = np.empty_like(cur)
    phi_new, theta_new, lp_new = new[:, :p], new[:, p : p + 2], new[:, p + 2]
    coords = [(phi_new[:, i], theta_new[:, j], positive[j], prior[j].logpdf)
              for i, j in enumerate(free)]

    def log_target(lp_fixed: float) -> None:
        """Log posterior of each chain at the walk coordinates ``phi_new``.

        Writes the parameters they map to into the free columns of
        ``theta_new`` and the target into ``lp_new``.  The fixed columns
        are left alone and contribute ``lp_fixed``.  Invalid parameters
        make the kernel return -inf or NaN; every non-finite target counts
        as -inf.  Callers ignore overflow and invalid float errors: huge
        log-walk coordinates overflow ``exp`` and huge negative log
        densities overflow the data sum, to infinities the last line
        handles.
        """
        for phi_j, theta_j, pos, _ in coords:
            if pos:
                np.exp(phi_j, out=theta_j)
            else:
                theta_j[:] = phi_j
        ll = _logpdf_into(family, theta_new[:, :1], theta_new[:, 1:], x, lx, outside, out, tmp)
        lp = np.sum(ll, axis=1, out=lp_new)
        lp += lp_fixed
        for phi_j, theta_j, pos, logpdf in coords:
            if pos:
                lp += phi_j  # Jacobian of the log walk
            lp += logpdf(theta_j)
        np.copyto(lp, -np.inf, where=~np.isfinite(lp))

    # Start at the MLE; fall back to prior medians when that is infeasible.
    # A log-walk coordinate must start positive and finite.
    for start in (_initial_point(family, data, prior), _prior_medians(prior)):
        for j in pinned:
            start[j] = prior[j].value
        if not all(0.0 < start[j] < math.inf for j in free if positive[j]):
            continue
        lp_fixed = sum((float(prior[j].logpdf(start[j])) for j in pinned), 0.0)
        theta_new[:] = start
        phi_new[:] = [math.log(start[j]) if positive[j] else start[j] for j in free]
        with np.errstate(over="ignore", invalid="ignore"):
            log_target(lp_fixed)
        if np.isfinite(lp_new[0]):
            break
    else:
        raise EstimatorError("no feasible starting point for the chain")
    cur[:] = new
    phi_cur, theta_cur, lp_cur = cur[:, :p], cur[:, p : p + 2], cur[:, p + 2]

    scales = _initial_scales(family, data, free)
    factor = np.ones(k)
    step_scale = factor[:, None] * scales

    burn_in, thin = options.burn_in, options.thin
    per_chain = -(-options.keep // k)
    steps = burn_in + per_chain * thin
    streams = [rng.split(c) for c in range(k)]
    kept = np.empty((k, per_chain, family.param_count))
    window = np.zeros(k, dtype=np.int64)  # accepts in the current adaptation window
    accepted = np.zeros(k, dtype=np.int64)  # accepts after burn-in
    with np.errstate(over="ignore", invalid="ignore"):
        for s0 in range(0, steps, _BLOCK):
            b = min(_BLOCK, steps - s0)
            u = np.stack(
                [st.advance(s0 * (p + 1)).uniforms(b * (p + 1)).reshape(b, p + 1) for st in streams],
                axis=1,
            )  # (b, K, P+1)
            z = ndtri(u[:, :, :p])
            log_u = np.log(u[:, :, p])
            for i in range(b):
                step = s0 + i + 1
                np.multiply(step_scale, z[i], out=phi_new)
                phi_new += phi_cur
                log_target(lp_fixed)
                acc = log_u[i] < lp_new - lp_cur
                np.copyto(cur, new, where=acc[:, None])
                if step <= burn_in:
                    window += acc
                    if step % _ADAPT_WINDOW == 0:
                        rate = window / _ADAPT_WINDOW
                        factor[rate < _ACCEPT_LOW] *= 0.7
                        factor[rate > _ACCEPT_HIGH] *= 1.4
                        step_scale = factor[:, None] * scales
                        window[:] = 0
                else:
                    accepted += acc
                    if (step - burn_in) % thin == 0:
                        kept[:, (step - burn_in) // thin - 1] = theta_cur

    total = int(accepted.sum())
    if total == 0:
        raise EstimatorError("chain never accepted a proposal; posterior degenerate")
    rate = total / (k * per_chain * thin)
    warnings = []
    if not 0.05 <= rate <= 0.95:
        warnings.append(f"acceptance rate {rate:.3f} outside [0.05, 0.95]")
    names = family.param_names

    return ParameterPosterior(
        family=family,
        samples=kept.reshape(k * per_chain, family.param_count)[: options.keep],
        acceptance_rate=rate,
        chain_length=steps,
        diagnostics={
            "proposal_scales": (factor[:, None] * scales).tolist(),
            "free_parameters": free,
            "warnings": warnings,
            "rhat": {names[j]: split_rhat(kept[:, :, j]) for j in free},
            "ess_bulk": {names[j]: bulk_ess(kept[:, :, j]) for j in free},
        },
    )
