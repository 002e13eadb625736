"""Random-walk Metropolis sampling of distribution parameters.

``_CHAINS`` (4) chains per family, and the chains of every family sampled
in one ``sample_posteriors`` call, advance in one lockstep loop: one array
step proposes, evaluates and accepts for every chain at once.  Within the
step each family evaluates its log density on its own rows, and the
coordinate priors are evaluated once per prior class across families (an
object of any other class through its own ``logpdf``).  What each chain
draws is unchanged by this: a family's draws are the ones it gets alone,
as ``posterior_sample`` samples it.  Every chain starts at the same
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
from .priors import LogUniformPrior, NormalPrior, UniformPrior

_CHAINS = 4
_BLOCK = 512  # steps of pre-drawn randomness per fetch
_ADAPT_WINDOW = 100
_ACCEPT_LOW = 0.2
_ACCEPT_HIGH = 0.5
# Vehtari et al. recommend using draws only when R-hat is below 1.01.
RHAT_LIMIT = 1.01
# Prior classes whose log densities the sampler evaluates in one call per
# class (their ``_formula`` on stacked ``_params``); any other prior object
# is called through its own ``logpdf``.
_BATCHED_PRIORS = (UniformPrior, LogUniformPrior, NormalPrior)


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
    """The parameter posterior of one family: ``sample_posteriors`` with a
    single entry."""
    if rng is None:
        raise InvalidParameterError("posterior_sample requires an RngStream")
    return sample_posteriors([family], data, [prior], options, [rng])[0]


@dataclass
class _FamilyChains:
    """One family's ``_CHAINS`` rows of the lockstep state."""

    family: Family
    rows: slice
    free: list[int]
    scales: np.ndarray  # initial proposal scale per free coordinate
    streams: list[RngStream]
    # (parameters, walk coordinates) at the MLE, then at the prior medians;
    # None where a log-walk coordinate is not positive and finite there.
    starts: list


def sample_posteriors(
    families,
    data: Dataset,
    priors: list,
    options: McmcOptions,
    rngs: list,
) -> list[ParameterPosterior]:
    """Random-walk Metropolis on the parameter posterior of each family,
    ``_CHAINS`` chains per family, every chain of every family in one
    lockstep loop.

    ``priors[f]`` and ``rngs[f]`` belong to ``families[f]``, and each
    family's draws are the ones it gets when sampled alone.  Coordinates
    with point-mass priors stay fixed at their value.  The proposal is an
    independent Gaussian step per free coordinate; each chain's scale
    factor adapts in burn-in windows and is then frozen.
    """
    families = [Family(f) for f in families]
    if not len(priors) == len(rngs) == len(families):
        raise InvalidParameterError("one prior list and one RngStream per family required")
    k = _CHAINS
    n_rows = k * len(families)
    x = data.values
    lx, outside = _log_argument(x)
    out = np.empty((n_rows, x.size))
    tmp = np.empty((n_rows, x.size))
    # One row per chain: the walk coordinates and parameters of the two
    # parameters every family has, then the log target.  ``new`` holds the
    # proposal, ``cur`` the chain state; accepting copies whole rows.  A
    # pinned coordinate walks nowhere (walk 0, scale 0) and its parameter
    # column keeps the pinned value.
    cur = np.zeros((n_rows, 5))
    new = np.zeros_like(cur)
    phi_new, theta_new, lp_new = new[:, :2], new[:, 2:4], new[:, 4]
    log_walk = np.zeros((n_rows, 2), dtype=bool)  # free, walked in log space
    plain_walk = np.zeros((n_rows, 2), dtype=bool)  # free, walked as is
    scales = np.zeros((n_rows, 2))
    pinned_value = np.zeros((n_rows, 2))
    lp_fixed = np.zeros(n_rows)  # log prior of the pinned coordinates
    jac = np.zeros((n_rows, 2))  # Jacobian of the log walk, 0 elsewhere
    log_prior = np.zeros((n_rows, 2))  # coordinate log priors, 0 if pinned

    chains: list[_FamilyChains] = []
    kernels = []
    batched: dict[type, tuple[list, list, list]] = {}
    singles = []
    for f, (family, prior, rng) in enumerate(zip(families, priors, rngs)):
        if len(prior) != family.param_count:
            raise InvalidParameterError("one prior per parameter required")
        free = [j for j, pr in enumerate(prior) if not getattr(pr, "fixed", False)]
        pinned = [j for j in range(family.param_count) if j not in free]
        if not free:
            raise InvalidParameterError("all parameters fixed; nothing to sample")
        rows = slice(k * f, k * (f + 1))
        positive = family.positive_params
        for j in free:
            (log_walk if positive[j] else plain_walk)[rows, j] = True
            pr = prior[j]
            if type(pr) in _BATCHED_PRIORS:
                src, dst, params = batched.setdefault(type(pr), ([], [], []))
                for r in range(rows.start, rows.stop):
                    src.append(r * new.shape[1] + 2 + j)  # theta_new[r, j] in new
                    dst.append(r * 2 + j)  # log_prior[r, j]
                    params.append(pr._params)
            else:  # any other prior object: its own logpdf on its rows
                singles.append((rows, j, theta_new[rows, j], pr.logpdf))
        fam_scales = _initial_scales(family, data, free)
        scales[rows, free] = fam_scales
        values = [prior[j].value for j in pinned]
        pinned_value[rows, pinned] = values
        lp_fixed[rows] = sum((float(prior[j].logpdf(v)) for j, v in zip(pinned, values)), 0.0)
        kernels.append((family, theta_new[rows, :1], theta_new[rows, 1:], out[rows], tmp[rows]))
        starts = []
        for start in (_initial_point(family, data, prior), _prior_medians(prior)):
            start[pinned] = values
            if not all(0.0 < start[j] < math.inf for j in free if positive[j]):
                starts.append(None)
                continue
            phi = np.zeros(2)
            for j in free:
                phi[j] = math.log(start[j]) if positive[j] else start[j]
            starts.append((start, phi))
        streams = [rng.split(c) for c in range(k)]
        chains.append(_FamilyChains(family, rows, free, fam_scales, streams, starts))
    batched = [
        (cls._formula, np.array(src), np.array(dst), [np.array(v) for v in zip(*params)])
        for cls, (src, dst, params) in batched.items()
    ]
    terms = [jac[:, 0], log_prior[:, 0], jac[:, 1], log_prior[:, 1]]
    # ``exp`` runs on whole columns of ``new``, and the other coordinates
    # are put back after it.  A masked call would save the put-back but may
    # take numpy's SIMD exp loop, whose results differ from the strided
    # loop's in the last bit now and then, which changes draws.
    columns = [(phi_new[:, j], theta_new[:, j]) for j in range(2)]
    is_pinned = ~(log_walk | plain_walk)

    def log_target() -> None:
        """Log posterior of each chain at the walk coordinates ``phi_new``.

        Writes the parameters they map to into the free columns of
        ``theta_new`` and the target into ``lp_new``: the data log
        likelihood, the pinned coordinates' log prior, then per coordinate
        the Jacobian of its log walk and its log prior (0 where pinned).
        Invalid parameters make the kernel return -inf or NaN; every
        non-finite target counts as -inf.  Callers ignore divide, overflow
        and invalid float errors: the kernel takes logs of zero parameters,
        huge log-walk coordinates overflow ``exp`` and huge negative log
        densities overflow the data sum, to infinities the last line
        handles.
        """
        for phi_j, theta_j in columns:
            np.exp(phi_j, out=theta_j)
        np.copyto(theta_new, phi_new, where=plain_walk)
        np.copyto(theta_new, pinned_value, where=is_pinned)
        for family, a, b, out_f, tmp_f in kernels:
            _logpdf_into(family, a, b, x, lx, outside, out_f, tmp_f)
        lp = np.sum(out, axis=1, out=lp_new)
        lp += lp_fixed
        np.copyto(jac, phi_new, where=log_walk)
        for formula, src, dst, params in batched:
            log_prior.put(dst, formula(new.take(src), *params))
        for rows, j, theta_j, logpdf in singles:
            log_prior[rows, j] = logpdf(theta_j)
        for term in terms:
            lp += term
        np.copyto(lp, -np.inf, where=~np.isfinite(lp))

    # Start at the MLE; fall back to prior medians when that is infeasible.
    pending = chains
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for attempt in range(2):
            for ch in pending:
                if ch.starts[attempt] is not None:
                    theta_new[ch.rows], phi_new[ch.rows] = ch.starts[attempt]
            log_target()
            pending = [
                ch for ch in pending
                if ch.starts[attempt] is None or not np.isfinite(lp_new[ch.rows.start])
            ]
    if pending:
        raise EstimatorError("no feasible starting point for the chain")
    cur[:] = new
    phi_cur, theta_cur, lp_cur = cur[:, :2], cur[:, 2:4], cur[:, 4]

    factor = np.ones(n_rows)
    step_scale = factor[:, None] * scales

    burn_in, thin = options.burn_in, options.thin
    per_chain = -(-options.keep // k)
    steps = burn_in + per_chain * thin
    kept = np.empty((n_rows, per_chain, 2))
    window = np.zeros(n_rows, dtype=np.int64)  # accepts in the current adaptation window
    accepted = np.zeros(n_rows, dtype=np.int64)  # accepts after burn-in
    z = np.zeros((_BLOCK, n_rows, 2))  # normal increments, 0 on pinned coordinates
    log_u = np.empty((_BLOCK, n_rows))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for s0 in range(0, steps, _BLOCK):
            b = min(_BLOCK, steps - s0)
            for ch in chains:
                p = len(ch.free)
                u = np.stack(
                    [
                        st.advance(s0 * (p + 1)).uniforms(b * (p + 1)).reshape(b, p + 1)
                        for st in ch.streams
                    ],
                    axis=1,
                )  # (b, K, P+1)
                z[:b, ch.rows, ch.free] = ndtri(u[:, :, :p])
                log_u[:b, ch.rows] = np.log(u[:, :, p])
            for i in range(b):
                step = s0 + i + 1
                np.multiply(step_scale, z[i], out=phi_new)
                phi_new += phi_cur
                log_target()
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

    posteriors = []
    for ch in chains:
        total = int(accepted[ch.rows].sum())
        if total == 0:
            raise EstimatorError("chain never accepted a proposal; posterior degenerate")
        rate = total / (k * per_chain * thin)
        warnings = []
        if not 0.05 <= rate <= 0.95:
            warnings.append(f"acceptance rate {rate:.3f} outside [0.05, 0.95]")
        names = ch.family.param_names
        fam_kept = kept[ch.rows]
        posteriors.append(
            ParameterPosterior(
                family=ch.family,
                samples=fam_kept.reshape(k * per_chain, 2)[: options.keep],
                acceptance_rate=rate,
                chain_length=steps,
                diagnostics={
                    "proposal_scales": (factor[ch.rows, None] * ch.scales).tolist(),
                    "free_parameters": ch.free,
                    "warnings": warnings,
                    "rhat": {names[j]: split_rhat(fam_kept[:, :, j]) for j in ch.free},
                    "ess_bulk": {names[j]: bulk_ess(fam_kept[:, :, j]) for j in ch.free},
                },
            )
        )
    return posteriors
