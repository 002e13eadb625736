"""End-to-end multimodel pipeline: quantify input-distribution
uncertainty from a dataset, draw the candidate ensemble from it, build the
optimal sampling mixture from that ensemble, and propagate every candidate
through a model in one loop.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..distributions import Dataset, Family, data_in_support
from ..exceptions import InvalidParameterError
from ..models import CostLedger, Model
from ..rng import RngStream
from .ensemble import CandidateModelSet, build_candidate_set
from .inference import ModelProbabilities, aic_weights, bayes_posteriors
from .mcmc import McmcOptions, ParameterPosterior, sample_posteriors
from .mixture import MixtureDensity, optimal_mixture
from .priors import default_priors
from .propagate import MultimodelReport, PropagationSamples, draw_propagation_samples, reweight

_EVIDENCE_SPLIT = 10
_MCMC_SPLIT = 20
_CANDIDATE_SPLIT = 30
_PROPAGATE_SPLIT = 40

DEFAULT_FAMILIES = (Family.NORMAL, Family.LOGNORMAL, Family.GAMMA, Family.WEIBULL)


@dataclass
class MultimodelRun:
    probabilities: ModelProbabilities
    posteriors: dict[Family, ParameterPosterior]
    candidates: CandidateModelSet
    mixture: MixtureDensity
    report: MultimodelReport
    samples: PropagationSamples


def quantify_input_uncertainty(
    data: Dataset,
    families=DEFAULT_FAMILIES,
    *,
    inference: str = "aic",
    priors: dict | None = None,
    model_priors=None,
    n_ev: int = 10_000,
    mcmc: McmcOptions = McmcOptions(),
    rng: RngStream,
    ledger: CostLedger | None = None,
) -> tuple[ModelProbabilities, dict[Family, ParameterPosterior]]:
    """Model probabilities plus parameter posteriors for every family
    with positive probability.

    ``families`` must be distinct.  Under ``inference="aic"`` the ledger's
    ``inference`` phase times the AIC weights and its ``mcmc`` phase the
    Metropolis walk (``mcmc``).  Under ``"bayes"`` one importance sampler
    per family gives its evidence and ``mcmc.keep`` posterior rows
    (``bayes_posteriors``), timed as the ``inference`` phase alone;
    ``burn_in`` and ``thin`` are not read.  Neither phase evaluates the
    model, so no work is charged."""
    ledger = ledger if ledger is not None else CostLedger()
    families = [Family(f) for f in families]
    if len(set(families)) != len(families):
        raise InvalidParameterError("families must be distinct")
    with ledger.phase("inference"):
        if priors is None:
            priors = {f: default_priors(f, data) for f in families if data_in_support(f, data)}
        if inference == "bayes":
            # Family i draws on rng.split(_EVIDENCE_SPLIT).split(i).
            return bayes_posteriors(
                families, data, priors, model_priors, n_ev, mcmc.keep,
                rng.split(_EVIDENCE_SPLIT),
            )
        if inference != "aic":
            raise InvalidParameterError("inference must be 'aic' or 'bayes'")
        probabilities = aic_weights(families, data)

    # Family i, if its probability is positive, samples on
    # rng.split(_MCMC_SPLIT + i); all of them in one lockstep loop.
    with ledger.phase("mcmc"):
        active = [i for i, p in enumerate(probabilities.pi) if p > 0.0]
        fams = [probabilities.families[i] for i in active]
        samples = sample_posteriors(
            fams, data, [priors[f] for f in fams], mcmc,
            [rng.split(_MCMC_SPLIT + i) for i in active],
        )
    posteriors: dict[Family, ParameterPosterior] = dict(zip(fams, samples))
    return probabilities, posteriors


def run_multimodel(
    model: Model,
    data: Dataset,
    families=DEFAULT_FAMILIES,
    *,
    inference: str = "aic",
    ensemble_size: int = 100,
    n: int = 5000,
    mixture_mode: str = "weighted",
    max_components_per_family: int = 500,
    priors: dict | None = None,
    model_priors=None,
    n_ev: int = 10_000,
    mcmc: McmcOptions = McmcOptions(),
    rng: RngStream,
    ledger: CostLedger | None = None,
) -> MultimodelRun:
    """The full single-loop pipeline for one dataset and one model.

    The proposal is ``optimal_mixture`` of the ``ensemble_size`` candidates
    (``mixture_mode``, at most ``max_components_per_family`` components per
    family), so every candidate it does not thin out is one of its
    components.  The ledger holds the ``n`` model evaluations and the wall
    seconds of the phases ``inference``, ``mcmc`` (``inference="aic"``
    only), ``candidates_mixture``, ``draw`` and ``reweight``."""
    ledger = ledger if ledger is not None else CostLedger()
    probabilities, posteriors = quantify_input_uncertainty(
        data,
        families,
        inference=inference,
        priors=priors,
        model_priors=model_priors,
        n_ev=n_ev,
        mcmc=mcmc,
        rng=rng,
        ledger=ledger,
    )
    with ledger.phase("candidates_mixture"):
        candidates = build_candidate_set(
            probabilities, posteriors, ensemble_size, rng.split(_CANDIDATE_SPLIT)
        )
        mixture = optimal_mixture(candidates, mixture_mode, max_components_per_family)
    with ledger.phase("draw"):
        samples = draw_propagation_samples(model, mixture, n, rng.split(_PROPAGATE_SPLIT), ledger)
    with ledger.phase("reweight"):
        report = reweight(samples, candidates, ledger)
    return MultimodelRun(
        probabilities=probabilities,
        posteriors=posteriors,
        candidates=candidates,
        mixture=mixture,
        report=report,
        samples=samples,
    )
