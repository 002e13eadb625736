"""End-to-end multimodel pipeline: quantify input-distribution
uncertainty from a dataset, build the optimal sampling mixture, and
propagate the whole candidate ensemble through a model in one loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..distributions import Dataset, Family
from ..exceptions import InvalidParameterError
from ..models import CostLedger, Model
from ..rng import RngStream
from .ensemble import CandidateModelSet, build_candidate_set
from .inference import ModelProbabilities, aic_weights, bayes_weights
from .mcmc import McmcOptions, ParameterPosterior, posterior_sample
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
    # Wall seconds per pipeline phase; not part of any deterministic report.
    phase_seconds: dict[str, float] = field(default_factory=dict)


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
) -> tuple[ModelProbabilities, dict[Family, ParameterPosterior]]:
    """Model probabilities plus parameter posteriors for every family
    with positive probability."""
    families = [Family(f) for f in families]
    if priors is None:
        priors = {
            f: default_priors(f, data)
            for f in families
            if not (f.positive_support and bool((data.values <= 0.0).any()))
        }
    if inference == "aic":
        probabilities = aic_weights(families, data)
    elif inference == "bayes":
        probabilities = bayes_weights(
            families, data, priors, model_priors, n_ev, rng.split(_EVIDENCE_SPLIT)
        )
    else:
        raise InvalidParameterError("inference must be 'aic' or 'bayes'")

    posteriors: dict[Family, ParameterPosterior] = {}
    for i, (fam, p) in enumerate(zip(probabilities.families, probabilities.pi)):
        if p > 0.0:
            posteriors[fam] = posterior_sample(
                fam, data, priors[fam], mcmc, rng.split(_MCMC_SPLIT + i)
            )
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
    """The full single-loop pipeline for one dataset and one model."""
    ledger = ledger if ledger is not None else CostLedger()
    t0 = time.perf_counter()
    probabilities, posteriors = quantify_input_uncertainty(
        data,
        families,
        inference=inference,
        priors=priors,
        model_priors=model_priors,
        n_ev=n_ev,
        mcmc=mcmc,
        rng=rng,
    )
    t1 = time.perf_counter()
    candidates = build_candidate_set(
        probabilities, posteriors, ensemble_size, rng.split(_CANDIDATE_SPLIT)
    )
    mixture = optimal_mixture(
        probabilities, posteriors, mixture_mode, max_components_per_family
    )
    t2 = time.perf_counter()
    samples = draw_propagation_samples(model, mixture, n, rng.split(_PROPAGATE_SPLIT), ledger)
    t3 = time.perf_counter()
    report = reweight(samples, candidates, ledger)
    t4 = time.perf_counter()
    return MultimodelRun(
        probabilities=probabilities,
        posteriors=posteriors,
        candidates=candidates,
        mixture=mixture,
        report=report,
        samples=samples,
        phase_seconds={
            "inference_mcmc": t1 - t0,
            "candidates_mixture": t2 - t1,
            "draw": t3 - t2,
            "reweight": t4 - t3,
        },
    )
