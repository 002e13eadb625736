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
    phase_seconds: dict[str, float] | None = None,
) -> tuple[ModelProbabilities, dict[Family, ParameterPosterior]]:
    """Model probabilities plus parameter posteriors for every family
    with positive probability.

    When ``phase_seconds`` is given, the wall seconds of the model
    probabilities and of the MCMC go into its ``inference`` and ``mcmc``
    entries."""
    t0 = time.perf_counter()
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
    t1 = time.perf_counter()

    # Family i, if its probability is positive, samples on
    # rng.split(_MCMC_SPLIT + i); all of them in one lockstep loop.
    active = [i for i, p in enumerate(probabilities.pi) if p > 0.0]
    fams = [probabilities.families[i] for i in active]
    samples = sample_posteriors(
        fams, data, [priors[f] for f in fams], mcmc,
        [rng.split(_MCMC_SPLIT + i) for i in active],
    )
    posteriors: dict[Family, ParameterPosterior] = dict(zip(fams, samples))
    if phase_seconds is not None:
        phase_seconds["inference"] = t1 - t0
        phase_seconds["mcmc"] = time.perf_counter() - t1
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
    phase_seconds: dict[str, float] = {}
    probabilities, posteriors = quantify_input_uncertainty(
        data,
        families,
        inference=inference,
        priors=priors,
        model_priors=model_priors,
        n_ev=n_ev,
        mcmc=mcmc,
        rng=rng,
        phase_seconds=phase_seconds,
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
    phase_seconds.update(candidates_mixture=t2 - t1, draw=t3 - t2, reweight=t4 - t3)
    return MultimodelRun(
        probabilities=probabilities,
        posteriors=posteriors,
        candidates=candidates,
        mixture=mixture,
        report=report,
        samples=samples,
        phase_seconds=phase_seconds,
    )
