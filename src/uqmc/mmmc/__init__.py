"""Multimodel Monte Carlo: quantify input-distribution uncertainty from
small datasets and propagate the full candidate ensemble through a model
with one importance-sampled loop."""

from .ensemble import CandidateModelSet, build_candidate_set, candidate_set_from_posteriors
from .inference import ModelProbabilities, aic_weights, bayes_weights, model_evidence
from .mcmc import (
    RHAT_LIMIT,
    McmcOptions,
    ParameterPosterior,
    bulk_ess,
    posterior_sample,
    sample_posteriors,
    split_rhat,
)
from .mixture import MixtureDensity, emsd, mixture_normalization, optimal_mixture
from .priors import (
    LogUniformPrior,
    NormalPrior,
    PointMassPrior,
    UniformPrior,
    default_priors,
)
from .propagate import (
    MultimodelReport,
    PropagationSamples,
    draw_propagation_samples,
    effective_sample_count,
    is_estimate,
    propagate_multimodel,
    reweight,
)
from .workflow import (
    DEFAULT_FAMILIES,
    MultimodelRun,
    quantify_input_uncertainty,
    run_multimodel,
)

__all__ = [
    "CandidateModelSet",
    "DEFAULT_FAMILIES",
    "LogUniformPrior",
    "McmcOptions",
    "MixtureDensity",
    "ModelProbabilities",
    "MultimodelReport",
    "MultimodelRun",
    "NormalPrior",
    "ParameterPosterior",
    "PointMassPrior",
    "PropagationSamples",
    "RHAT_LIMIT",
    "UniformPrior",
    "aic_weights",
    "bayes_weights",
    "build_candidate_set",
    "bulk_ess",
    "candidate_set_from_posteriors",
    "default_priors",
    "draw_propagation_samples",
    "effective_sample_count",
    "emsd",
    "is_estimate",
    "mixture_normalization",
    "model_evidence",
    "optimal_mixture",
    "posterior_sample",
    "propagate_multimodel",
    "quantify_input_uncertainty",
    "reweight",
    "run_multimodel",
    "sample_posteriors",
    "split_rhat",
]
