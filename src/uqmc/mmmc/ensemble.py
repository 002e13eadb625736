"""Finite representative sets of (family, parameters) models drawn from
the quantified model-form and parameter uncertainty."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..distributions import Distribution, Family
from ..exceptions import InvalidParameterError
from ..rng import RngStream
from .inference import ModelProbabilities
from .mcmc import ParameterPosterior


def thin_evenly(rows: np.ndarray, cap: int) -> np.ndarray:
    """At most ``cap`` rows, evenly spaced, keeping the first and last."""
    n = rows.shape[0]
    if n <= cap:
        return rows
    return rows[np.unique(np.round(np.linspace(0, n - 1, cap)).astype(int))]


@dataclass(frozen=True)
class CandidateModelSet:
    """T parametrized distributions sampled family-by-parameters."""

    entries: tuple[Distribution, ...]

    @property
    def size(self) -> int:
        return len(self.entries)

    def by_family(self) -> dict[Family, list[Distribution]]:
        groups: dict[Family, list[Distribution]] = {}
        for d in self.entries:
            groups.setdefault(d.family, []).append(d)
        return groups


def build_candidate_set(
    probabilities: ModelProbabilities,
    posteriors: dict[Family, ParameterPosterior],
    size: int,
    rng: RngStream,
) -> CandidateModelSet:
    """Draw ``size`` i.i.d. (family, theta) pairs: the family from the
    model probabilities, theta uniformly from that family's stored
    posterior draws (with replacement).

    Entries repeat: draws with replacement repeat, and so do the stored
    posterior draws themselves, since a rejected Metropolis proposal keeps
    the previous state and resampling repeats heavy importance draws.
    ``reweight`` weights each distinct entry once."""
    if size < 1:
        raise InvalidParameterError("candidate set size must be >= 1")
    for fam, p in zip(probabilities.families, probabilities.pi):
        if p > 0.0 and fam not in posteriors:
            raise InvalidParameterError(f"missing posterior for family '{fam.value}'")
    u = rng.uniforms(2 * size)
    cum = np.cumsum(probabilities.pi)
    cum[-1] = 1.0
    fam_idx = np.searchsorted(cum, u[:size], side="right")
    entries = []
    for i in range(size):
        fam = probabilities.families[int(fam_idx[i])]
        post = posteriors[fam]
        row = min(int(u[size + i] * post.n_samples), post.n_samples - 1)
        entries.append(Distribution(fam, tuple(post.samples[row])))
    return CandidateModelSet(entries=tuple(entries))


def candidate_set_from_posteriors(
    posteriors: dict[Family, ParameterPosterior],
    max_per_family: int | None = None,
) -> CandidateModelSet:
    """Deterministic candidate set holding every stored posterior draw
    (optionally thinned), useful as a fixed target ensemble."""
    entries = []
    for fam, post in posteriors.items():
        samples = post.samples
        if max_per_family is not None:
            samples = thin_evenly(samples, max_per_family)
        entries.extend(Distribution(fam, tuple(row)) for row in samples)
    if not entries:
        raise InvalidParameterError("no posterior samples to build a candidate set from")
    return CandidateModelSet(entries=tuple(entries))
