"""Finite representative sets of (family, parameters) models drawn from
the quantified model-form and parameter uncertainty.

A run's ``CandidateModelSet`` is both the set of targets that ``reweight``
estimates for and the source of the proposal: ``mixture.optimal_mixture``
makes each distinct candidate one component, weighted by its multiplicity.

Candidates are built a family at a time from arrays of parameter rows
(``distributions.distributions_of``), which validates each family's rows
as one array instead of running ``Distribution``'s checks entry by entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..distributions import Distribution, Family, _invalid_rows, distributions_of
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
    ``reweight`` weights each distinct entry once, and ``optimal_mixture``
    makes it one component weighted by its multiplicity."""
    if size < 1:
        raise InvalidParameterError("candidate set size must be >= 1")
    for fam, p in zip(probabilities.families, probabilities.pi):
        if p > 0.0 and fam not in posteriors:
            raise InvalidParameterError(f"missing posterior for family '{fam.value}'")
    u = rng.uniforms(2 * size)
    cum = np.cumsum(probabilities.pi)
    cum[-1] = 1.0
    fam_idx = np.searchsorted(cum, u[:size], side="right")
    groups = []  # (family, entry positions, parameter rows), a family at a time
    for k, fam in enumerate(probabilities.families):
        at = np.flatnonzero(fam_idx == k)
        if at.size:
            post = posteriors[fam]
            pick = np.minimum((u[size + at] * post.n_samples).astype(np.int64), post.n_samples - 1)
            groups.append((fam, at, np.asarray(post.samples[pick], dtype=np.float64)))
    # The first invalid entry raises, as it would built one at a time.
    bad = [(at[m][0], fam, p[m][0]) for fam, at, p in groups if (m := _invalid_rows(fam, p)).any()]
    if bad:
        _, fam, row = min(bad, key=lambda b: b[0])
        Distribution(fam, tuple(row))
    entries: list = [None] * size
    for fam, at, p in groups:
        for i, d in zip(at.tolist(), distributions_of(fam, p)):
            entries[i] = d
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
        entries.extend(distributions_of(fam, samples))
    if not entries:
        raise InvalidParameterError("no posterior samples to build a candidate set from")
    return CandidateModelSet(entries=tuple(entries))
