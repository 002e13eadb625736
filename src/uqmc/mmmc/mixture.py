"""Finite mixtures of parametric densities and the optimal sampling
density for an ensemble of targets.

Minimizing the total expected mean squared difference between one
sampling density and an ensemble of target densities has a closed-form
solution: the convex mixture of the targets' posterior-expected
densities.  ``optimal_mixture`` realizes that expectation as an average
over stored posterior draws; ``emsd`` evaluates the objective by
adaptive quadrature as an independent optimality check.

``MixtureDensity.logpdf`` writes one row per component with the shared
family kernel ``distributions._logpdf_into`` (log x computed once per
chunk) and reduces the rows with ``_logsumexp_columns``, a numpy
log-sum-exp with the arithmetic of ``scipy.special.logsumexp``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad, quad_vec

from ..distributions import (
    Distribution,
    Family,
    _log_argument,
    _logpdf_into,
    family_logpdf,
    family_ppf,
)
from ..exceptions import InvalidParameterError, QuadratureError
from ..rng import RngStream
from .ensemble import CandidateModelSet, thin_evenly
from .inference import ModelProbabilities
from .mcmc import ParameterPosterior

_CHUNK = 4096
_QUAD_TOL = 1e-8
_TAIL = 1e-12


@dataclass(frozen=True)
class MixtureDensity:
    """Weighted finite mixture of parametric densities."""

    components: tuple[Distribution, ...]
    weights: np.ndarray

    def __post_init__(self):
        comps = tuple(self.components)
        w = np.asarray(self.weights, dtype=np.float64)
        if len(comps) == 0 or w.shape != (len(comps),):
            raise InvalidParameterError("weights must match components")
        if np.any(w < 0.0) or np.sum(w) <= 0.0:
            raise InvalidParameterError("weights must be non-negative with positive sum")
        w = w / np.sum(w)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "weights", w)
        groups: dict[Family, list[int]] = {}
        for i, c in enumerate(comps):
            groups.setdefault(c.family, []).append(i)
        grouped = []
        for fam, idx in groups.items():
            params = np.array([comps[i].params for i in idx])
            log_w = np.log(np.maximum(w[idx], 1e-300))
            grouped.append((fam, params[:, :1], params[:, 1:], log_w[:, None]))
        object.__setattr__(self, "_groups", grouped)
        los, his = zip(*(c.support() for c in comps))
        object.__setattr__(self, "_support", (min(los), max(his)))

    @property
    def n_components(self) -> int:
        return len(self.components)

    @property
    def normalized(self) -> bool:
        """Weights are renormalized at construction, so this always holds."""
        return bool(abs(float(np.sum(self.weights)) - 1.0) <= 1e-12)

    def support(self) -> tuple[float, float]:
        """Hull of the component supports, computed at construction."""
        return self._support

    def logpdf(self, x) -> np.ndarray:
        """log Σ_i w_i p_i(x), in chunks of ``_CHUNK`` points: one row per
        component (grouped by family), reduced by ``_logsumexp_columns``."""
        x = np.asarray(x, dtype=np.float64)
        flat = np.atleast_1d(x).ravel()
        out = np.empty(flat.size)
        widest = max(a.shape[0] for _, a, _, _ in self._groups)
        for lo in range(0, flat.size, _CHUNK):
            xs = flat[None, lo : lo + _CHUNK]
            arg = _log_argument(xs)
            rows = np.empty((self.n_components, xs.size))
            tmp = np.empty((widest, xs.size))
            r = 0
            for fam, a, b, log_w in self._groups:
                block = rows[r : r + a.shape[0]]
                _logpdf_into(fam, a, b, xs, *arg, block, tmp[: a.shape[0]])
                block += log_w
                r += a.shape[0]
            out[lo : lo + _CHUNK] = _logsumexp_columns(rows)
        return out.reshape(x.shape) if x.ndim else np.float64(out[0])

    def pdf(self, x) -> np.ndarray:
        return np.exp(self.logpdf(x))

    def sample(self, rng: RngStream, n: int) -> np.ndarray:
        """n draws; draw i selects its component and inverse-CDF position
        from dedicated counters, so samples are order-independent."""
        if n < 1:
            raise InvalidParameterError("sample size must be >= 1")
        u = rng.uniforms(2 * n)
        cum = np.cumsum(self.weights)
        cum[-1] = 1.0
        idx = np.searchsorted(cum, u[:n], side="right")
        out = np.empty(n)
        a = np.array([c.params[0] for c in self.components])
        b = np.array([c.params[1] for c in self.components])
        fams = np.array([list(Family).index(c.family) for c in self.components])
        for fi, fam in enumerate(Family):
            mask = fams[idx] == fi
            if np.any(mask):
                sel = idx[mask]
                out[mask] = family_ppf(fam, a[sel], b[sel], u[n:][mask])
        return out

    def quantile_bounds(self, tail: float = _TAIL) -> tuple[float, float]:
        return _integration_bounds(self.components, tail)

    def to_json(self) -> dict:
        return {
            "weights": self.weights.tolist(),
            "components": [c.to_json() for c in self.components],
        }


def _logsumexp_columns(a: np.ndarray) -> np.ndarray:
    """log Σ_i exp(a[i, j]) for every column j, overwriting ``a``.

    The arithmetic of ``scipy.special.logsumexp(a, axis=0)``: the m entries
    equal to the column max are taken out of the shifted sum s, and the
    result is log1p(s / m) + log(m) + max.  A column whose max is -inf,
    +inf or NaN gives that max, as scipy's direct log(Σ exp a) does.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        a_max = a.max(axis=0)
        top = a == a_max
        m = top.sum(axis=0, dtype=np.float64)
        np.copyto(a, -np.inf, where=top)
        a -= a_max
        np.exp(a, out=a)
        s = a.sum(axis=0)
        np.divide(s, m, out=s, where=s != 0.0)
        out = np.log1p(s) + np.log(m) + a_max
    return np.where(np.isfinite(out), out, a_max)


def optimal_mixture(
    probabilities: ModelProbabilities,
    posteriors: dict[Family, ParameterPosterior],
    mode: str = "weighted",
    max_components_per_family: int = 500,
) -> MixtureDensity:
    """The EMSD-optimal sampling density as a flat component mixture.

    Each family contributes its posterior-predictive average (an equal
    split over at most ``max_components_per_family`` stored draws); the
    family weights are uniform in 'equal' mode or the model probabilities
    in 'weighted' mode.
    """
    if mode not in ("equal", "weighted"):
        raise InvalidParameterError("mode must be 'equal' or 'weighted'")
    if not posteriors:
        raise InvalidParameterError("posteriors must be nonempty")
    fams = [f for f in probabilities.families if f in posteriors]
    if mode == "weighted":
        weights = {f: p for f, p in zip(probabilities.families, probabilities.pi)}
        fams = [f for f in fams if weights[f] > 0.0]
    if not fams:
        raise InvalidParameterError("no family with positive weight has a posterior")
    comps: list[Distribution] = []
    w: list[float] = []
    for fam in fams:
        samples = thin_evenly(posteriors[fam].samples, max_components_per_family)
        fam_w = (1.0 / len(fams)) if mode == "equal" else weights[fam]
        for row in samples:
            comps.append(Distribution(fam, tuple(row)))
            w.append(fam_w / samples.shape[0])
    return MixtureDensity(components=tuple(comps), weights=np.asarray(w))


def _integration_bounds(dists, tail: float = _TAIL) -> tuple[float, float]:
    lo = min(float(d.ppf(tail)) for d in dists)
    hi = max(float(d.ppf(1.0 - tail)) for d in dists)
    return lo, hi


def _breakpoints(dists, lo: float, hi: float, cap: int = 40) -> list[float]:
    """Interior subdivision hints (component quartiles) for the adaptive
    integrator; heavy-tailed mixtures concentrate mass in a tiny fraction
    of the integration interval and starve it otherwise."""
    pts = set()
    for d in dists:
        for u in (0.25, 0.5, 0.75):
            pts.add(float(d.ppf(u)))
    pts = np.array(sorted(p for p in pts if lo < p < hi))
    return thin_evenly(pts, cap).tolist()


def _quad(fn, lo: float, hi: float, points=None) -> float:
    limit = max(200, 20 * (len(points) + 1)) if points else 200
    val, err = quad(
        fn, lo, hi, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL, limit=limit, points=points
    )
    if err > 1e-6:
        raise QuadratureError(f"quadrature error estimate {err:.2e} above tolerance")
    return float(val)


def mixture_normalization(q: MixtureDensity) -> float:
    """Quadrature integral of the mixture density over its support."""
    lo, hi = q.quantile_bounds()
    pts = _breakpoints(q.components, lo, hi)
    return _quad(lambda x: float(q.pdf(np.array([x]))[0]), lo, hi, points=pts)


def emsd(q: MixtureDensity, targets: CandidateModelSet) -> float:
    """Total expected mean squared difference between q and the target
    ensemble: sum over families of the average of 0.5 * integral of
    (p - q)^2 over the entries of that family (Monte Carlo over
    parameters, adaptive quadrature over the argument)."""
    groups = targets.by_family()
    if not groups:
        raise InvalidParameterError("target set is empty")
    dists = list(targets.entries) + list(q.components)
    bounds_lo, bounds_hi = _integration_bounds(dists)
    pts = _breakpoints(dists, bounds_lo, bounds_hi)

    # One adaptive pass for the whole ensemble: the integrand is the vector
    # of squared deviations (p_j(x) - q(x))^2 across every target entry.
    fams = list(groups)
    params = {
        fam: np.array([d.params for d in groups[fam]]) for fam in fams
    }

    def integrand(x: float) -> np.ndarray:
        qx = float(q.pdf(np.array([x]))[0])
        parts = [
            np.exp(family_logpdf(fam, params[fam][:, 0], params[fam][:, 1], x)) - qx
            for fam in fams
        ]
        d = np.concatenate(parts)
        return d * d

    res, err = quad_vec(
        integrand, bounds_lo, bounds_hi,
        epsabs=_QUAD_TOL, epsrel=_QUAD_TOL, points=pts, norm="max",
    )
    if err > 1e-6:
        raise QuadratureError(f"quadrature error estimate {err:.2e} above tolerance")
    total = 0.0
    offset = 0
    for fam in fams:
        m = len(groups[fam])
        total += 0.5 * float(np.mean(res[offset : offset + m]))
        offset += m
    return float(total)
