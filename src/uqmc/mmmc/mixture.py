"""Finite mixtures of parametric densities and the optimal sampling
density for an ensemble of targets.

Minimizing the total expected mean squared difference between one
sampling density and an ensemble of target densities has a closed-form
solution: the convex mixture of the targets' posterior-expected
densities.  ``optimal_mixture`` realizes that expectation as an average
over stored posterior draws; ``emsd`` evaluates the objective as an
independent optimality check, and ``mixture_normalization`` checks that a
mixture integrates to one.

Both integrate with one fixed rule, not with scipy's adaptive integrators,
whose import would cost every ``import uqmc`` a third of its time.  The
interval between the 1e-12 and 1 - 1e-12 quantiles of every density
involved is cut at their quantiles at ``_LEVELS``, and every panel gets
Gauss-Legendre nodes (``numpy.polynomial.legendre.leggauss``), where the
densities are evaluated in vectorised calls.  The rule runs at two orders
per panel; the higher-order value is reported, and a ``QuadratureError``
is raised when the two differ by more than 1e-6.  The nodes do not depend
on the mixture weights, so mixtures that differ only in their weights are
scored in one positive-weight inner product, under which the average of
the targets is still the exact minimiser: ``emsd`` ranks it against any
reweighting exactly, up to rounding.

``MixtureDensity.logpdf`` writes one row per component with the shared
family kernel ``distributions._logpdf_into`` (log x computed once per
chunk) and reduces the rows with ``_logsumexp_columns``, a numpy
log-sum-exp with the arithmetic of ``scipy.special.logsumexp``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

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
_RULE_TOL = 1e-6
# Panel edges sit at these quantiles of every density in an integral.  The
# outermost bound the interval.  Half a decade apart in the tails, they keep
# the ratio of panel ends small near a shape < 1 pole at 0, where x grows as
# u ** (1 / shape) in the tail probability u.
_TAILS = 10.0 ** np.arange(-12.0, -1.0, 0.5)
_LEVELS = np.concatenate([_TAILS, np.arange(1, 10) / 10.0, 1.0 - _TAILS[::-1]])
_ORDERS = (10, 20)


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
                with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
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


def _integrate(fn, dists) -> float:
    """Integral of the vectorised ``fn`` over the 1e-12 / 1 - 1e-12 quantile
    hull of ``dists``, by Gauss-Legendre on every panel between their
    quantiles at ``_LEVELS``.  Both orders of ``_ORDERS`` share one call of
    ``fn``; the higher-order value is returned unless they disagree by more
    than ``_RULE_TOL``."""
    cuts = np.unique(np.concatenate([d.ppf(_LEVELS) for d in dists]))
    half = 0.5 * np.diff(cuts)[:, None]
    rules = [leggauss(order) for order in _ORDERS]
    x = np.concatenate([(cuts[:-1, None] + half * (t + 1.0)).ravel() for t, _ in rules])
    fx = fn(x)
    split = half.size * _ORDERS[0]
    low = float(fx[:split] @ (half * rules[0][1]).ravel())
    high = float(fx[split:] @ (half * rules[1][1]).ravel())
    if not abs(high - low) <= _RULE_TOL:
        raise QuadratureError(
            f"panel rules of order {_ORDERS} differ by {abs(high - low):.2e}"
        )
    return high


def mixture_normalization(q: MixtureDensity) -> float:
    """Integral of the mixture density over its quantile hull."""
    return _integrate(q.pdf, q.components)


def emsd(q: MixtureDensity, targets: CandidateModelSet) -> float:
    """Total expected mean squared difference between q and the target
    ensemble: sum over families of the average of 0.5 * integral of
    (p - q)^2 over the entries of that family (Monte Carlo over
    parameters, the panel rule over the argument)."""
    groups = targets.by_family()
    if not groups:
        raise InvalidParameterError("target set is empty")
    params = [(fam, np.array([d.params for d in ds])) for fam, ds in groups.items()]

    def integrand(x: np.ndarray) -> np.ndarray:
        qx = q.pdf(x)
        out = np.zeros(x.size)
        for lo in range(0, x.size, _CHUNK):
            xs, qs = x[lo : lo + _CHUNK], qx[lo : lo + _CHUNK]
            for fam, p in params:
                d = np.exp(family_logpdf(fam, p[:, :1], p[:, 1:], xs)) - qs
                out[lo : lo + _CHUNK] += np.mean(d * d, axis=0)
        return 0.5 * out

    return _integrate(integrand, list(targets.entries) + list(q.components))
