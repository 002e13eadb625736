"""Finite mixtures of parametric densities and the optimal sampling
density for an ensemble of targets.

Minimizing the summed mean squared difference between one sampling
density and a finite ensemble of target densities has a closed-form
solution: their average.  ``optimal_mixture`` builds it from a run's
``CandidateModelSet``, as a mixture of the distinct candidates weighted by
multiplicity ('weighted'), or as the average of the family means
('equal'), which minimises ``emsd``'s family-averaged objective.  Each
candidate is a component, so its importance weights are at most the
inverse of its mixture weight: T over its multiplicity in 'weighted' mode
when no family is capped.  ``emsd`` evaluates the objective as an
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

``MixtureDensity.logpdf`` writes each family's components with the
natural form of ``distributions`` (one matrix product per family, log w
folded into each component's constant, normal and lognormal statistics
centred on the mean location of the mixture's components of that family)
and reduces each point's components with a max-shifted log-sum-exp
(``_logsumexp_columns``).  ``tests/test_natural_form.py`` holds it to the
direct form, ``distributions._logpdf_into``, reduced by
``scipy.special.logsumexp``.  A chunk holds every component row against
``_block_len(n_components)`` points, so at most
``distributions._BLOCK_PAIRS`` (row, point) pairs whatever the component
count: its row block and work buffer stay a few MiB per thread.  The chunks
are spread over the usable cores by ``_threads.fan_out``; each writes its
own slice of the result, and every sum adds down one column in row order
(``_column_sums``, one-point chunks included), so the values do not depend
on the chunk width or the thread count.  The ``emsd`` integrand takes its
points in chunks of the same budget against its widest family, through the
direct form.

``MixtureDensity`` reads its support from each family group (the uniform
rows' extremes, or the family's fixed support) rather than from every
component.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from ..distributions import (
    _EVAL_CHUNK,
    Distribution,
    Family,
    _block_len,
    _log_argument,
    _natural_logpdf_into,
    _natural_params,
    _natural_stats,
    family_logpdf,
    family_ppf,
)
from ..exceptions import InvalidParameterError, QuadratureError
from ..rng import RngStream
from .._threads import fan_out, workers
from .ensemble import CandidateModelSet, thin_evenly

_RULE_TOL = 1e-6
# Panel edges sit at these quantiles of every density in an integral.  The
# outermost bound the interval.  Half a decade apart in the tails, they keep
# the ratio of panel ends small near a shape < 1 pole at 0, where x grows as
# u ** (1 / shape) in the tail probability u.
_TAILS = 10.0 ** np.arange(-12.0, -1.0, 0.5)
_LEVELS = np.concatenate([_TAILS, np.arange(1, 10) / 10.0, 1.0 - _TAILS[::-1]])
_ORDERS = (10, 20)
# Draws per block of ``MixtureDensity.sample``'s inverse CDFs.
_SAMPLE_BLOCK = _EVAL_CHUNK // 4


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
        position = {fam: i for i, fam in enumerate(Family)}
        fams = [c.family for c in comps]
        codes = np.fromiter(map(position.__getitem__, fams), dtype=np.int64, count=len(comps))
        params = np.array([c.params for c in comps])
        grouped = []
        centres = {}
        los, his = [], []
        for fam in dict.fromkeys(fams):  # logpdf columns: first-seen order
            idx = np.flatnonzero(codes == position[fam])
            if fam is Family.NORMAL or fam is Family.LOGNORMAL:
                centres[fam] = float(np.mean(params[idx, 0]))
            centre = centres.get(fam, 0.0)
            log_w = np.log(np.maximum(w[idx], 1e-300))
            natural = _natural_params(fam, params[idx, 0], params[idx, 1], centre, log_w)
            grouped.append((fam, natural, centre))
            if fam is Family.UNIFORM:
                los.append(float(np.min(params[idx, 0])))
                his.append(float(np.max(params[idx, 1])))
            else:
                los.append(0.0 if fam.positive_support else -math.inf)
                his.append(math.inf)
        object.__setattr__(self, "_groups", grouped)
        object.__setattr__(self, "_centres", centres)
        object.__setattr__(self, "_params", params)
        object.__setattr__(self, "_codes", codes)
        object.__setattr__(self, "_support", (min(los), max(his)))

    @property
    def n_components(self) -> int:
        return len(self.components)

    def support(self) -> tuple[float, float]:
        """Hull of the component supports, computed at construction."""
        return self._support

    def logpdf(self, x) -> np.ndarray:
        """log Σ_i w_i p_i(x), in chunks of ``_block_len(n_components)``
        points: a (component, point) block in the natural form, one matrix
        product per family, reduced by ``_logsumexp_columns``.  Chunks run on
        ``_threads.fan_out``; each writes only its own slice of the result."""
        x = np.asarray(x, dtype=np.float64)
        flat = np.atleast_1d(x).ravel()
        out = np.empty(flat.size)
        widest = max(natural.theta.shape[1] for _, natural, _ in self._groups)
        step = _block_len(self.n_components)

        def chunk(lo: int) -> None:
            xs = flat[lo : lo + step]
            lx, outside = _log_argument(xs)
            zero = np.zeros(xs.size)
            rows = np.empty((self.n_components, xs.size))
            tmp = np.empty((widest, xs.size))
            r = 0
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                for fam, natural, centre in self._groups:
                    block = rows[r : r + natural.theta.shape[1]]
                    stats = _natural_stats(fam, xs, lx, outside, centre, zero)
                    _natural_logpdf_into(fam, stats, natural, block.T, tmp[: block.shape[0]].T)
                    r += block.shape[0]
                out[lo : lo + step] = _logsumexp_columns(rows)

        chunks = list(range(0, flat.size, step))
        fan_out(chunk, chunks, workers(self.n_components * flat.size))
        return out.reshape(x.shape) if x.ndim else np.float64(out[0])

    def pdf(self, x) -> np.ndarray:
        return np.exp(self.logpdf(x))

    def sample(self, rng: RngStream, n: int) -> np.ndarray:
        """n draws; draw i selects its component and inverse-CDF position
        from dedicated counters, so samples are order-independent.  Blocks
        of ``_SAMPLE_BLOCK`` draws run their per-family inverse CDFs on
        ``_threads.fan_out``; each writes only its own slice, and every
        draw is elementwise, so the values do not depend on the blocks."""
        if n < 1:
            raise InvalidParameterError("sample size must be >= 1")
        u = rng.uniforms(2 * n)
        cum = np.cumsum(self.weights)
        cum[-1] = 1.0
        idx = np.searchsorted(cum, u[:n], side="right")
        out = np.empty(n)
        codes = self._codes[idx]

        def block(lo: int) -> None:
            sl = slice(lo, lo + _SAMPLE_BLOCK)
            for fi, fam in enumerate(Family):
                mask = codes[sl] == fi
                if np.any(mask):
                    sel = idx[sl][mask]
                    out[sl][mask] = family_ppf(
                        fam, self._params[sel, 0], self._params[sel, 1], u[n:][sl][mask]
                    )

        fan_out(block, list(range(0, n, _SAMPLE_BLOCK)), workers(n))
        return out

    def to_json(self) -> dict:
        """The weights and each component's ``Distribution.to_json``, read
        from the family codes and parameter rows kept at construction."""
        names = [fam.value for fam in Family]
        return {
            "weights": self.weights.tolist(),
            "components": [
                {"family": names[k], "params": p}
                for k, p in zip(self._codes.tolist(), self._params.tolist())
            ],
        }


def _logsumexp_columns(a: np.ndarray) -> np.ndarray:
    """log Σ_i exp(a[i, j]) for every column j, overwriting ``a``:
    log Σ_i exp(a[i, j] - m) + m for the column max m.

    A column whose max is -inf, +inf or NaN is shifted by 0 instead and
    gives -inf, +inf or NaN, as log Σ exp a does.  The sums add down each
    column in row order (``_column_sums``), so a column's value does not
    depend on how many columns share the block.
    """
    top = a.max(axis=0)
    shift = np.where(np.isfinite(top), top, 0.0)
    a -= shift
    np.exp(a, out=a)
    with np.errstate(divide="ignore"):  # a column of -inf: log 0
        out = np.log(_column_sums(a))
    out += shift
    return out


def _column_sums(a: np.ndarray) -> np.ndarray:
    """Σ_i a[i, j] for every column j, adding the rows in order.

    numpy sums each column of a block of two or more columns row by row,
    but the single column of an (m, 1) block pairwise.  That column goes
    through a cumulative sum, which adds in row order too, so the sum at a
    point does not depend on how many points share its block.
    """
    if a.shape[1] == 1:
        return np.cumsum(a[:, 0])[-1:]
    return a.sum(axis=0)


def optimal_mixture(
    candidates: CandidateModelSet,
    mode: str = "weighted",
    max_components_per_family: int = 500,
) -> MixtureDensity:
    """The EMSD-optimal sampling density for the candidate ensemble: a
    mixture of its distinct candidates.

    In 'weighted' mode q = (1/T) Σ_t p_t, so each distinct candidate weighs
    its multiplicity over T.  In 'equal' mode each of the F families present
    weighs 1/F, split over its candidates by multiplicity: the average of
    the family means, the minimiser of ``emsd``.  A family with more than
    ``max_components_per_family`` distinct candidates keeps that many,
    thinned evenly in first-appearance order (``thin_evenly``); the kept
    ones share the family's mass in proportion to their multiplicity.
    """
    if mode not in ("equal", "weighted"):
        raise InvalidParameterError("mode must be 'equal' or 'weighted'")
    if max_components_per_family < 1:
        raise InvalidParameterError("max_components_per_family must be >= 1")
    if not candidates.entries:
        raise InvalidParameterError("candidate set is empty")
    groups: dict[Family, dict[Distribution, int]] = {}
    for d, k in Counter(candidates.entries).items():  # in first-appearance order
        groups.setdefault(d.family, {})[d] = k
    comps: list[Distribution] = []
    w = []
    for counts in groups.values():
        dists = list(counts)
        mult = np.array(list(counts.values()), dtype=np.float64)
        mass = mult.sum() if mode == "weighted" else 1.0  # MixtureDensity normalises
        keep = thin_evenly(np.arange(len(dists)), max_components_per_family)
        comps += [dists[k] for k in keep]
        w.append(mult[keep] * (mass / mult[keep].sum()))
    return MixtureDensity(components=tuple(comps), weights=np.concatenate(w))


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
    parameters, the panel rule over the argument).  The integrand takes
    ``_block_len(m)`` points at a time, m the largest family's entry count,
    against every entry row of each family, and averages each column in
    row order (``_column_sums``)."""
    groups = targets.by_family()
    if not groups:
        raise InvalidParameterError("target set is empty")
    params = [(fam, np.array([d.params for d in ds])) for fam, ds in groups.items()]
    step = _block_len(max(p.shape[0] for _, p in params))

    def integrand(x: np.ndarray) -> np.ndarray:
        qx = q.pdf(x)
        out = np.zeros(x.size)
        for lo in range(0, x.size, step):
            xs, qs = x[lo : lo + step], qx[lo : lo + step]
            for fam, p in params:
                d = np.exp(family_logpdf(fam, p[:, :1], p[:, 1:], xs)) - qs
                d *= d
                out[lo : lo + step] += _column_sums(d) / p.shape[0]
        return 0.5 * out

    return _integrate(integrand, list(targets.entries) + list(q.components))
