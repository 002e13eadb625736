"""Estimator result containers shared by every method."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .models import CostLedger

# Gaussian 97.5% quantile; CLT-based intervals throughout.
Z_975 = float(ndtri(0.975))


@dataclass
class EstimateReport:
    """Point estimate with its estimated sampling variance and provenance."""

    estimate: float
    estimator_variance: float
    n_per_model: dict[str, int]
    total_cost: float
    seed: int
    method: str
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.estimator_variance < 0.0:
            raise ValueError("estimator_variance must be non-negative")

    @classmethod
    def from_ledger(cls, ledger: CostLedger, seed: int, method: str, **values) -> EstimateReport:
        """The report of a run whose every evaluation ``ledger`` holds: its
        ``counts`` are ``n_per_model`` and its ``total()`` is ``total_cost``.
        ``values`` are the estimate, its variance and the diagnostics."""
        counts, total = dict(ledger.counts), ledger.total()
        return cls(n_per_model=counts, total_cost=total, seed=seed, method=method, **values)

    @property
    def ci_95(self) -> tuple[float, float]:
        half = Z_975 * float(np.sqrt(self.estimator_variance))
        return (self.estimate - half, self.estimate + half)

    @property
    def std_error(self) -> float:
        return float(np.sqrt(self.estimator_variance))

    def to_dict(self) -> dict:
        lo, hi = self.ci_95
        return {
            "estimate": self.estimate,
            "estimator_variance": self.estimator_variance,
            "ci_95": [lo, hi],
            "n_per_model": dict(self.n_per_model),
            "total_cost": self.total_cost,
            "seed": self.seed,
            "method": self.method,
            "diagnostics": _plain(self.diagnostics),
        }


def _plain(obj):
    """Recursively convert numpy scalars/arrays for JSON round-tripping,
    with NaN and +-inf (not JSON) as None: MCMC diagnostics of chains too
    short to judge or stuck apart, and mmmc estimates, ESS and quantiles
    whose weights overflowed."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj
