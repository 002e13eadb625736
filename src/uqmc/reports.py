"""Estimator result containers shared by every method, and the writer of
``report.json``."""

from __future__ import annotations

import json
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
    t = type(obj)
    if t is float:
        return obj if math.isfinite(obj) else None
    if t is str or t is int:
        return obj
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def report_json(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)``, the
    same text, written faster.

    CPython's C encoder serves only ``indent=None``, so with an indent
    ``json.dumps`` runs its pure-Python encoder.  This writer dispatches on
    the exact type instead: dicts with str keys (sorted), lists and tuples
    recurse; a float is ``float.__repr__``, and NaN or +-inf raise
    ``ValueError`` as ``allow_nan=False`` does; a str is
    ``json.encoder.encode_basestring_ascii``.  Every other leaf, and every
    dict with a key that is not a str, goes to ``json.dumps`` with the same
    options, its lines indented to their depth.
    """
    out: list[str] = []
    _write(obj, "\n", out)
    return "".join(out)


_ascii = json.encoder.encode_basestring_ascii


def _write(obj, newline: str, out: list) -> None:
    """Append the text of ``obj`` to ``out``; ``newline`` is a line break
    followed by the indent of ``obj``'s own depth."""
    t = type(obj)
    if t is str:
        out.append(_ascii(obj))
    elif t is float:
        if not math.isfinite(obj):
            raise ValueError(f"Out of range float values are not JSON compliant: {obj!r}")
        out.append(float.__repr__(obj))
    elif t is dict and all(type(k) is str for k in obj):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for k in sorted(obj):
            out.append(sep)
            out.append(_ascii(k))
            out.append(": ")
            _write(obj[k], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif t is list or t is tuple:
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for v in obj:
            out.append(sep)
            _write(v, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    else:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
        out.append(text.replace("\n", newline))
