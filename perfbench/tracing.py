"""Per-layer tracing of uqmc from outside the package.

``install`` wraps the public functions of each uqmc layer: a module-level
function is replaced under every name that refers to it in any loaded
``uqmc`` module (this covers ``from .x import f``), and a method is
replaced on its class.  Each call records a span (name, start, end,
parent span, run id) in memory and adds its duration, minus the time of
its traced children, to the self time of its name.  Some wrappers also
read counts from the call's arguments or result.  ``install`` returns a
function that restores every original.

Span names are ``<layer>.<function>``; a layer's self time is the sum of
the self times of its spans.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

LARGE_BATCH = 65536  # rows above which models.evaluate would split work


class Tracer:
    """Spans and per-name times of the traced passes of one run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.run = array("l")
        self.run_id = -1
        self._stack: list[int] = []
        self._child: list[float] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.model_s: dict[str, float] = defaultdict(float)
        self.model_units: dict[str, float] = defaultdict(float)
        self.origin = perf_counter()

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin(self, nid: int) -> int:
        sid = len(self.start)
        self.span_name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(sid)
        self._child.append(0.0)
        self.start.append(perf_counter())
        return sid

    def finish(self, sid: int) -> float:
        t = perf_counter()
        self.end[sid] = t
        dur = t - self.start[sid]
        self._stack.pop()
        child = self._child.pop()
        if self._child:
            self._child[-1] += dur
        name = self.names[self.span_name[sid]]
        self.self_s[name] += dur - child
        self.incl_s[name] += dur
        return dur

    def write_spans(self, path: Path) -> None:
        """One JSON list per span: name, start, end (seconds from the
        tracer's creation), parent span index (-1 for none), run id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "run"]}) + "\n")
            for i in range(len(self.start)):
                fh.write(
                    json.dumps([
                        self.names[self.span_name[i]],
                        self.start[i] - self.origin,
                        self.end[i] - self.origin,
                        self.parent[i],
                        self.run[i],
                    ]) + "\n"
                )


# -- counters read from calls: hook(tracer, duration, args, kwargs, result)


def _draws(tr, dur, args, kwargs, out):
    tr.counts["rng.draws"] += out.size


def _ppf(tr, dur, args, kwargs, out):
    tr.counts["distributions.ppf_values"] += np.size(out)


def _logpdf(tr, dur, args, kwargs, out):
    tr.counts["distributions.logpdf_values"] += np.size(out)


def _evaluate(tr, dur, args, kwargs, out):
    model = args[0]
    tr.counts["models.evals"] += out.size
    if out.size > LARGE_BATCH:
        tr.counts["models.large_batch_rows"] += out.size
    tr.model_s[model.id] += dur
    tr.model_units[model.id] += out.size * model.cost_per_eval


def _count(key):
    def hook(tr, dur, args, kwargs, out):
        tr.counts[key] += 1

    return hook


def _mlmc_estimate(tr, dur, args, kwargs, out):
    tr.counts["mlmc.levels"] += out.report.diagnostics["levels_used"]


def _mfmc_estimate(tr, dur, args, kwargs, out):
    tr.counts["mfmc.max_n"] = max(tr.counts["mfmc.max_n"], out[1].n[-1])


def _posterior_sample(tr, dur, args, kwargs, out):
    from uqmc.mmmc import McmcOptions

    options = args[3] if len(args) > 3 else kwargs.get("options", McmcOptions())
    kept_phase = out.chain_length - options.burn_in
    tr.counts["mcmc.steps"] += out.chain_length
    tr.counts["mcmc.proposed"] += kept_phase
    tr.counts["mcmc.accepted"] += round(out.acceptance_rate * kept_phase)


def _optimal_mixture(tr, dur, args, kwargs, out):
    tr.counts["mixture.components"] += out.n_components


def _mixture_logpdf(tr, dur, args, kwargs, out):
    tr.counts["mixture.logpdf_pairs"] += args[0].n_components * np.size(out)


def _reweight(tr, dur, args, kwargs, out):
    samples, targets = args[0], args[1]
    tr.counts["reweight.pairs"] += targets.size * samples.n
    frac = float(np.min(out.ess)) / out.n
    prev = tr.counts.get("reweight.min_ess_frac")
    tr.counts["reweight.min_ess_frac"] = frac if prev is None else min(prev, frac)


def _run_config(tr, dur, args, kwargs, out):
    tr.counts["cli.report_bytes"] += (Path(args[1]) / "report.json").stat().st_size


# layer, module, function or Class.method, counter hook.  Only functions that
# some workload reaches are listed.
TARGETS = (
    ("rng", "uqmc.rng", "RngStream.uniforms", _draws),
    ("rng", "uqmc.rng", "RngStream.generator", None),
    ("distributions", "uqmc.distributions", "family_ppf", _ppf),
    ("distributions", "uqmc.distributions", "family_logpdf", _logpdf),
    ("distributions", "uqmc.distributions", "mle_fit", None),
    ("models", "uqmc.models", "evaluate", _evaluate),
    ("models", "uqmc.models", "builtin_problem", None),
    ("mc", "uqmc.mc", "draw_inputs", None),
    ("mc", "uqmc.mc", "mc_estimate", None),
    ("mlmc", "uqmc.mlmc", "mlmc_estimate", _mlmc_estimate),
    ("mlmc", "uqmc.mlmc", "coupled_sample", _count("mlmc.top_ups")),
    ("mlmc", "uqmc.mlmc", "mlmc_allocation", _count("mlmc.rounds")),
    ("mlmc", "uqmc.mlmc", "mlmc_convergence_test", None),
    ("mfmc", "uqmc.mfmc", "mfmc_estimate", _mfmc_estimate),
    ("mfmc", "uqmc.mfmc", "pilot_statistics", None),
    ("mfmc", "uqmc.mfmc", "validate_ordering", None),
    ("mfmc", "uqmc.mfmc", "mfmc_plan", None),
    ("mfmc", "uqmc.mfmc", "combine_multifidelity", None),
    ("inference", "uqmc.mmmc.inference", "aic_weights", None),
    ("inference", "uqmc.mmmc.inference", "bayes_weights", None),
    ("inference", "uqmc.mmmc.inference", "model_evidence", None),
    ("mcmc", "uqmc.mmmc.mcmc", "posterior_sample", _posterior_sample),
    ("mixture", "uqmc.mmmc.mixture", "optimal_mixture", _optimal_mixture),
    ("mixture", "uqmc.mmmc.mixture", "MixtureDensity.logpdf", _mixture_logpdf),
    ("mixture", "uqmc.mmmc.mixture", "MixtureDensity.sample", None),
    ("ensemble", "uqmc.mmmc.ensemble", "build_candidate_set", None),
    ("propagate", "uqmc.mmmc.propagate", "draw_propagation_samples", None),
    ("propagate", "uqmc.mmmc.propagate", "reweight", _reweight),
    ("workflow", "uqmc.mmmc.workflow", "run_multimodel", None),
    ("workflow", "uqmc.mmmc.workflow", "quantify_input_uncertainty", None),
    ("cli", "uqmc.cli", "validate_config", None),
    ("cli", "uqmc.cli", "run_config", _run_config),
)

LAYERS = tuple(dict.fromkeys(layer for layer, *_ in TARGETS))
MODEL_IDS = tuple(f"gbm_l{level}" for level in range(15)) + (
    "poly_hi", "poly_lo1", "poly_lo2", "smalldata_exp",
)


def _wrap(tracer: Tracer, name: str, fn, hook):
    nid = tracer.name_id(name)

    def traced(*args, **kwargs):
        sid = tracer.begin(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            dur = tracer.finish(sid)
        if hook is not None:
            hook(tracer, dur, args, kwargs, out)
        return out

    traced.__wrapped__ = fn
    return traced


def install(tracer: Tracer):
    """Wrap every target; returns a function that restores the originals."""
    patches = []
    for layer, modname, qual, hook in TARGETS:
        mod = importlib.import_module(modname)
        if "." in qual:
            cls_name, meth = qual.split(".")
            cls = getattr(mod, cls_name)
            orig = cls.__dict__[meth]
            patches.append((cls, meth, orig))
            setattr(cls, meth, _wrap(tracer, f"{layer}.{qual}", orig, hook))
            continue
        orig = getattr(mod, qual)
        wrapped = _wrap(tracer, f"{layer}.{qual}", orig, hook)
        for mname, m in list(sys.modules.items()):
            if mname == "uqmc" or mname.startswith("uqmc."):
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        patches.append((m, attr, orig))
                        setattr(m, attr, wrapped)

    def uninstall():
        for obj, attr, orig in reversed(patches):
            setattr(obj, attr, orig)

    return uninstall


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, as totals per traced pass.

    ``*_s`` metrics named after one function are its self time unless the
    README says inclusive; ``<layer>.self_s`` sums a layer's spans.
    """
    per = 1.0 / passes
    c, self_s, incl = tracer.counts, tracer.self_s, tracer.incl_s
    layer_self = defaultdict(float)
    for name, v in self_s.items():
        layer_self[name.split(".", 1)[0]] += v

    def ratio(num, den):
        return num / den if den else 0.0

    rng_s = layer_self["rng"] * per
    mcmc_s = incl["mcmc.posterior_sample"] * per
    reweight_s = incl["propagate.reweight"] * per
    m = {
        "rng.draws": (c["rng.draws"] * per, "count"),
        "rng.busy_s": (rng_s, "s"),
        "distributions.ppf_values": (c["distributions.ppf_values"] * per, "count"),
        "distributions.ppf_s": (self_s["distributions.family_ppf"] * per, "s"),
        "distributions.logpdf_values": (c["distributions.logpdf_values"] * per, "count"),
        "distributions.logpdf_s": (self_s["distributions.family_logpdf"] * per, "s"),
        "models.evals": (c["models.evals"] * per, "count"),
        "models.evaluate_s": (self_s["models.evaluate"] * per, "s"),
        "models.large_batch_frac": (ratio(c["models.large_batch_rows"], c["models.evals"]), "ratio"),
        "mc.draw_inputs_s": (self_s["mc.draw_inputs"] * per, "s"),
        "mlmc.rounds": (c["mlmc.rounds"] * per, "count"),
        "mlmc.top_ups": (c["mlmc.top_ups"] * per, "count"),
        "mlmc.levels": (c["mlmc.levels"] * per, "count"),
        "mlmc.coupled_sample_s": (self_s["mlmc.coupled_sample"] * per, "s"),
        "mfmc.pilot_s": (incl["mfmc.pilot_statistics"] * per, "s"),
        "mfmc.main_s": ((incl["mfmc.mfmc_estimate"] - incl["mfmc.pilot_statistics"]) * per, "s"),
        "mfmc.max_n": (c["mfmc.max_n"], "count"),
        "inference.evidence_s": (incl["inference.model_evidence"] * per, "s"),
        "mcmc.steps": (c["mcmc.steps"] * per, "count"),
        "mcmc.busy_s": (mcmc_s, "s"),
        "mcmc.steps_per_s": (ratio(c["mcmc.steps"] * per, mcmc_s), "1/s"),
        "mcmc.accept_frac": (ratio(c["mcmc.accepted"], c["mcmc.proposed"]), "ratio"),
        "mixture.components": (c["mixture.components"] * per, "count"),
        "mixture.logpdf_pairs": (c["mixture.logpdf_pairs"] * per, "count"),
        "mixture.logpdf_s": (incl["mixture.MixtureDensity.logpdf"] * per, "s"),
        "mixture.sample_s": (incl["mixture.MixtureDensity.sample"] * per, "s"),
        "propagate.draw_s": (incl["propagate.draw_propagation_samples"] * per, "s"),
        "reweight.s": (reweight_s, "s"),
        "reweight.pairs_per_s": (ratio(c["reweight.pairs"] * per, reweight_s), "1/s"),
        "reweight.min_ess_frac": (c.get("reweight.min_ess_frac", 0.0), "ratio"),
        "cli.validate_s": (incl["cli.validate_config"] * per, "s"),
        "cli.write_s": (self_s["cli.run_config"] * per, "s"),
        "cli.report_bytes": (c["cli.report_bytes"] * per, "bytes"),
    }
    for mid in MODEL_IDS:
        m[f"models.s_per_unit.{mid}"] = (ratio(tracer.model_s[mid], tracer.model_units[mid]), "s/unit")
    for layer in LAYERS:
        if layer != "rng":  # rng calls no other layer: its self time is rng.busy_s
            m[f"{layer}.self_s"] = (layer_self[layer] * per, "s")
    m["trace.spans"] = (len(tracer.start) * per, "count")
    return m
