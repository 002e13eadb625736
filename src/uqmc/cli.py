"""Batch front end: validate a JSON run configuration, dispatch to an
estimator, and write a deterministic report plus method-specific CSVs.

Exit codes: 0 success, 2 configuration error, 3 estimator-level failure,
4 numeric failure.  Timing lives in a sidecar file so report.json is
byte-identical across reruns of the same configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
import difflib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .distributions import Dataset, Family
from .exceptions import (
    BudgetError,
    ConfigError,
    EstimatorError,
    EvaluationError,
    FitConvergenceError,
    InvalidParameterError,
    QuadratureError,
    UqmcError,
)
from .mc import ControlVariateConfig, _mc_run, cv_estimate, draw_inputs
from .mfmc import mfmc_estimate
from .mlmc import mlmc_estimate, two_level_estimate
from .mmmc import RHAT_LIMIT, McmcOptions, run_multimodel
from .models import CostLedger, builtin_problem
from .reports import _plain
from .rng import SEED_LIMIT, RngStream

_PROBLEM_NAMES = ("quadratic", "gbm_euler", "poly_fidelity", "smalldata_demo")

# key -> (type, required, default); bool keys also accept JSON true/false only.
_COMMON_KEYS = {
    "method": (str, True, None),
    "problem": ((str, dict), True, None),
    "seed": (int, False, 0),
    "output_dir": (str, False, "uqmc_out"),
}
_METHOD_KEYS = {
    "mc": {
        "n": (int, True, None),
        "dump_samples": (bool, False, False),
    },
    "cv": {
        "n": (int, True, None),
        "control_index": (int, False, 0),
        "coef": ((int, float, str), False, "auto"),
        "pilot_n": (int, False, 100),
    },
    "two_level": {
        "budget": ((int, float), True, None),
        "coarse_level": (int, False, 0),
        "fine_level": (int, False, 1),
        "pilot_n": (int, False, 50),
    },
    "mlmc": {
        "eps": ((int, float), True, None),
        "max_level": (int, False, None),
        "initial_samples": (int, False, 100),
        "max_cost": ((int, float), False, None),
        "fixed_level": (int, False, None),
    },
    "mfmc": {
        "budget": ((int, float), True, None),
        "pilot": (int, False, 50),
    },
    "mmmc": {
        "data": (str, False, None),
        "families": (list, False, ["normal", "lognormal", "gamma", "weibull"]),
        "inference": (str, False, "aic"),
        "ensemble_size": (int, False, 100),
        "samples": (int, False, 5000),
        "mixture_mode": (str, False, "weighted"),
        "max_components": (int, False, 500),
        "n_ev": (int, False, 10000),
        "mcmc": (dict, False, None),
        "dump_estimates": (bool, False, False),
    },
}
_MCMC_KEYS = {f.name for f in dataclasses.fields(McmcOptions)}


def _fail(path: str, message: str) -> ConfigError:
    return ConfigError(f"{path}: {message}")


def _type_name(expected) -> str:
    if expected is bool:
        return "boolean"
    if isinstance(expected, type):
        return expected.__name__
    return "/".join(t.__name__ for t in expected)


def _check_type(path: str, value, expected):
    if expected is bool:
        if not isinstance(value, bool):
            raise _fail(path, f"expected boolean, got {type(value).__name__}")
        return
    if expected is int and isinstance(value, bool):
        raise _fail(path, "expected integer, got boolean")
    if not isinstance(value, expected):
        raise _fail(path, f"expected {_type_name(expected)}, got {type(value).__name__}")
    if isinstance(expected, tuple) and float in expected and isinstance(value, int):
        try:
            float(value)
        except OverflowError:
            raise _fail(path, "integer too large for a float") from None


def _finite_number(token: str) -> float:
    """A JSON float literal or NaN/+-Infinity token; a ConfigError unless finite."""
    value = float(token)
    if not math.isfinite(value):
        raise ConfigError(f"config number {token} is not finite")
    return value


def validate_config(text: str) -> dict:
    """Parse and validate configuration text into a fully defaulted dict.

    Unknown keys are rejected with a nearest-key suggestion; missing
    required keys and type mismatches name the offending field; NaN,
    +-Infinity, float literals that overflow, integers too large for a
    float where a number is expected, seeds outside [0, 2**53), an empty
    mmmc family list and mmmc ``max_components`` below 1 are rejected.
    A JSON ``null`` is accepted only for an optional key whose default is
    None (``max_level``, ``max_cost``, ``fixed_level``, ``data``, ``mcmc``).
    """
    try:
        raw = json.loads(text, parse_constant=_finite_number, parse_float=_finite_number)
    except ValueError as exc:  # JSONDecodeError, or an integer past int's digit limit
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")

    method = raw.get("method")
    if method not in _METHOD_KEYS:
        raise _fail("method", f"must be one of {sorted(_METHOD_KEYS)}, got {method!r}")

    valid = dict(_COMMON_KEYS) | _METHOD_KEYS[method]
    for key in raw:
        if key not in valid:
            hint = difflib.get_close_matches(key, valid, n=1)
            suffix = f"; did you mean '{hint[0]}'?" if hint else ""
            raise _fail(key, f"unknown key{suffix}")

    cfg = {}
    for key, (typ, required, default) in valid.items():
        if key in raw:
            if raw[key] is not None:
                _check_type(key, raw[key], typ)
            elif required or default is not None:  # null only stands for a None default
                raise _fail(key, f"expected {_type_name(typ)}, got null")
            cfg[key] = raw[key]
        elif required:
            raise _fail(key, f"required for method '{method}'")
        else:
            cfg[key] = default

    problem = cfg["problem"]
    if isinstance(problem, str):
        problem = {"name": problem, "params": {}}
    else:
        unknown = set(problem) - {"name", "params"}
        if unknown:
            raise _fail("problem", f"unknown keys {sorted(unknown)}")
        problem = {"name": problem.get("name"), "params": problem.get("params") or {}}
        if not isinstance(problem["params"], dict):
            raise _fail("problem.params", "expected object")
    if problem["name"] not in _PROBLEM_NAMES:
        raise _fail("problem.name", f"must be one of {_PROBLEM_NAMES}")
    cfg["problem"] = problem
    if not 0 <= cfg["seed"] < SEED_LIMIT:
        raise _fail("seed", f"must be an integer in [0, 2**53), got {cfg['seed']}")

    if method == "mmmc":
        if not cfg["families"]:
            raise _fail("families", "must name at least one family")
        for fam in cfg["families"]:
            try:
                Family(fam)
            except ValueError:
                raise _fail("families", f"unknown family '{fam}'") from None
        if cfg["inference"] not in ("aic", "bayes"):
            raise _fail("inference", "must be 'aic' or 'bayes'")
        if cfg["mixture_mode"] not in ("equal", "weighted"):
            raise _fail("mixture_mode", "must be 'equal' or 'weighted'")
        if cfg["max_components"] < 1:
            raise _fail("max_components", "must be an integer >= 1")
        if cfg["mcmc"] is not None:
            unknown = set(cfg["mcmc"]) - _MCMC_KEYS
            if unknown:
                raise _fail("mcmc", f"unknown keys {sorted(unknown)}")
            for key, value in cfg["mcmc"].items():
                _check_type(f"mcmc.{key}", value, int)
    if method == "cv" and not (
        cfg["coef"] == "auto" or isinstance(cfg["coef"], (int, float))
    ):
        raise _fail("coef", "must be a number or 'auto'")
    return cfg


def _finite_or_null(values):
    """A dict or list of floats for the report, with NaN and +-inf (not
    JSON) as null: MCMC diagnostics of chains too short to judge or stuck
    apart, and mmmc estimates, ESS and quantiles whose weights overflowed."""
    if isinstance(values, dict):
        return {k: v if math.isfinite(v) else None for k, v in values.items()}
    return [v if math.isfinite(v) else None for v in values]


def _bundle_for(cfg: dict):
    return builtin_problem(cfg["problem"]["name"], cfg["problem"]["params"])


def _require(bundle, kind: str, method: str):
    obj = getattr(bundle, kind)
    if obj is None:
        raise ConfigError(
            f"problem '{bundle.name}' provides no {kind}; method '{method}' needs one"
        )
    return obj


def _run_estimator(cfg: dict):
    """Dispatch to the estimator; returns (result_dict, extras, flags,
    ledger), the ledger holding the run's counts, work and seconds."""
    method = cfg["method"]
    rng = RngStream(cfg["seed"])
    ledger = CostLedger()
    bundle = _bundle_for(cfg)
    extras: dict = {}
    flags: list[str] = []

    if method == "mc":
        model = _require(bundle, "model", method)
        report, y = _mc_run(model, bundle.input, cfg["n"], rng, ledger)
        result = report.to_dict()
        if cfg["dump_samples"]:
            x = draw_inputs(bundle.input, rng.split(0), cfg["n"], model.input_dim)
            extras["samples.csv"] = "\n".join(
                ["index,input,output,weight"]
                + [f"{i},{float(x[i, 0])!r},{float(y[i])!r},1.0" for i in range(cfg["n"])]
            )
    elif method == "cv":
        ens = _require(bundle, "ensemble", method)
        idx = cfg["control_index"]
        if not 0 <= idx < len(ens.lows):
            raise ConfigError(f"control_index: out of range for {len(ens.lows)} surrogates")
        control_mean = bundle.truth["low_means"][idx]
        cv_cfg = ControlVariateConfig(
            control=ens.lows[idx],
            control_mean=control_mean,
            coef=cfg["coef"],
            pilot_n=cfg["pilot_n"],
        )
        report = cv_estimate(ens.high, bundle.input, cv_cfg, cfg["n"], rng, ledger)
        result = report.to_dict()
    elif method == "two_level":
        h = _require(bundle, "hierarchy", method)
        lo, hi = cfg["coarse_level"], cfg["fine_level"]
        if not 0 <= lo < hi <= h.max_level:
            raise ConfigError("two_level: need 0 <= coarse_level < fine_level <= max level")
        if hi != lo + 1 and h.levels[lo].input_dim != h.levels[hi].input_dim:
            raise ConfigError("two_level: non-adjacent levels need equal input dims")
        report = two_level_estimate(
            h.levels[lo], h.levels[hi], h.input, cfg["budget"], rng, ledger,
            pilot_n=cfg["pilot_n"], coarsen=h.coarsen,
        )
        result = report.to_dict()
    elif method == "mlmc":
        h = _require(bundle, "hierarchy", method)
        res = mlmc_estimate(
            h, cfg["eps"], rng,
            initial_samples=cfg["initial_samples"],
            max_level=cfg["max_level"],
            max_cost=cfg["max_cost"],
            fixed_level=cfg["fixed_level"],
            ledger=ledger,
        )
        result = res.report.to_dict()
        extras["plan"] = {
            "se_target": res.plan.se_target,
            "n_per_level": list(res.plan.n_per_level),
            "xi": res.plan.xi,
            "predicted_cost": res.plan.predicted_cost,
        }
        extras["levels.csv"] = "\n".join(
            ["level,mean,variance,cost,n"]
            + [f"{s.level},{s.mean!r},{s.variance!r},{s.cost!r},{s.n}" for s in res.levels]
        )
    elif method == "mfmc":
        ens = _require(bundle, "ensemble", method)
        report, plan = mfmc_estimate(
            ens, bundle.input, cfg["budget"], rng, n_pilot=cfg["pilot"], ledger=ledger
        )
        result = report.to_dict()
        extras["plan"] = {
            "beta": list(plan.beta),
            "t": list(plan.t),
            "n": list(plan.n),
            "chi": plan.chi,
            "budget": plan.budget,
            "flags": list(plan.flags),
        }
    else:  # mmmc
        model = _require(bundle, "model", method)
        if cfg["data"] is not None:
            try:
                data = Dataset.from_csv(cfg["data"])
            except OSError as exc:
                raise ConfigError(f"data: cannot read {cfg['data']}: {exc.strerror}") from exc
        elif bundle.dataset is not None:
            data = bundle.dataset
        else:
            raise ConfigError("mmmc: no 'data' path given and the problem bundles none")
        mcmc = McmcOptions(**cfg["mcmc"]) if cfg["mcmc"] else McmcOptions()
        run = run_multimodel(
            model, data, [Family(f) for f in cfg["families"]],
            inference=cfg["inference"],
            ensemble_size=cfg["ensemble_size"],
            n=cfg["samples"],
            mixture_mode=cfg["mixture_mode"],
            max_components_per_family=cfg["max_components"],
            n_ev=cfg["n_ev"],
            mcmc=mcmc,
            rng=rng,
            ledger=ledger,
        )
        result = run.report.to_dict()
        extras["distinct_candidates"] = len(set(run.candidates.entries))
        extras["model_probabilities"] = {
            f.value: p for f, p in run.probabilities.as_dict().items()
        }
        extras["posterior_summaries"] = {
            fam.value: {
                "mean": np.mean(post.samples, axis=0).tolist(),
                "acceptance_rate": post.acceptance_rate,
                "rhat": _finite_or_null(post.diagnostics["rhat"]),
                "ess_bulk": _finite_or_null(post.diagnostics["ess_bulk"]),
            }
            for fam, post in run.posteriors.items()
        }
        flags = [
            f"mcmc_rhat_high:{fam.value}"
            for fam, post in run.posteriors.items()
            if any(v > RHAT_LIMIT for v in post.diagnostics["rhat"].values())
        ]
        # np.quantile gives NaN between two infinite order statistics.
        values = [*result["estimates"], *result["ess"], *result["quantiles"].values()]
        if not all(math.isfinite(v) for v in values):
            flags.append("nonfinite_estimates")
            for key in ("estimates", "ess", "quantiles"):
                result[key] = _finite_or_null(result[key])
            result["diagnostics"] = _finite_or_null(result["diagnostics"])
        extras["mixture"] = run.mixture.to_json()
        if cfg["dump_estimates"]:
            est = run.report.estimates
            ess = run.report.ess
            extras["estimates.csv"] = "\n".join(
                ["index,estimate,ess"]
                + [f"{j},{float(est[j])!r},{float(ess[j])!r}" for j in range(est.size)]
            )

    result_values = [v for v in result.values() if isinstance(v, float)]
    if any(not np.isfinite(v) for v in result_values):
        raise EvaluationError("report contains non-finite values")
    flags = [*result["diagnostics"].get("flags", []), *flags]
    return result, extras, flags, ledger


def run_config(cfg: dict, out_dir: Path) -> tuple[dict, int]:
    """Execute a validated config, write outputs, return (report, exit code)."""
    started = time.perf_counter()
    result, extras, flags, ledger = _run_estimator(cfg)
    wall = time.perf_counter() - started

    report = {
        "version": __version__,
        "method": cfg["method"],
        "config": cfg,
        "result": result,
        "plan": extras.get("plan"),
        "diagnostics": {
            "ledger": ledger.as_dict(),
            "flags": flags,
            **{
                k: extras[k]
                for k in ("model_probabilities", "posterior_summaries", "mixture")
                if k in extras
            },
        },
    }
    report = _plain(report)

    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    write_started = time.perf_counter()
    try:
        path = out_dir / "report.json"
        path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        written.append(path)
        for name in ("levels.csv", "samples.csv", "estimates.csv"):
            if name in extras:
                p = out_dir / name
                p.write_text(extras[name] + "\n")
                written.append(p)
        # Measured seconds go to run_meta.json only, so report.json stays
        # byte-identical across reruns.
        meta = {
            "wall_time_s": wall,
            "model_s": dict(ledger.wall_time),
            "s_per_unit": {k: v / ledger.work[k] for k, v in ledger.wall_time.items()},
        }
        if ledger.phase_s:
            meta["phase_s"] = ledger.phase_s | {"write": time.perf_counter() - write_started}
        if "distinct_candidates" in extras:
            meta["distinct_candidates"] = extras["distinct_candidates"]
        (out_dir / "run_meta.json").write_text(json.dumps(meta) + "\n")
    except Exception:
        for p in written:
            p.unlink(missing_ok=True)
        raise
    return report, (3 if "bias_target_unmet" in flags else 0)


def _summary_line(report: dict) -> str:
    r = report["result"]
    if "estimate" in r:
        lo, hi = r["ci_95"]
        line = (
            f"{report['method']}: estimate={r['estimate']:.6g} "
            f"ci95=[{lo:.6g}, {hi:.6g}] cost={r['total_cost']:.6g}"
        )
    else:
        q = {k: "nan" if v is None else f"{v:.6g}" for k, v in r["quantiles"].items()}
        line = (
            f"{report['method']}: median={q['50%']} "
            f"band90=[{q['5%']}, {q['95%']}] cost={r['total_cost']:.6g}"
        )
    flags = report["diagnostics"]["flags"]
    return f"{line} flags={','.join(flags)}" if flags else line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="uqmc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a run configuration")
    p_run.add_argument("config", type=Path)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", type=Path, default=None)
    p_val = sub.add_parser("validate", help="validate a run configuration")
    p_val.add_argument("config", type=Path)
    args = parser.parse_args(argv)

    try:
        cfg = validate_config(args.config.read_text())
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        print(json.dumps(cfg, indent=2, sort_keys=True))
        return 0

    if args.seed is not None:
        cfg["seed"] = args.seed
    out_dir = args.out if args.out is not None else Path(cfg["output_dir"])
    if out_dir.exists() and not out_dir.is_dir():
        print(f"error: output path {out_dir} exists and is not a directory", file=sys.stderr)
        return 2

    try:
        report, code = run_config(cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except EvaluationError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except (BudgetError, EstimatorError, FitConvergenceError, QuadratureError) as exc:
        print(f"estimator failure: {exc}", file=sys.stderr)
        return 3
    except (InvalidParameterError, UqmcError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    print(_summary_line(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
