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
import functools
import json
import math
import sys
import time
from collections.abc import Callable
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
from .mmmc import EVIDENCE_SE_LIMIT, RHAT_LIMIT, McmcOptions, run_multimodel
from .models import _BUILTINS, CostLedger, ProblemBundle, builtin_problem
from .reports import _plain, report_json
from .rng import SEED_LIMIT, RngStream

# key -> (type, required, default[, minimum]); bool keys also accept JSON
# true/false only, and an integer key's optional minimum is inclusive.
_COMMON_KEYS = {
    "method": (str, True, None),
    "problem": ((str, dict), True, None),
    "seed": (int, False, 0),
    "output_dir": (str, False, "uqmc_out"),
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


@dataclasses.dataclass
class _Outputs:
    """What a method's runner hands ``run_config`` to write."""

    result: dict
    plan: dict | None = None
    flags: list[str] = dataclasses.field(default_factory=list)  # beyond the estimator's own
    diagnostics: dict = dataclasses.field(default_factory=dict)  # extra report diagnostics
    files: dict[str, list[str]] = dataclasses.field(default_factory=dict)  # CSV name -> rows
    meta: dict = dataclasses.field(default_factory=dict)  # extra run_meta.json keys


@dataclasses.dataclass(frozen=True)
class _Method:
    keys: dict  # key -> (type, required, default[, minimum]), as in _COMMON_KEYS
    needs: tuple[str, ...]  # the ProblemBundle attributes the runner reads
    run: Callable[[dict, ProblemBundle, RngStream, CostLedger], _Outputs]
    check: Callable[[dict, ProblemBundle], None]  # checks beyond key types and minimums


# Every method the CLI runs, one entry per @_method runner below.  A new
# method is one such runner, a value in the report schema's ``method`` enum
# and a config under demos/configs/.
METHODS: dict[str, _Method] = {}


def _method(name: str, needs: tuple[str, ...], check=lambda cfg, bundle: None, **keys):
    def register(run):
        METHODS[name] = _Method(keys, needs, run, check)
        return run

    return register


def _plan_dict(plan, omit: str) -> dict:
    return {k: v for k, v in dataclasses.asdict(plan).items() if k != omit}


@_method("mc", ("model", "input"), n=(int, True, None, 2), dump_samples=(bool, False, False))
def _run_mc(cfg, bundle, rng, ledger) -> _Outputs:
    y = np.empty(cfg["n"]) if cfg["dump_samples"] else None
    report = _mc_run(bundle.model, bundle.input, cfg["n"], rng, ledger, y)
    files = {}
    if y is not None:
        x = draw_inputs(bundle.input, rng.split(0), cfg["n"], bundle.model.input_dim)
        files["samples.csv"] = ["index,input,output,weight"] + [
            f"{i},{float(x[i, 0])!r},{float(y[i])!r},1.0" for i in range(cfg["n"])
        ]
    return _Outputs(report.to_dict(), files=files)


def _check_cv(cfg: dict, bundle: ProblemBundle) -> None:
    if not (cfg["coef"] == "auto" or isinstance(cfg["coef"], (int, float))):
        raise _fail("coef", "must be a number or 'auto'")
    if cfg["coef"] == "auto" and cfg["pilot_n"] < 2:
        raise _fail("pilot_n", "must be an integer >= 2 when coef is 'auto'")
    if not 0 <= cfg["control_index"] < len(bundle.ensemble.lows):
        raise _fail("control_index", f"out of range for {len(bundle.ensemble.lows)} surrogates")


@_method(
    "cv", ("ensemble", "input"), _check_cv,
    n=(int, True, None, 2),
    control_index=(int, False, 0),
    coef=((int, float, str), False, "auto"),
    pilot_n=(int, False, 100),
)
def _run_cv(cfg, bundle, rng, ledger) -> _Outputs:
    ens = bundle.ensemble
    idx = cfg["control_index"]
    cv_cfg = ControlVariateConfig(
        control=ens.lows[idx],
        control_mean=bundle.truth["low_means"][idx],
        coef=cfg["coef"],
        pilot_n=cfg["pilot_n"],
    )
    report = cv_estimate(ens.high, bundle.input, cv_cfg, cfg["n"], rng, ledger)
    return _Outputs(report.to_dict())


def _check_two_level(cfg: dict, bundle: ProblemBundle) -> None:
    h = bundle.hierarchy
    lo, hi = cfg["coarse_level"], cfg["fine_level"]
    if not 0 <= lo < hi <= h.max_level:
        raise ConfigError("two_level: need 0 <= coarse_level < fine_level <= max level")
    if hi != lo + 1 and h.levels[lo].input_dim != h.levels[hi].input_dim:
        raise ConfigError("two_level: non-adjacent levels need equal input dims")


@_method(
    "two_level", ("hierarchy",), _check_two_level,
    budget=((int, float), True, None),
    coarse_level=(int, False, 0),
    fine_level=(int, False, 1),
    pilot_n=(int, False, 50, 2),
)
def _run_two_level(cfg, bundle, rng, ledger) -> _Outputs:
    h = bundle.hierarchy
    lo, hi = cfg["coarse_level"], cfg["fine_level"]
    report = two_level_estimate(
        h.levels[lo], h.levels[hi], h.input, cfg["budget"], rng, ledger,
        pilot_n=cfg["pilot_n"], coarsen=h.coarsen,
    )
    return _Outputs(report.to_dict())


def _check_mlmc(cfg: dict, bundle: ProblemBundle) -> None:
    if cfg["eps"] <= 0:
        raise _fail("eps", "must be positive")
    top = bundle.hierarchy.max_level
    top = top if cfg["max_level"] is None else min(cfg["max_level"], top)
    if cfg["fixed_level"] is not None and not 0 <= cfg["fixed_level"] <= top:
        raise _fail("fixed_level", f"must be in 0..{top}")


@_method(
    "mlmc", ("hierarchy",), _check_mlmc,
    eps=((int, float), True, None),
    max_level=(int, False, None, 0),
    initial_samples=(int, False, 100, 2),
    max_cost=((int, float), False, None),
    fixed_level=(int, False, None),
)
def _run_mlmc(cfg, bundle, rng, ledger) -> _Outputs:
    res = mlmc_estimate(
        bundle.hierarchy, cfg["eps"], rng,
        initial_samples=cfg["initial_samples"],
        max_level=cfg["max_level"],
        max_cost=cfg["max_cost"],
        fixed_level=cfg["fixed_level"],
        ledger=ledger,
    )
    levels = ["level,mean,variance,cost,n"] + [
        f"{s.level},{s.mean!r},{s.variance!r},{s.cost!r},{s.n}" for s in res.levels
    ]
    return _Outputs(
        res.report.to_dict(), plan=_plan_dict(res.plan, "flags"), files={"levels.csv": levels},
        meta={"mlmc_rounds": [dataclasses.asdict(r) for r in res.rounds]},
    )


@_method("mfmc", ("ensemble", "input"), budget=((int, float), True, None), pilot=(int, False, 50, 10))
def _run_mfmc(cfg, bundle, rng, ledger) -> _Outputs:
    report, plan = mfmc_estimate(
        bundle.ensemble, bundle.input, cfg["budget"], rng, n_pilot=cfg["pilot"], ledger=ledger
    )
    return _Outputs(report.to_dict(), plan=_plan_dict(plan, "n_real"))


def _dataset(cfg: dict, bundle: ProblemBundle) -> Dataset:
    """The mmmc data: the ``data`` file if one is named, else the problem's."""
    if cfg["data"] is None:
        if bundle.dataset is None:
            raise ConfigError("mmmc: no 'data' path given and the problem bundles none")
        return bundle.dataset
    try:
        return Dataset.from_csv(cfg["data"])
    except OSError as exc:
        raise ConfigError(f"data: cannot read {cfg['data']}: {exc.strerror}") from exc


def _check_mmmc(cfg: dict, bundle: ProblemBundle) -> None:
    if not cfg["families"]:
        raise _fail("families", "must name at least one family")
    for fam in cfg["families"]:
        try:
            Family(fam)
        except ValueError:
            raise _fail("families", f"unknown family '{fam}'") from None
    if len(set(cfg["families"])) != len(cfg["families"]):  # all Family values: hashable
        raise ConfigError("families must be distinct")  # run_multimodel's words
    if cfg["inference"] not in ("aic", "bayes"):
        raise _fail("inference", "must be 'aic' or 'bayes'")
    if cfg["mixture_mode"] not in ("equal", "weighted"):
        raise _fail("mixture_mode", "must be 'equal' or 'weighted'")
    if cfg["inference"] == "bayes" and cfg["n_ev"] < 1000:
        raise _fail("n_ev", "must be an integer >= 1000 under inference 'bayes'")
    if cfg["mcmc"] is not None:
        unknown = set(cfg["mcmc"]) - _MCMC_KEYS
        if unknown:
            raise _fail("mcmc", f"unknown keys {sorted(unknown)}")
        for key, value in cfg["mcmc"].items():
            _check_type(f"mcmc.{key}", value, int)
        try:
            McmcOptions(**cfg["mcmc"])
        except InvalidParameterError as exc:
            raise _fail("mcmc", str(exc)) from None
    _dataset(cfg, bundle)


@_method(
    "mmmc", ("model",), _check_mmmc,
    data=(str, False, None),
    families=(list, False, ["normal", "lognormal", "gamma", "weibull"]),
    inference=(str, False, "aic"),
    ensemble_size=(int, False, 100, 1),
    samples=(int, False, 5000, 2),
    mixture_mode=(str, False, "weighted"),
    max_components=(int, False, 500, 1),
    n_ev=(int, False, 10000),
    mcmc=(dict, False, None),
    dump_estimates=(bool, False, False),
)
def _run_mmmc(cfg, bundle, rng, ledger) -> _Outputs:
    run = run_multimodel(
        bundle.model, _dataset(cfg, bundle), [Family(f) for f in cfg["families"]],
        inference=cfg["inference"],
        ensemble_size=cfg["ensemble_size"],
        n=cfg["samples"],
        mixture_mode=cfg["mixture_mode"],
        max_components_per_family=cfg["max_components"],
        n_ev=cfg["n_ev"],
        mcmc=McmcOptions(**(cfg["mcmc"] or {})),
        rng=rng,
        ledger=ledger,
    )
    result = run.report.to_dict()
    if cfg["inference"] == "aic":  # Metropolis posteriors
        flags = [
            f"mcmc_rhat_high:{fam.value}"
            for fam, post in run.posteriors.items()
            if any(v > RHAT_LIMIT for v in post.diagnostics["rhat"].values())
        ]
        summaries = {
            fam.value: {
                "mean": np.mean(post.samples, axis=0).tolist(),
                "acceptance_rate": post.acceptance_rate,
                "rhat": post.diagnostics["rhat"],
                "ess_bulk": post.diagnostics["ess_bulk"],
            }
            for fam, post in run.posteriors.items()
        }
    else:  # importance posteriors
        flags = [
            f"evidence_se_high:{fam.value}"
            for fam, post in run.posteriors.items()
            if post.diagnostics["evidence_se"] > EVIDENCE_SE_LIMIT
        ]
        summaries = {
            fam.value: {
                "mean": np.mean(post.samples, axis=0).tolist(),
                **{k: post.diagnostics[k] for k in ("ess", "log_evidence", "evidence_se")},
            }
            for fam, post in run.posteriors.items()
        }
    # An overflowed weight gives an infinite estimate, and np.quantile NaN
    # between two infinite order statistics; the report writes each as null.
    values = [*result["estimates"], *result["ess"], *result["quantiles"].values()]
    if not all(math.isfinite(v) for v in values):
        flags.append("nonfinite_estimates")
    files = {}
    if cfg["dump_estimates"]:
        est, ess = run.report.estimates, run.report.ess
        files["estimates.csv"] = ["index,estimate,ess"] + [
            f"{j},{float(est[j])!r},{float(ess[j])!r}" for j in range(est.size)
        ]
    return _Outputs(
        result,
        flags=flags,
        diagnostics={
            "model_probabilities": {f.value: p for f, p in run.probabilities.as_dict().items()},
            "posterior_summaries": summaries,
            "mixture": run.mixture.to_json(),
        },
        files=files,
        meta={
            "distinct_candidates": len(set(run.candidates.entries)),
            "mixture_components": run.mixture.n_components,
        },
    )


def validate_config(text: str) -> dict:
    """Parse and validate configuration text into a fully defaulted dict.

    Unknown keys are rejected with a nearest-key suggestion; missing
    required keys and type mismatches name the offending field; NaN,
    +-Infinity, float literals that overflow, integers too large for a
    float where a number is expected, seeds outside [0, 2**53) and integers
    below their key's minimum are rejected.  A JSON ``null`` is accepted
    only for an optional key whose default is None (``max_level``,
    ``max_cost``, ``fixed_level``, ``data``, ``mcmc``).

    The problem bundle is built here, so unknown or ill-typed
    ``problem.params``, a bundle without what the method ``needs``, and the
    method's own checks against the bundle (level and control indices, the
    mmmc data) fail before ``run_config`` starts anything.
    """
    try:
        raw = json.loads(text, parse_constant=_finite_number, parse_float=_finite_number)
    except ValueError as exc:  # JSONDecodeError, or an integer past int's digit limit
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")

    method = raw.get("method")
    if not isinstance(method, str) or method not in METHODS:
        raise _fail("method", f"must be one of {sorted(METHODS)}, got {method!r}")

    valid = _COMMON_KEYS | METHODS[method].keys
    for key in raw:
        if key not in valid:
            hint = difflib.get_close_matches(key, valid, n=1)
            suffix = f"; did you mean '{hint[0]}'?" if hint else ""
            raise _fail(key, f"unknown key{suffix}")

    cfg = {}
    for key, (typ, required, default, *low) in valid.items():
        if key in raw:
            if raw[key] is not None:
                _check_type(key, raw[key], typ)
                if low and raw[key] < low[0]:
                    bound = f">= {low[0]}"
                    raise _fail(key, f"must be an integer {bound} ({method} needs {key} {bound})")
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
    if not isinstance(problem["name"], str) or problem["name"] not in _BUILTINS:
        raise _fail("problem.name", f"must be one of {tuple(_BUILTINS)}")
    cfg["problem"] = problem
    if not 0 <= cfg["seed"] < SEED_LIMIT:
        raise _fail("seed", f"must be an integer in [0, 2**53), got {cfg['seed']}")

    try:  # unknown or ill-typed params, or a data line that is not a number
        bundle = builtin_problem(problem["name"], problem["params"])
        for need in METHODS[method].needs:
            if getattr(bundle, need) is None:
                raise ConfigError(
                    f"problem '{bundle.name}' provides no {need}; method '{method}' needs one"
                )
        METHODS[method].check(cfg, bundle)
    except InvalidParameterError as exc:
        raise ConfigError(str(exc)) from None
    return cfg


def run_config(cfg: dict, out_dir: Path) -> tuple[dict, int]:
    """Execute a validated config, write outputs, return (report, exit code)."""
    method = METHODS[cfg["method"]]
    started = time.perf_counter()
    rng = RngStream(cfg["seed"])
    ledger = CostLedger()
    bundle = builtin_problem(cfg["problem"]["name"], cfg["problem"]["params"])
    out = method.run(cfg, bundle, rng, ledger)
    if any(isinstance(v, float) and not math.isfinite(v) for v in out.result.values()):
        raise EvaluationError("report contains non-finite values")
    flags = [*out.result["diagnostics"].get("flags", []), *out.flags]
    wall = time.perf_counter() - started

    report = _plain({
        "version": __version__,
        "method": cfg["method"],
        "config": cfg,
        "result": out.result,
        "plan": out.plan,
        "diagnostics": {"ledger": ledger.as_dict(), "flags": flags, **out.diagnostics},
    })

    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    write_started = time.perf_counter()
    try:
        path = out_dir / "report.json"
        path.write_text(report_json(report) + "\n")
        written.append(path)
        for name, rows in out.files.items():
            p = out_dir / name
            p.write_text("\n".join(rows) + "\n")
            written.append(p)
        # Measured seconds go to run_meta.json only, so report.json stays
        # byte-identical across reruns.
        meta = {
            "platform": _platform(),
            "wall_time_s": wall,
            "model_s": dict(ledger.wall_time),
            "s_per_unit": {k: v / ledger.work[k] for k, v in ledger.wall_time.items()},
        }
        if ledger.phase_s:
            meta["phase_s"] = ledger.phase_s | {"write": time.perf_counter() - write_started}
        (out_dir / "run_meta.json").write_text(json.dumps(meta | out.meta) + "\n")
    except Exception:
        for p in written:
            p.unlink(missing_ok=True)
        raise
    return report, (3 if "bias_target_unmet" in flags else 0)


@functools.cache
def _platform() -> dict:
    """What the last bits of a report's floats depend on besides config and
    seed: the numpy version, numpy's enabled CPU dispatch targets and the
    core OpenBLAS picked for this CPU (None where numpy bundles no
    OpenBLAS that names it).  Read once per process, at the first
    ``run_meta.json`` written, so ``import uqmc`` pays nothing for it."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    enabled = umath.__cpu_features__
    return {
        "numpy": np.__version__,
        "cpu_dispatch": [f for f in umath.__cpu_dispatch__ if enabled.get(f)],
        "openblas_core": _openblas_core(),
    }


def _openblas_core() -> str | None:
    import ctypes

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("lib*openblas*")):
        for name in ("scipy_openblas_get_corename64_", "openblas_get_corename64_"):
            try:
                fn = getattr(ctypes.CDLL(str(lib)), name)
            except (OSError, AttributeError):
                continue
            fn.argtypes, fn.restype = [], ctypes.c_char_p
            return fn().decode()
    return None


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
    except EvaluationError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except (BudgetError, EstimatorError, FitConvergenceError, QuadratureError) as exc:
        print(f"estimator failure: {exc}", file=sys.stderr)
        return 3
    except UqmcError as exc:  # ConfigError, InvalidParameterError and the like
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    print(_summary_line(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
