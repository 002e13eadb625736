import ast
import dataclasses
import hashlib
import json
import math
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from uqmc import cli
from uqmc.cli import main, run_config, validate_config
from uqmc.exceptions import ConfigError
from uqmc.mmmc import propagate
from uqmc.models import _BUILTINS, ProblemBundle
from uqmc.reports import _plain

ROOT = Path(__file__).parent.parent
SCHEMA = json.loads((ROOT / "src/uqmc/schemas/report.schema.json").read_text())


def write_cfg(tmp_path, obj, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return p


class TestValidate:
    def test_minimal_mc_defaults(self):
        cfg = validate_config('{"method": "mc", "problem": "quadratic", "n": 1000}')
        assert cfg["seed"] == 0
        assert cfg["problem"] == {"name": "quadratic", "params": {}}

    def test_missing_required_field_named(self):
        with pytest.raises(ConfigError, match="budget"):
            validate_config('{"method": "mfmc", "problem": "poly_fidelity"}')

    def test_unknown_key_suggests_nearest(self):
        with pytest.raises(ConfigError, match="did you mean 'budget'"):
            validate_config(
                '{"method": "mfmc", "problem": "poly_fidelity", "buget": 10}'
            )
        with pytest.raises(ConfigError, match="workers: unknown key"):
            validate_config('{"method": "mc", "problem": "quadratic", "n": 10, "workers": 1}')

    def test_bad_json_rejected(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            validate_config("{nope")

    def test_type_mismatch_named(self):
        with pytest.raises(ConfigError, match="n: expected int"):
            validate_config('{"method": "mc", "problem": "quadratic", "n": "many"}')

    def test_unknown_problem(self):
        with pytest.raises(ConfigError, match="problem.name"):
            validate_config('{"method": "mc", "problem": "cubic", "n": 10}')

    def test_validate_subcommand_exit_codes(self, tmp_path, capsys):
        good = write_cfg(tmp_path, {"method": "mc", "problem": "quadratic", "n": 100})
        assert main(["validate", str(good)]) == 0
        bad = write_cfg(tmp_path, {"method": "mc", "problem": "quadratic"}, "bad.json")
        assert main(["validate", str(bad)]) == 2


def _check_model_seconds(meta, report):
    """run_meta.json has measured seconds and seconds per declared work
    unit for every model the ledger charged; report.json has neither."""
    work = report["diagnostics"]["ledger"]["work"]
    assert set(report["diagnostics"]["ledger"]) == {"counts", "work", "total"}
    assert set(meta["model_s"]) == set(meta["s_per_unit"]) == set(work)
    for model, seconds in meta["model_s"].items():
        assert isinstance(seconds, float) and seconds > 0.0
        assert meta["s_per_unit"][model] == pytest.approx(seconds / work[model], rel=1e-12)


def run_cli(tmp_path, cfg, out="out", extra=()):
    p = write_cfg(tmp_path, cfg, f"{abs(hash(str(cfg))) % 99999}.json")
    code = main(["run", str(p), "--out", str(tmp_path / out), *extra])
    report_path = tmp_path / out / "report.json"
    report = json.loads(report_path.read_text()) if report_path.exists() else None
    return code, report


class TestRun:
    def test_mc_run_schema_and_summary(self, tmp_path, capsys):
        code, report = run_cli(
            tmp_path, {"method": "mc", "problem": "quadratic", "n": 2000, "seed": 7}
        )
        assert code == 0
        jsonschema.validate(report, SCHEMA)
        line = capsys.readouterr().out.strip()
        assert "estimate=" in line and "cost=" in line

    def test_rerun_byte_identical(self, tmp_path):
        cfg = {"method": "mc", "problem": "quadratic", "n": 5000, "seed": 3}
        run_cli(tmp_path, cfg, out="a")
        run_cli(tmp_path, cfg, out="b")
        assert (tmp_path / "a/report.json").read_bytes() == (
            tmp_path / "b/report.json"
        ).read_bytes()

    def test_mlmc_levels_csv_rows(self, tmp_path):
        code, report = run_cli(
            tmp_path, {"method": "mlmc", "problem": "gbm_euler", "eps": 0.02, "seed": 2}
        )
        assert code == 0
        jsonschema.validate(report, SCHEMA)
        lines = (tmp_path / "out/levels.csv").read_text().strip().splitlines()
        assert lines[0] == "level,mean,variance,cost,n"
        assert len(lines) - 1 == report["result"]["diagnostics"]["levels_used"]

    @pytest.mark.parametrize("extra", [{}, {"fixed_level": 3}], ids=["adaptive", "fixed_level"])
    def test_mlmc_rounds_in_run_meta(self, tmp_path, extra):
        # One record per round; the last holds the counts of levels.csv.
        cfg = {"method": "mlmc", "problem": "gbm_euler", "eps": 0.02, "seed": 2, **extra}
        code, report = run_cli(tmp_path, cfg)
        assert code == 0
        d = report["result"]["diagnostics"]
        rounds = json.loads((tmp_path / "out/run_meta.json").read_text())["mlmc_rounds"]
        rows = [r.split(",") for r in (tmp_path / "out/levels.csv").read_text().split()[1:]]
        assert len(rounds) == d["rounds"] >= 2
        assert rounds[-1]["n"] == [int(row[4]) for row in rows]
        for before, after in zip(rounds, rounds[1:]):
            assert after["n"][: len(before["n"])] >= before["n"]
        # The last round draws nothing: it allocates by the reported
        # variances, floored for levels >= 2 in an adaptive run.
        reported = [float(row[2]) for row in rows]
        assert rounds[-1]["variance"][:2] == reported[:2]
        assert all(v >= r for v, r in zip(rounds[-1]["variance"], reported))
        assert all(len(r["variance"]) == len(r["n"]) for r in rounds)
        rems = [r["rem"] for r in rounds if r["rem"] is not None]
        if extra:
            assert rounds[-1]["variance"] == reported and rems == []
        else:
            # One bias test per level added, and the passing one.
            assert rems[-1] == d["bias_estimate"] and len(rems) == d["levels_used"] - 2
        assert "mlmc_rounds" not in json.dumps(report)

    @pytest.mark.parametrize(
        "extra, divisor",
        [({}, math.sqrt(2.0)), ({"fixed_level": 2}, 1.0)],
        ids=["adaptive", "fixed_level"],
    )
    def test_mlmc_plan_se_target(self, tmp_path, extra, divisor):
        # The adaptive run spends half of eps^2 on variance, so its
        # allocation targets a standard error of eps/sqrt(2).
        cfg = {"method": "mlmc", "problem": "gbm_euler", "eps": 0.05, "seed": 2, **extra}
        code, report = run_cli(tmp_path, cfg)
        assert code == 0
        assert "eps" not in report["plan"]
        assert report["plan"]["se_target"] == 0.05 / divisor

    def test_mlmc_zero_variance_plan_is_what_was_drawn(self, tmp_path):
        problem = {"name": "gbm_euler", "params": {"sigma": 0}}
        code, report = run_cli(tmp_path, {"method": "mlmc", "problem": problem, "eps": 0.01})
        assert code == 0
        assert "all_level_variances_zero" in report["diagnostics"]["flags"]
        rows = (tmp_path / "out/levels.csv").read_text().strip().splitlines()[1:]
        drawn = [int(row.split(",")[-1]) for row in rows]
        assert report["plan"]["n_per_level"] == drawn == [100, 100, 100]
        assert report["plan"]["predicted_cost"] == report["result"]["total_cost"] == 1000

    def test_mlmc_bias_unmet_exit_3_with_report(self, tmp_path):
        code, report = run_cli(
            tmp_path,
            {
                "method": "mlmc",
                "problem": {"name": "gbm_euler", "params": {"max_level": 2}},
                "eps": 0.0005,
                "seed": 2,
            },
        )
        assert code == 3
        assert "bias_target_unmet" in report["diagnostics"]["flags"]

    def test_cv_run(self, tmp_path):
        code, report = run_cli(
            tmp_path,
            {
                "method": "cv",
                "problem": "poly_fidelity",
                "n": 2000,
                "control_index": 1,
                "seed": 4,
            },
        )
        assert code == 0
        jsonschema.validate(report, SCHEMA)

    def test_two_level_run(self, tmp_path):
        code, report = run_cli(
            tmp_path,
            {"method": "two_level", "problem": "gbm_euler", "budget": 2000, "seed": 5},
        )
        assert code == 0
        jsonschema.validate(report, SCHEMA)

    def test_two_level_non_adjacent_levels_rejected(self, tmp_path, capsys):
        # gbm_euler levels 0 and 2 differ in input dim and the hierarchy's
        # coarsen map only links adjacent levels.
        code, report = run_cli(
            tmp_path,
            {"method": "two_level", "problem": "gbm_euler", "budget": 2000,
             "coarse_level": 0, "fine_level": 2},
        )
        assert code == 2
        assert report is None
        assert "non-adjacent levels need equal input dims" in capsys.readouterr().err

    def test_mlmc_initial_samples_one_rejected(self, tmp_path, capsys):
        code, report = run_cli(
            tmp_path,
            {"method": "mlmc", "problem": "gbm_euler", "eps": 0.01, "initial_samples": 1},
        )
        assert code == 2
        assert report is None
        assert "initial_samples >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mcmc, message",
        [
            ({"burn_in": "abc"}, "mcmc.burn_in: expected int, got str"),
            ({"burn_in": 1.5}, "mcmc.burn_in: expected int, got float"),
            ({"burn_in": True}, "mcmc.burn_in: expected integer, got boolean"),
            ({"keep": None}, "mcmc.keep: expected int, got NoneType"),
            ({"adapt_window": 50}, "mcmc: unknown keys ['adapt_window']"),
        ],
        ids=["str", "float", "bool", "null", "removed_option"],
    )
    def test_mmmc_mcmc_subkeys_checked(self, tmp_path, capsys, mcmc, message):
        code, report = run_cli(
            tmp_path, {"method": "mmmc", "problem": "smalldata_demo", "mcmc": mcmc}
        )
        assert code == 2
        assert report is None
        assert message in capsys.readouterr().err

    def test_mfmc_run_with_plan(self, tmp_path):
        code, report = run_cli(
            tmp_path,
            {"method": "mfmc", "problem": "poly_fidelity", "budget": 3000, "seed": 6},
        )
        assert code == 0
        jsonschema.validate(report, SCHEMA)
        assert set(report["plan"]) >= {"beta", "t", "n", "chi"}

    def test_mmmc_run_quantiles_monotone(self, tmp_path):
        code, report = run_cli(
            tmp_path,
            {
                "method": "mmmc",
                "problem": "smalldata_demo",
                "samples": 1500,
                "ensemble_size": 30,
                "mcmc": {"burn_in": 800, "keep": 200, "thin": 2},
                "seed": 7,
                "dump_estimates": True,
            },
        )
        assert code == 0
        jsonschema.validate(report, SCHEMA)
        q = report["result"]["quantiles"]
        vals = [q[k] for k in ("5%", "25%", "50%", "75%", "95%")]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        est_lines = (tmp_path / "out/estimates.csv").read_text().strip().splitlines()
        assert len(est_lines) - 1 == 30

    def test_mmmc_run_meta_phase_seconds(self, tmp_path, monkeypatch):
        weigh = propagate._weigh_distinct
        passes = []

        def counted(samples, candidates, index, *args):
            passes.extend(index)
            return weigh(samples, candidates, index, *args)

        monkeypatch.setattr(propagate, "_weigh_distinct", counted)
        cfg = {
            "method": "mmmc",
            "problem": "smalldata_demo",
            "samples": 500,
            "ensemble_size": 10,
            "mcmc": {"burn_in": 200, "keep": 50, "thin": 2},
            "seed": 3,
        }
        code, report = run_cli(tmp_path, cfg)
        assert code == 0
        meta = json.loads((tmp_path / "out/run_meta.json").read_text())
        phases = meta["phase_s"]
        assert set(phases) == {
            "inference", "mcmc", "candidates_mixture", "draw", "reweight", "write"
        }
        assert all(isinstance(v, float) and v >= 0.0 for v in phases.values())
        assert meta["wall_time_s"] >= 0.0
        # Each distinct candidate weighed once, and the sidecar says how many.
        assert meta["distinct_candidates"] == len(passes) == len(set(passes))
        assert 1 <= len(passes) <= 10
        assert "distinct_candidates" not in json.dumps(report)
        _check_model_seconds(meta, report)

    def test_mmmc_nonfinite_estimates_null_and_flagged(self, tmp_path, monkeypatch, capsys):
        # Overflowing weights give infinite estimates, NaN ESS, and NaN
        # quantiles between two infinite order statistics: none is JSON.
        real = cli.run_multimodel

        def overflowing(*args, **kwargs):
            run = real(*args, **kwargs)
            rep = run.report
            rep.estimates[[3, 7]] = np.inf
            rep.ess[7] = np.nan
            with np.errstate(invalid="ignore"):
                qs = np.quantile(rep.estimates, [0.05, 0.25, 0.5, 0.75, 0.95])
            rep.quantiles = dict(zip(rep.quantiles, qs.tolist()))
            rep.diagnostics["min_ess"] = float(np.min(rep.ess))
            return run

        monkeypatch.setattr(cli, "run_multimodel", overflowing)
        cfg = {
            "method": "mmmc",
            "problem": "smalldata_demo",
            "samples": 500,
            "ensemble_size": 10,
            "mcmc": {"burn_in": 200, "keep": 50, "thin": 2},
            "seed": 3,
        }
        code, _ = run_cli(tmp_path, cfg)
        assert code == 0

        def reject(token):
            raise ValueError(f"{token} in report.json")

        report = json.loads((tmp_path / "out/report.json").read_text(), parse_constant=reject)
        jsonschema.validate(report, SCHEMA)
        result = report["result"]
        assert "nonfinite_estimates" in report["diagnostics"]["flags"]
        assert [j for j, v in enumerate(result["estimates"]) if v is None] == [3, 7]
        assert [j for j, v in enumerate(result["ess"]) if v is None] == [7]
        assert result["quantiles"]["95%"] is None  # NaN: inf - inf
        assert result["quantiles"]["5%"] is not None
        assert result["diagnostics"]["min_ess"] is None
        assert "median=" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "cfg",
        [
            {"method": "mc", "problem": "quadratic", "n": 2000, "seed": 7},
            {"method": "mlmc", "problem": "gbm_euler", "eps": 0.05, "seed": 2},
        ],
        ids=["mc", "mlmc"],
    )
    def test_run_meta_model_seconds(self, tmp_path, cfg):
        code, report = run_cli(tmp_path, cfg)
        assert code == 0
        meta = json.loads((tmp_path / "out/run_meta.json").read_text())
        assert ("phase_s" in meta) == (cfg["method"] == "mlmc")  # mc has no phases
        _check_model_seconds(meta, report)

    @pytest.mark.parametrize(
        "cfg, phases",
        [
            ({"method": "mlmc", "problem": "gbm_euler", "eps": 0.05}, {"pilot", "rounds"}),
            ({"method": "mfmc", "problem": "poly_fidelity", "budget": 5000}, {"pilot", "main"}),
        ],
        ids=["mlmc", "mfmc"],
    )
    def test_run_meta_phase_seconds(self, tmp_path, cfg, phases):
        code, report = run_cli(tmp_path, {**cfg, "seed": 2})
        assert code == 0
        meta = json.loads((tmp_path / "out/run_meta.json").read_text())
        assert set(meta["phase_s"]) == phases | {"write"}
        assert all(isinstance(v, float) and v >= 0.0 for v in meta["phase_s"].values())
        # wall_time_s is the estimator's time; the write comes after it.
        assert sum(meta["phase_s"][k] for k in phases) <= meta["wall_time_s"]
        assert "distinct_candidates" not in meta
        assert "phase_s" not in json.dumps(report)

    @pytest.mark.parametrize("keep", [50, 4])
    def test_mmmc_rhat_in_report_and_flags(self, tmp_path, keep):
        cfg = {
            "method": "mmmc",
            "problem": "smalldata_demo",
            "samples": 500,
            "ensemble_size": 10,
            "mcmc": {"burn_in": 200, "keep": keep, "thin": 2},
            "seed": 3,
        }
        code, _ = run_cli(tmp_path, cfg)
        assert code == 0

        def reject(token):
            raise ValueError(f"{token} in report.json")

        text = (tmp_path / "out/report.json").read_text()
        report = json.loads(text, parse_constant=reject)
        jsonschema.validate(report, SCHEMA)
        summaries = report["diagnostics"]["posterior_summaries"]
        high = set()
        for fam, summary in summaries.items():
            names = set(summary["rhat"])
            assert names == set(summary["ess_bulk"]) and len(names) == 2
            rhat = [v for v in summary["rhat"].values() if v is not None]
            if keep == 4:  # one draw per chain: nothing to judge
                assert rhat == [] and set(summary["ess_bulk"].values()) == {None}
            elif max(rhat) > 1.01:
                high.add(f"mcmc_rhat_high:{fam}")
        assert set(report["diagnostics"]["flags"]) == high
        if keep == 50:
            assert high  # 13 draws per chain do not mix

    def test_mmmc_bayes_evidence_in_report_and_flags(self, tmp_path):
        cfg = {
            "method": "mmmc",
            "problem": "smalldata_demo",
            "inference": "bayes",
            "families": ["normal", "uniform"],
            "samples": 500,
            "ensemble_size": 10,
            "n_ev": 2000,
            "mcmc": {"keep": 50},
            "seed": 3,
        }
        code, report = run_cli(tmp_path, cfg)
        assert code == 0
        jsonschema.validate(report, SCHEMA)
        summaries = report["diagnostics"]["posterior_summaries"]
        assert set(summaries) == {"normal", "uniform"}
        for summary in summaries.values():
            assert set(summary) == {"mean", "ess", "log_evidence", "evidence_se"}
        # The uniform family's MLE sits on the edge of its support, so its
        # draws come from the prior alone.
        assert summaries["normal"]["evidence_se"] < 0.1 < summaries["uniform"]["evidence_se"]
        assert report["diagnostics"]["flags"] == ["evidence_se_high:uniform"]
        meta = json.loads((tmp_path / "out/run_meta.json").read_text())
        assert set(meta["phase_s"]) == {
            "inference", "candidates_mixture", "draw", "reweight", "write"
        }
        # burn_in and thin are validated but not read.
        code, other = run_cli(
            tmp_path, cfg | {"mcmc": {"keep": 50, "burn_in": 1, "thin": 7}}, out="other"
        )
        assert code == 0
        assert {k: v for k, v in other.items() if k != "config"} == {
            k: v for k, v in report.items() if k != "config"
        }

    def test_mmmc_external_csv_data(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("# demo data\n1.2\n2.1\n0.8\n1.7\n2.6\n1.1\n0.9\n1.4\n2.0\n1.6\n")
        code, report = run_cli(
            tmp_path,
            {
                "method": "mmmc",
                "problem": "smalldata_demo",
                "data": str(data),
                "families": ["normal", "gamma"],
                "samples": 1000,
                "ensemble_size": 20,
                "mcmc": {"burn_in": 500, "keep": 100, "thin": 2},
                "seed": 8,
            },
        )
        assert code == 0
        jsonschema.validate(report, SCHEMA)

    def test_mc_dump_samples(self, tmp_path):
        code, _ = run_cli(
            tmp_path,
            {"method": "mc", "problem": "quadratic", "n": 50, "dump_samples": True, "seed": 9},
        )
        assert code == 0
        lines = (tmp_path / "out/samples.csv").read_text().strip().splitlines()
        assert lines[0] == "index,input,output,weight"
        assert len(lines) - 1 == 50
        idx, x, y, w = lines[1].split(",")
        assert float(y) == pytest.approx(float(x) ** 2)

    def test_mc_dump_samples_evaluates_model_once(self, tmp_path, monkeypatch):
        rows = []
        real = cli.builtin_problem

        def counting(name, params):
            bundle = real(name, params)
            fn = bundle.model.fn

            def fn_counted(x):
                rows.append(x.shape[0])
                return fn(x)

            model = dataclasses.replace(bundle.model, fn=fn_counted)
            return dataclasses.replace(bundle, model=model)

        monkeypatch.setattr(cli, "builtin_problem", counting)
        code, _ = run_cli(
            tmp_path,
            {"method": "mc", "problem": "quadratic", "n": 50, "dump_samples": True, "seed": 9},
        )
        assert code == 0
        assert sum(rows) == 50

        def digest(name):
            return hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()

        # The bytes of the run that evaluated the model a second time for the dump.
        assert digest("report.json") == (
            "1c2aad58c029ba3c3c2fc515761c49c812009f9fad367b55db1e7d7d73f6cab7"
        )
        assert digest("samples.csv") == (
            "7195923e78db98b144ab19e8e72b2af572e0b4efd9b0cd81d516a8f685ad852c"
        )

    @pytest.mark.parametrize(
        "cfg, flag",
        [
            ({"method": "two_level", "budget": 1000}, "zero_correction_variance"),
            ({"method": "mlmc", "eps": 0.01}, "all_level_variances_zero"),
        ],
        ids=["two_level", "mlmc"],
    )
    def test_estimator_flags_reach_report(self, tmp_path, cfg, flag):
        # Zero volatility makes every level deterministic.
        problem = {"name": "gbm_euler", "params": {"sigma": 0}}
        code, report = run_cli(tmp_path, {**cfg, "problem": problem})
        assert code == 0
        assert flag in report["result"]["diagnostics"]["flags"]
        assert report["diagnostics"]["flags"] == report["result"]["diagnostics"]["flags"]

    def test_summary_line_lists_flags(self, tmp_path, capsys):
        demo = Path(__file__).parent.parent / "demos/configs/mmmc_smalldata.json"
        assert main(["run", str(demo), "--out", str(tmp_path / "mmmc")]) == 0
        report = json.loads((tmp_path / "mmmc/report.json").read_text())
        flags = report["diagnostics"]["flags"]  # today mcmc_rhat_high on every family
        line = capsys.readouterr().out.strip()
        assert line.split(" flags=")[1:] == ([",".join(flags)] if flags else [])
        run_cli(tmp_path, {"method": "mc", "problem": "quadratic", "n": 100, "seed": 1})
        assert "flags=" not in capsys.readouterr().out

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = {"method": "mc", "problem": "quadratic", "n": 1000, "seed": 1}
        run_cli(tmp_path, cfg, out="s1")
        run_cli(tmp_path, cfg, out="s2", extra=("--seed", "2"))
        r1 = json.loads((tmp_path / "s1/report.json").read_text())
        r2 = json.loads((tmp_path / "s2/report.json").read_text())
        assert r1["result"]["estimate"] != r2["result"]["estimate"]
        assert r2["result"]["seed"] == 2

    def test_config_error_exit_2(self, tmp_path):
        p = write_cfg(tmp_path, {"method": "mc", "problem": "quadratic"})
        assert main(["run", str(p)]) == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"method": "two_level", "problem": "gbm_euler", "budget": Infinity}',
             "config number Infinity is not finite"),
            ('{"method": "mfmc", "problem": "poly_fidelity", "budget": NaN}',
             "config number NaN is not finite"),
            ('{"method": "mfmc", "problem": "poly_fidelity", "budget": Infinity}',
             "config number Infinity is not finite"),
            ('{"method": "mlmc", "problem": "gbm_euler", "eps": NaN}',
             "config number NaN is not finite"),
            ('{"method": "mc", "problem": {"name": "quadratic", "params": [1]}, "n": 10}',
             "problem.params: expected object"),
            ('{"method": "mc", "problem": {"name": "quadratic", "params": "abc"}, "n": 10}',
             "problem.params: expected object"),
            ('{"method": "mlmc", "eps": 0.1,'
             ' "problem": {"name": "gbm_euler", "params": {"sigma": "high"}}}',
             "gbm_euler params: could not convert"),
            ('{"method": "mfmc", "budget": 1000,'
             ' "problem": {"name": "poly_fidelity", "params": {"cost_lo": 5}}}',
             "poly_fidelity params: 'int' object is not iterable"),
            ('{"method": "mlmc", "eps": 0.1,'
             ' "problem": {"name": "gbm_euler", "params": {"max_level": 1e400}}}',
             "config number 1e400 is not finite"),
            ('{"method": "mmmc", "problem": "smalldata_demo",'
             ' "families": ["normal", "normal", "gamma"]}',
             "families must be distinct"),
        ],
        ids=[
            "two_level_budget_inf", "mfmc_budget_nan", "mfmc_budget_inf", "mlmc_eps_nan",
            "params_list", "params_string", "sigma_string", "cost_lo_scalar",
            "max_level_overflow", "mmmc_duplicate_family",
        ],
    )
    def test_bad_config_values_exit_2(self, tmp_path, capsys, text, message):
        p = tmp_path / "cfg.json"
        p.write_text(text)
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_budget_error_exit_3(self, tmp_path):
        code, _ = run_cli(
            tmp_path,
            {"method": "mfmc", "problem": "poly_fidelity", "budget": 10, "seed": 1},
        )
        assert code == 3

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_numeric_failure_exit_4(self, tmp_path):
        # An absurd volatility overflows the Euler recursion to non-finite
        # outputs, which must surface as a numeric failure.
        code, report = run_cli(
            tmp_path,
            {
                "method": "two_level",
                "problem": {"name": "gbm_euler", "params": {"sigma": 1e200}},
                "budget": 2000,
                "seed": 1,
            },
        )
        assert code == 4
        assert report is None

    def test_wall_time_in_sidecar_not_report(self, tmp_path):
        code, report = run_cli(
            tmp_path, {"method": "mc", "problem": "quadratic", "n": 500, "seed": 1}
        )
        assert "wall_time_s" not in json.dumps(report)
        meta = json.loads((tmp_path / "out/run_meta.json").read_text())
        assert meta["wall_time_s"] >= 0.0


DEMO_CONFIGS = sorted((Path(__file__).parent.parent / "demos/configs").glob("*.json"))

# sha256 of each demo's output files at its own seed.  A change that moves
# these bytes updates the pin and says which bytes changed and why.
DEMO_DIGESTS = {
    "cv_poly": {
        "report.json": "17f803659dbebf2230b20fe25ac6131c04018f24570f1955b9b80634d18d3e53",
    },
    "mc_quadratic": {
        "report.json": "71f43781e2d5f4c8c2cdc17db6634bba559d61ba096598260c17e9fabafba887",
    },
    "mfmc_poly": {
        "report.json": "e6691ca8ac1a626cd905c119a5761559fdede4baf470f7661181253f42034153",
    },
    "mlmc_gbm": {
        "report.json": "a7f52db1a6dcf96ed42803308b3ebb841aa7ec944fdf805ae223f449697c9f88",
        "levels.csv": "032c75b978fc995a79cacf3b0bdd17a0ed718964ec49e86301e3883aef57ec20",
    },
    "mmmc_bayes": {
        "report.json": "b00e6e7ca71b5480c60b835eb103981ddfc05d5d2338045d6ea6f0d2ddb5b19d",
        "estimates.csv": "36df915eb81345c8425c39373cc1b78afaf29a7ca3d90a9c6c093892a1a87969",
    },
    "mmmc_smalldata": {
        "report.json": "41a072a60d27d971663fd01bf9d214fb84c9d59780978704a538a012d35cdc7e",
        "estimates.csv": "115974b1e0b02fec412e19b53ba3ade878582425c1e526dd3f0965dbad5d7395",
    },
    "two_level_gbm": {
        "report.json": "90d81947f23c219c7d8c5e2ee1b53c26649797b58b6c2fc34360811d0d5269ba",
    },
}


def _reject_constant(token):
    raise ValueError(f"{token} in report.json")


# Every flag a report can carry, by name, or by prefix for those ending in ":".
FLAGS = (
    "bias_untested",
    "bias_target_unmet",
    "round_limit_reached",
    "all_level_variances_zero",
    "zero_correction_variance",
    "perfect_surrogate",
    "dropped:",
    "all_surrogates_dropped",
    "mcmc_rhat_high:",
    "evidence_se_high:",
    "nonfinite_estimates",
)


def _listed(flag: str) -> bool:
    return any(flag == f or (f.endswith(":") and flag.startswith(f)) for f in FLAGS)


@pytest.mark.parametrize("path", DEMO_CONFIGS, ids=lambda p: p.stem)
def test_demo_config_runs(path, tmp_path):
    cfg = validate_config(path.read_text())
    _, code = run_config(cfg, tmp_path)
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text(), parse_constant=_reject_constant)
    jsonschema.validate(report, SCHEMA)
    assert [f for f in report["diagnostics"]["flags"] if not _listed(f)] == []
    written = {p.name for p in tmp_path.iterdir()} & {"levels.csv", "estimates.csv"}
    assert written | {"report.json"} == set(DEMO_DIGESTS[path.stem])
    for name, digest in DEMO_DIGESTS[path.stem].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


@pytest.mark.parametrize("seed", [-1, 2**53, 2**63])
def test_seed_outside_range_exit_2(tmp_path, capsys, seed):
    # Negative seeds and seeds >= 2**53 collide with other seeds' streams.
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"method": "mc", "problem": "quadratic", "n": 100, "seed": seed}))
    assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"config error: seed: must be an integer in [0, 2**53), got {seed}" in err
    p.write_text(json.dumps({"method": "mc", "problem": "quadratic", "n": 100}))
    assert main(["run", str(p), "--out", str(tmp_path / "out"), "--seed", str(seed)]) == 2
    assert f"config error: seed must be in [0, 2**53), got {seed}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_largest_seed_runs(tmp_path):
    code, report = run_cli(
        tmp_path, {"method": "mc", "problem": "quadratic", "n": 100, "seed": 2**53 - 1}
    )
    assert code == 0
    assert report["result"]["seed"] == 2**53 - 1


@pytest.mark.parametrize(
    "text",
    [
        '{"method": "two_level", "problem": "gbm_euler", "budget": 1%s}' % ("0" * 400),
        '{"method": "mlmc", "problem": "gbm_euler", "eps": 0.1, "max_cost": -1%s}' % ("0" * 400),
        '{"method": "cv", "problem": "poly_fidelity", "n": 100, "coef": 1%s}' % ("0" * 400),
    ],
    ids=["two_level_budget", "mlmc_max_cost", "cv_coef"],
)
def test_integer_too_large_for_float_exit_2(tmp_path, capsys, text):
    p = tmp_path / "cfg.json"
    p.write_text(text)
    assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 2
    assert "integer too large for a float" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_integer_past_digit_limit_exit_2(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text('{"method": "mfmc", "problem": "poly_fidelity", "budget": 1%s}' % ("0" * 5000))
    assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 2
    assert "config error: config is not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize(
    "data, message",
    [
        (None, "config error: data: cannot read {path}: No such file or directory"),
        ("1.2\n# a note\n2.1\nabc\n0.8\n", "config error: {path} line 4: 'abc' is not a number"),
    ],
    ids=["missing_file", "not_a_number"],
)
def test_mmmc_unreadable_data_exit_2(tmp_path, capsys, data, message):
    path = tmp_path / "data.csv"
    if data is not None:
        path.write_text(data)
    cfg = write_cfg(tmp_path, {"method": "mmmc", "problem": "smalldata_demo", "data": str(path)})
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert message.format(path=path) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("families", [], "families: must name at least one family"),
        ("max_components", 0, "max_components: must be an integer >= 1"),
    ],
    ids=["no_families", "zero_components"],
)
def test_mmmc_empty_choices_rejected_by_validate(tmp_path, capsys, key, value, message):
    cfg = write_cfg(tmp_path, {"method": "mmmc", "problem": "smalldata_demo", key: value})
    for argv in (["validate", str(cfg)], ["run", str(cfg), "--out", str(tmp_path / "out")]):
        assert main(argv) == 2
        assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_out_naming_a_file_exit_2(tmp_path, capsys):
    out = tmp_path / "out"
    out.write_text("kept\n")
    code, _ = run_cli(tmp_path, {"method": "mc", "problem": "quadratic", "n": 10})
    assert code == 2
    assert f"error: output path {out} exists and is not a directory" in capsys.readouterr().err
    assert out.read_text() == "kept\n"


MMMC = {"method": "mmmc", "problem": "smalldata_demo"}
MLMC = {"method": "mlmc", "problem": "gbm_euler", "eps": 0.01}
CV = {"method": "cv", "problem": "poly_fidelity", "n": 10}
TWO_LEVEL = {"method": "two_level", "problem": "gbm_euler", "budget": 1000}


@pytest.mark.parametrize(
    "cfg, message",
    [
        ({"method": "mc", "problem": "quadratic", "n": None}, "n: expected int, got null"),
        (MMMC | {"samples": None}, "samples: expected int, got null"),
        (
            {"method": "mfmc", "problem": "poly_fidelity", "budget": 100.0, "pilot": None},
            "pilot: expected int, got null",
        ),
        (
            {"method": "mc", "problem": "quadratic", "n": 10, "seed": None},
            "seed: expected int, got null",
        ),
        (MMMC | {"max_components": None}, "max_components: expected int, got null"),
        (MMMC | {"families": None}, "families: expected list, got null"),
        (
            {"method": "mc", "problem": "quadratic", "n": 10, "output_dir": None},
            "output_dir: expected str, got null",
        ),
    ],
    ids=["mc_n", "mmmc_samples", "mfmc_pilot", "seed", "max_components", "families", "output_dir"],
)
def test_null_where_the_default_is_not_none_exit_2(tmp_path, capsys, cfg, message):
    path = write_cfg(tmp_path, cfg)
    for argv in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "out")]):
        assert main(argv) == 2
        assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_null_runs_where_the_default_is_none(tmp_path):
    cfg = {"method": "mlmc", "problem": "gbm_euler", "eps": 0.1, "seed": 3}
    code, report = run_cli(tmp_path, cfg | {"max_cost": None}, out="null")
    assert code == 0
    assert run_cli(tmp_path, cfg, out="default") == (0, report)


def test_flag_list_in_readme_and_source():
    readme = (ROOT / "README.md").read_text()
    # String constants under src/uqmc/, the literal parts of f-strings included.
    literals = {
        node.value
        for path in (ROOT / "src/uqmc").rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    for flag in FLAGS:
        # A prefix is written `dropped:<id>` and built as f"dropped:{...}".
        assert (f"`{flag}<" if flag.endswith(":") else f"`{flag}`") in readme, flag
        assert flag in literals, flag


def test_method_table_matches_schema_demos_and_bundle():
    methods = set(cli.METHODS)
    assert methods == set(SCHEMA["properties"]["method"]["enum"])
    assert methods == {json.loads(p.read_text())["method"] for p in DEMO_CONFIGS}
    fields = {f.name for f in dataclasses.fields(ProblemBundle)}
    bad = {name: m.needs for name, m in cli.METHODS.items() if not {*m.needs} <= fields}
    assert bad == {} and all(m.needs for m in cli.METHODS.values())


def test_problem_names_are_the_builtins():
    # Validation builds the bundle, so each name is validated with a method
    # whose every ``needs`` field its bundle provides.
    minimal = {
        "mc": {"n": 10},
        "mlmc": {"eps": 0.1},
        "mfmc": {"budget": 100},
        "mmmc": {},
    }
    for name, build in _BUILTINS.items():
        bundle = build({})
        method = next(
            m for m in minimal
            if all(getattr(bundle, f) is not None for f in cli.METHODS[m].needs)
        )
        cfg = validate_config(json.dumps(minimal[method] | {"method": method, "problem": name}))
        assert cfg["problem"]["name"] == name
    with pytest.raises(ConfigError) as err:
        validate_config('{"method": "mc", "problem": "cubic", "n": 10}')
    assert str(err.value) == f"problem.name: must be one of {tuple(_BUILTINS)}"


@pytest.mark.parametrize(
    "cfg, message",
    [
        (MMMC | {"inference": "bic"}, "inference: must be 'aic' or 'bayes'"),
        (MMMC | {"mixture_mode": "mean"}, "mixture_mode: must be 'equal' or 'weighted'"),
        (MMMC | {"families": ["normal", "cauchy"]}, "families: unknown family 'cauchy'"),
        (MMMC | {"max_components": -3}, "max_components: must be an integer >= 1"),
        (MMMC | {"mcmc": {"burnin": 10}}, "mcmc: unknown keys ['burnin']"),
        (MMMC | {"mcmc": {"keep": 1.5}}, "mcmc.keep: expected int, got float"),
        (
            {"method": "cv", "problem": "poly_fidelity", "n": 10, "coef": "best"},
            "coef: must be a number or 'auto'",
        ),
        (MMMC | {"families": ["gamma", "normal", "gamma"]}, "families must be distinct"),
        (MMMC | {"mcmc": {"burn_in": 0}}, "mcmc: MCMC options must be positive"),
        (MMMC | {"ensemble_size": 0}, "ensemble_size: must be an integer >= 1"),
        ({"method": ["mc"], "problem": "quadratic", "n": 10}, "method: must be one of"),
        ({"method": {"a": 1}, "problem": "quadratic", "n": 10}, "method: must be one of"),
        (
            {"method": "mc", "problem": {"name": ["quadratic"]}, "n": 10},
            f"problem.name: must be one of {tuple(_BUILTINS)}",
        ),
        # Value bounds the estimators state, checked before anything runs.
        ({"method": "mc", "problem": "quadratic", "n": 1}, "n: must be an integer >= 2"),
        (CV | {"pilot_n": 1}, "pilot_n: must be an integer >= 2 when coef is 'auto'"),
        (TWO_LEVEL | {"pilot_n": 1}, "pilot_n: must be an integer >= 2"),
        (MLMC | {"initial_samples": 1}, "initial_samples: must be an integer >= 2"),
        (MLMC | {"eps": -1}, "eps: must be positive"),
        (MLMC | {"eps": 0}, "eps: must be positive"),
        (MLMC | {"max_level": -1}, "max_level: must be an integer >= 0"),
        (
            {"method": "mfmc", "problem": "poly_fidelity", "budget": 100, "pilot": 3},
            "pilot: must be an integer >= 10",
        ),
        (MMMC | {"samples": 1}, "samples: must be an integer >= 2"),
        (
            MMMC | {"inference": "bayes", "n_ev": 0},
            "n_ev: must be an integer >= 1000 under inference 'bayes'",
        ),
        # Checks against the problem bundle, which validation builds.
        (
            MLMC | {"problem": "quadratic"},
            "problem 'quadratic' provides no hierarchy; method 'mlmc' needs one",
        ),
        (
            {"method": "mc", "problem": "smalldata_demo", "n": 10},
            "problem 'smalldata_demo' provides no input; method 'mc' needs one",
        ),
        (
            MLMC | {"problem": {"name": "gbm_euler", "params": {"sigma": "high"}}},
            "gbm_euler params: could not convert string to float: 'high'",
        ),
        (
            MLMC | {"problem": {"name": "gbm_euler", "params": {"max_level": -1}}},
            "gbm_euler needs s0>0, sigma>=0, T>0, max_level>=0",
        ),
        (
            MLMC | {"problem": {"name": "gbm_euler", "params": {"levels": 3}}},
            "unknown gbm_euler params: ['levels']",
        ),
        (CV | {"control_index": 5}, "control_index: out of range for 2 surrogates"),
        (CV | {"control_index": -1}, "control_index: out of range for 2 surrogates"),
        (
            TWO_LEVEL | {"fine_level": 20},
            "two_level: need 0 <= coarse_level < fine_level <= max level",
        ),
        (
            TWO_LEVEL | {"coarse_level": -1},
            "two_level: need 0 <= coarse_level < fine_level <= max level",
        ),
        (
            TWO_LEVEL | {"coarse_level": 0, "fine_level": 2},
            "two_level: non-adjacent levels need equal input dims",
        ),
        (MLMC | {"fixed_level": 99}, "fixed_level: must be in 0..8"),
        (MLMC | {"max_level": 3, "fixed_level": 4}, "fixed_level: must be in 0..3"),
        (
            MMMC | {"problem": "quadratic"},
            "mmmc: no 'data' path given and the problem bundles none",
        ),
        (
            MMMC | {"data": "no_such_dir/data.csv"},
            "data: cannot read no_such_dir/data.csv: No such file or directory",
        ),
    ],
    ids=[
        "inference", "mixture_mode", "families", "max_components", "mcmc_key", "mcmc_type", "coef",
        "families_repeat", "mcmc_value", "ensemble_size", "method_list", "method_object",
        "problem_name_list",
        "mc_n", "cv_auto_pilot_n", "two_level_pilot_n", "mlmc_initial_samples", "mlmc_eps_negative",
        "mlmc_eps_zero", "mlmc_max_level", "mfmc_pilot", "mmmc_samples", "mmmc_bayes_n_ev",
        "mlmc_no_hierarchy", "mc_no_input", "params_type", "params_value", "params_unknown",
        "cv_control_high", "cv_control_negative", "two_level_fine", "two_level_coarse", "two_level_dims",
        "mlmc_fixed_level", "mlmc_fixed_above_max_level", "mmmc_no_data", "mmmc_data_missing",
    ],
)
def test_method_value_checks_exit_2(tmp_path, capsys, cfg, message):
    path = write_cfg(tmp_path, cfg)
    for argv in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "out")]):
        assert main(argv) == 2
        assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_reports_are_built_only_in_reports_py():
    # Every estimator reports through EstimateReport.from_ledger, so its
    # provenance is the run's ledger.
    calls = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sorted((ROOT / "src/uqmc").rglob("*.py"))
        if path.name != "reports.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and "EstimateReport" in (getattr(node.func, "id", ""), getattr(node.func, "attr", ""))
    ]
    assert calls == []


def test_plain_writes_nonfinite_as_null():
    inf, nan = math.inf, math.nan
    obj = {
        "floats": (nan, inf, -inf, 1.5),
        "numpy": (np.float64(nan), np.float64(inf), np.float64(-inf), np.float64(2.5)),
        "nested": {"a": {"b": [np.array([1.0, np.inf]), (np.int64(3), -0.0)]}},
        "other": ["x", None, True, 7],
    }
    out = _plain(obj)
    assert out == {
        "floats": [None, None, None, 1.5],
        "numpy": [None, None, None, 2.5],
        "nested": {"a": {"b": [[1.0, None], [3, -0.0]]}},
        "other": ["x", None, True, 7],
    }
    assert type(out["numpy"][3]) is float and type(out["nested"]["a"]["b"][1][0]) is int
    assert math.copysign(1.0, out["nested"]["a"]["b"][1][1]) == -1.0
    assert json.loads(json.dumps(out, allow_nan=False)) == out
