import json
from pathlib import Path

import jsonschema
import pytest

from uqmc.cli import main, run_config, validate_config
from uqmc.exceptions import ConfigError

SCHEMA = json.loads(
    (Path(__file__).parent.parent / "src/uqmc/schemas/report.schema.json").read_text()
)


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

    def test_mmmc_run_meta_phase_seconds(self, tmp_path):
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
        meta = json.loads((tmp_path / "out/run_meta.json").read_text())
        phases = meta["phase_s"]
        assert set(phases) == {"inference_mcmc", "candidates_mixture", "draw", "reweight", "write"}
        assert all(isinstance(v, float) and v >= 0.0 for v in phases.values())
        assert meta["wall_time_s"] >= 0.0

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


@pytest.mark.parametrize("path", DEMO_CONFIGS, ids=lambda p: p.stem)
def test_demo_config_runs(path, tmp_path):
    cfg = validate_config(path.read_text())
    _, code = run_config(cfg, tmp_path)
    assert code == 0
    jsonschema.validate(json.loads((tmp_path / "report.json").read_text()), SCHEMA)
