"""Self-tests of the benchmark: every workload at a tiny size through the
same script, run.py, plus the output checks against deliberately wrong values.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))
import workloads  # noqa: E402


def _run(workload: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
           "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_emitted_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], float | int)
    detail = json.loads(
        (ROOT / ".perfbench_out" / f"result-{workload}-seed3-trace{trace}.json").read_text()
    )
    assert detail["machine"]["seed"] == 3 and detail["machine"]["nproc"] >= 1
    assert detail["fingerprints_identical"] is True
    if trace:
        assert (ROOT / detail["spans_file"]).is_file()


def test_all_workloads_in_one_command():
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", "all", "--seed", "3",
           "--seconds", "0.2", "--trace", "0", "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == {
        f"{w}.{m['name']}" for w in workloads.WORKLOADS for m in SPEC["end_to_end"]
    }


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("mlmc_gbm", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- the checks themselves ---------------------------------------------------


def _run_one(cfg: dict, tmp_path: Path, keep: dict):
    import uqmc.cli as cli

    original = cli.run_multimodel

    def keep_run(*args, **kwargs):
        keep["run"] = original(*args, **kwargs)
        return keep["run"]

    cli.run_multimodel = keep_run
    try:
        valid = cli.validate_config(json.dumps(cfg))
        report, code = cli.run_config(valid, tmp_path)
    finally:
        cli.run_multimodel = original
    assert code == 0
    return valid, report


@pytest.mark.parametrize("workload,right", [("mlmc_gbm", workloads.GBM_TRUTH),
                                            ("mfmc_poly", workloads.POLY_TRUTH)])
def test_wrong_expected_mean_fails_the_check(workload, right, tmp_path):
    cfg = workloads.WORKLOADS[workload](3, True)[0]
    valid, report = _run_one(cfg, tmp_path, {})
    assert workloads.check_report(valid, report)[0] == []
    assert workloads.check_report(valid, report, truth=right)[0] == []
    errors, _ = workloads.check_report(valid, report, truth=right + 1.0)
    assert errors


def test_wrong_closed_form_fails_the_mmmc_check(tmp_path):
    cfg = workloads.WORKLOADS["mmmc_bayes"](3, True)[0]
    keep = {}
    valid, report = _run_one(cfg, tmp_path, keep)
    reference = workloads.candidate_reference(keep["run"])
    assert reference["index"], "the tiny run should have checkable candidates"
    assert workloads.check_report(valid, report, reference)[0] == []
    errors, _ = workloads.check_report(valid, report, reference, t=0.33)
    assert errors


def test_evaluation_count_is_checked(tmp_path):
    cfg = workloads.WORKLOADS["mmmc_bayes"](3, True)[0]
    keep = {}
    valid, report = _run_one(cfg, tmp_path, keep)
    reference = workloads.candidate_reference(keep["run"])
    report["diagnostics"]["ledger"]["counts"][workloads.SMALLDATA_MODEL] += 1
    errors, _ = workloads.check_report(valid, report, reference)
    assert any("model evaluations" in e for e in errors)


def test_unsampled_share_matches_direct_integration():
    from scipy.integrate import quad
    from scipy.stats import gamma, norm

    t = workloads.SMALLDATA_T
    lo, hi = 0.2, 9.0
    for fam, a, b, pdf in (
        ("normal", 1.2, 0.8, lambda x: norm.pdf(x, 1.2, 0.8)),
        ("gamma", 2.5, 1.1, lambda x: gamma.pdf(x, 2.5, scale=1.1)),
    ):
        full = workloads.closed_form(fam, a, b, t)
        inside = quad(lambda x: pdf(x) * math.exp(t * x), lo, hi)[0]
        assert workloads.unsampled_share(fam, a, b, lo, hi, t) == pytest.approx(
            1.0 - inside / full, rel=1e-6, abs=1e-12
        )
