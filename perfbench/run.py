"""uqmc benchmark runner.

    python3 perfbench/run.py --workload mlmc_gbm --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Runs one workload (or every workload, each in its own process) through
``uqmc.cli.validate_config`` + ``uqmc.cli.run_config``, in this process,
as a closed loop with one client: each run starts when the previous one
has finished.  ``--seed`` goes into every configuration's ``seed``.

A run first measures set-up in fresh processes (untraced runs only),
then warms up with one pass over the workload's ``--tiny``
configurations, then makes timed passes until ``--seconds`` have passed.
With ``--trace 1`` the timed passes alternate untraced and traced, and
the per-layer metrics come from the traced ones.  Every operation's output is checked (see workloads.py).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(machine, per-pass times, report fingerprints, check details) is written
to ``.perfbench_out/`` at the root of the checkout, with the spans of
traced runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402

def load_program():
    """Import uqmc from this checkout's ``src``, or exit with an error."""
    if not (SRC / "uqmc" / "__init__.py").is_file():
        sys.exit(f"perfbench: no uqmc package under {SRC}")
    sys.path.insert(0, str(SRC))
    import uqmc.cli

    if Path(uqmc.__file__).resolve().parent != SRC / "uqmc":
        sys.exit(f"perfbench: imported uqmc from {uqmc.__file__}, not from {SRC}")
    return uqmc.cli


def machine_record(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu
            )
    except OSError:
        pass
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "seed": seed,
    }


def setup_times(texts: list[str], repeats: int) -> list[float]:
    """Seconds to import uqmc, validate the configs and build their
    problem bundles, each in a fresh interpreter."""
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
            input=json.dumps(texts),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def _spent_vs_plan(cfg: dict, report: dict) -> float:
    spent = report["diagnostics"]["ledger"]["total"]
    if cfg["method"] == "mlmc":
        return spent / report["plan"]["predicted_cost"]
    if cfg["method"] == "mfmc":
        return spent / cfg["budget"]
    return spent / cfg["samples"]


class Runner:
    """Executes and checks the operations of one workload."""

    def __init__(self, cli, name: str, seed: int, tiny: bool):
        self.cli = cli
        self.configs = workloads.WORKLOADS[name](seed, tiny)
        self.ops = [(f"op{k}", json.dumps(c)) for k, c in enumerate(self.configs)]
        self.warm_up_ops = [
            (f"warm-up{k}", json.dumps(c))
            for k, c in enumerate(workloads.WORKLOADS[name](seed, True))
        ]
        self.work_dir = OUT / "work" / name
        self.references: dict[str, dict] = {}
        self.fingerprints: dict[str, list[str]] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.checks: list[dict] = []

    @contextmanager
    def _keeping(self, kept: list | None):
        """While active, keep each multimodel run the CLI makes in ``kept``.
        The run is needed to build the reference its estimates are checked
        against; keeping it costs one function call."""
        if kept is None:
            yield
            return
        original = self.cli.run_multimodel

        def keep(*args, **kwargs):
            kept.append(original(*args, **kwargs))
            return kept[-1]

        self.cli.run_multimodel = keep
        try:
            yield
        finally:
            self.cli.run_multimodel = original

    def run_pass(self, ops, tracer: tracing.Tracer | None = None) -> float:
        """One pass over ``ops``; returns the summed run_config time and
        leaves the pass's check records in ``last_pass``.

        The first time an mmmc operation runs, its reference is built
        after run_config returns, outside the timed region."""
        wall = 0.0
        self.last_pass = []
        for label, text in ops:
            self.attempted += 1
            if tracer is not None:
                tracer.run_id = self.attempted
            cfg = self.cli.validate_config(text)
            kept = [] if cfg["method"] == "mmmc" and label not in self.references else None
            out_dir = self.work_dir / label
            try:
                with self._keeping(kept):
                    started = perf_counter()
                    try:
                        report, code = self.cli.run_config(cfg, out_dir)
                    finally:
                        wall += perf_counter() - started
            except Exception:  # any failure of the program counts against it
                self.failures.append(f"{label}: " + traceback.format_exc(limit=3))
                continue
            if kept:
                self.references[label] = workloads.candidate_reference(kept.pop())
            self.last_pass.append(self._check(label, cfg, report, code, out_dir))
        return wall

    def _check(self, label, cfg, report, code, out_dir) -> dict:
        errors, info = workloads.check_report(cfg, report, self.references.get(label))
        if code != 0:
            errors.insert(0, f"exit code {code}")
        digest = hashlib.sha256((out_dir / "report.json").read_bytes()).hexdigest()
        self.fingerprints.setdefault(label, []).append(digest)
        if errors:
            self.failures.append(f"{label}: " + "; ".join(errors))
        return {
            "op": label,
            "work_units": report["diagnostics"]["ledger"]["total"],
            "work_vs_plan": _spent_vs_plan(cfg, report),
            **info,
        }

    def pass_totals(self) -> tuple[float, float]:
        """Work units summed and work-vs-plan maximised over the last pass."""
        return (
            sum(r["work_units"] for r in self.last_pass),
            max((r["work_vs_plan"] for r in self.last_pass), default=float("nan")),
        )


def _median(values):
    return statistics.median(values) if values else float("nan")


def run_workload(args) -> tuple[dict, dict, Path]:
    """One workload in this process: the result line, the full record and
    the path it was written to."""
    cli = load_program()
    runner = Runner(cli, args.workload, args.seed, args.tiny)
    detail = {"workload": args.workload, "machine": machine_record(args.seed), "trace": args.trace}

    setup = []
    if not args.trace:
        setup = setup_times([text for _, text in runner.ops], 1 if args.tiny else SETUP_REPEATS)

    runner.run_pass(runner.warm_up_ops)
    totals, walls, traced_walls = [], [], []
    tracer = tracing.Tracer() if args.trace else None
    deadline = perf_counter() + args.seconds
    while not walls or perf_counter() < deadline:
        walls.append(runner.run_pass(runner.ops))
        totals.append(runner.pass_totals())
        if not runner.checks:
            runner.checks = runner.last_pass
        if tracer is not None:
            uninstall = tracing.install(tracer)
            try:
                traced_walls.append(runner.run_pass(runner.ops, tracer))
            finally:
                uninstall()

    fingerprints = {label: sorted(set(d)) for label, d in runner.fingerprints.items()}
    detail.update(
        configs=runner.configs,
        pass_wall_s=walls,
        traced_pass_wall_s=traced_walls,
        setup_runs_s=setup,
        pass_work_units=[w for w, _ in totals],
        report_sha256=fingerprints,
        fingerprints_identical=all(len(d) == 1 for d in fingerprints.values()),
        checks=runner.checks,
        failures=runner.failures,
    )
    if tracer is not None:
        metrics = tracing.layer_metrics(tracer, len(traced_walls))
        metrics["trace.wall_s"] = (_median(traced_walls), "s")
        metrics["trace.untraced_wall_s"] = (_median(walls), "s")
        metrics["trace.overhead_s"] = (_median(traced_walls) - _median(walls), "s")
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write_spans(spans)
        detail["spans_file"] = str(spans.relative_to(ROOT))
    else:
        metrics = {
            "wall_s": (_median(walls), "s"),
            "setup_s": (_median(setup), "s"),
            "work_units": (_median([w for w, _ in totals]), "units"),
            "work_vs_plan": (_median([r for _, r in totals]), "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    detail["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1) + "\n")
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": detail["metrics"],
    }
    return result, detail, path


def _print_table(title: str, result: dict) -> None:
    print(f"== {title}: attempted {result['attempted']}, failed {result['failed']}")
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")


def run_all(args) -> dict:
    """Every workload, each in a fresh process so peak RSS is its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"perfbench: workload {name} exited with {proc.returncode}")
        sys.stdout.write("\n".join(proc.stdout.splitlines()[:-1]) + "\n")
        result = json.loads(proc.stdout.splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = m
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload; for the benchmark's own tests")
    args = parser.parse_args(argv)

    if args.workload == "all":
        result = run_all(args)
    else:
        result, detail, path = run_workload(args)
        print("machine: " + json.dumps(detail["machine"]))
        print(f"report fingerprints identical across passes: {detail['fingerprints_identical']}")
        for failure in detail["failures"]:
            print("FAILED " + failure.strip().replace("\n", " | "))
        _print_table(f"{args.workload} (detail: {path.relative_to(ROOT)})", result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
