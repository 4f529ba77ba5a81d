#!/usr/bin/env python3
"""Benchmark of bcrbsim: figure suite, 10,001-point sweeps and CLI cold start.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <figures|sweeps|cli> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload <name> --smoke      # one tiny pass, for the harness tests

bcrbsim is imported from the checkout's src/ (nothing is built or
installed).  Every pass runs in a fresh interpreter, one process at a time.
The seed sets the order of the operations within each pass.  The last line
of stdout is one JSON object {"correct", "attempted", "failed", "metrics"};
the line before it is the run record.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import NamedTuple

import ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

SETUP_PROBES = 5           # fresh-interpreter set-ups per run; setup_s is their median
MIN_PASSES = 3             # passes per run even when --seconds is short
PROCESS_TIMEOUT_S = 120.0  # a child that runs longer is killed and its operations fail
MAX_FAILURES_SHOWN = 10

# Fresh-interpreter set-up: import the package and the CLI, build the default
# scenario and calibrate the loss scale.  Prints where bcrbsim came from.
SETUP_CODE = (
    "import bcrbsim, bcrbsim.cli\n"
    "from bcrbsim.sweep_search import resolve_link_params\n"
    "resolve_link_params(bcrbsim.default_scenario())\n"
    "print(bcrbsim.__file__)\n"
)

SEARCHES = ("max_stable_distance", "required_rho2", "max_spot_over_range")
# Per-layer metrics that are a count or ratio from one pass; they repeat exactly.
COUNT_LAYERS = ("ray_matrix.round_trip", "sweep_search.operating_point", "link_budget", "comms",
                "gaussian_beam.spot", "sweep_search.calibrate") + tuple(f"sweep_search.{s}" for s in SEARCHES)
# Per-layer self times [s], median over the traced passes.
TIME_LAYERS = COUNT_LAYERS + ("scenario.load",)


class Proc(NamedTuple):
    """Outcome of one child process: exit code, output, wall time, peak memory."""

    code: int
    stdout: str
    stderr: str
    wall_s: float
    rss_mib: float


def spawn(argv: list[str], cwd: Path, env: dict) -> Proc:
    """Run argv to completion; wall time is from spawn to exit."""
    with tempfile.TemporaryFile(dir=cwd) as out, tempfile.TemporaryFile(dir=cwd) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall_s = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, so Popen must not wait again
        out.seek(0)
        err.seek(0)
        return Proc(proc.returncode, out.read().decode("utf-8", "replace"),
                    err.read().decode("utf-8", "replace"), wall_s, usage.ru_maxrss / 1024.0)


class Run:
    """Counts, samples and failures collected during one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.pass_s: list[float] = []          # untraced passes
        self.traced_pass_s: list[float] = []
        self.process_wall_s: list[float] = []  # one entry per measured process, untraced
        self.pass_rss_mib: list[float] = []
        self.traces: list[dict] = []           # merged tracer report per traced pass
        self.import_s: list[float] = []        # per traced process
        self.unstable_frac: dict[str, float] = {}

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.failures) < MAX_FAILURES_SHOWN:
            self.failures.append(why)


def merge_traces(reports: list[dict]) -> dict:
    """Sum the tracer reports of several processes into one."""
    merged: dict = {}
    for report in reports:
        for key, value in report.items():
            if isinstance(value, dict):
                bucket = merged.setdefault(key, {})
                for name, amount in value.items():
                    bucket[name] = bucket.get(name, 0) + amount
            elif key != "import_s":
                merged[key] = merged.get(key, 0) + value
    return merged


def run_pass_process(workload: str, order: list[str], traced: bool, smoke: bool,
                     run: Run, golden: dict, work: Path, env: dict) -> None:
    """One figures or sweeps pass in a fresh interpreter, then its checks."""
    argv = [sys.executable, str(CHILD), "pass", workload, "--order", ",".join(order)]
    argv += ["--trace"] * traced + ["--smoke"] * smoke
    proc = spawn(argv, work, env)
    run.attempted += len(order)
    try:
        report = json.loads(proc.stdout.splitlines()[-1]) if proc.code == 0 else None
    except (IndexError, ValueError):
        report = None
    if report is None:
        run.fail(len(order), f"{workload} pass exited {proc.code}: {proc.stderr.strip()[-300:]}")
        return
    if Path(report["bcrbsim_file"]).resolve().parent != SRC / "bcrbsim":
        run.fail(len(order), f"bcrbsim imported from {report['bcrbsim_file']}, not {SRC}")
        return
    kind = "smoke_sweeps" if workload == "sweeps" and smoke else workload
    for op in report["ops"]:
        why = ops.check_dataset(kind, op["name"], op["sha256"], op.get("lines"), golden)
        if why:
            run.fail(1, f"{op['name']}: {why}")
        if "unstable_frac" in op:
            run.unstable_frac[op["name"]] = op["unstable_frac"]
    if traced:
        run.traced_pass_s.append(report["pass_s"])
        run.traces.append(report["trace"])
        run.import_s.append(report["import_s"])
    else:
        run.pass_s.append(report["pass_s"])
        run.process_wall_s.append(proc.wall_s)
        run.pass_rss_mib.append(proc.rss_mib)


def run_cli_pass(order: list[str], traced: bool, run: Run, golden: dict, work: Path, env: dict) -> None:
    """The CLI commands one after another, each in its own process, then their checks."""
    total_s, peak_rss, traces = 0.0, 0.0, []
    trace_file = work / "trace.json"
    for name in order:
        args, _, written = ops.CLI_COMMANDS[name]
        if written:
            (work / written).unlink(missing_ok=True)
        if traced:
            trace_file.unlink(missing_ok=True)
            argv = [sys.executable, str(CHILD), "cli", "--trace-out", str(trace_file), "--", *args]
        else:
            argv = [sys.executable, "-m", "bcrbsim", *args]
        proc = spawn(argv, work, env)
        run.attempted += 1
        total_s += proc.wall_s
        peak_rss = max(peak_rss, proc.rss_mib)
        digest = None
        if written and (work / written).exists():
            digest = ops.sha256((work / written).read_text(encoding="utf-8"))
        why = ops.check_cli(name, proc.code, proc.stdout, digest, golden)
        if why:
            run.fail(1, f"cli {name}: {why}")
        if traced:
            if trace_file.exists():
                report = json.loads(trace_file.read_text(encoding="utf-8"))
                run.import_s.append(report["import_s"])
                traces.append(report)
        else:
            run.process_wall_s.append(proc.wall_s)
    if traced:
        run.traced_pass_s.append(total_s)
        run.traces.append(merge_traces(traces))
    else:
        run.pass_s.append(total_s)
        run.pass_rss_mib.append(peak_rss)


def measure_setup(count: int, run: Run, work: Path, env: dict) -> list[float]:
    """Wall times of `count` fresh-interpreter set-ups, after one unmeasured warm-up."""
    times = []
    for i in range(count + 1):
        proc = spawn([sys.executable, "-c", SETUP_CODE], work, env)
        if proc.code != 0:
            run.fail(0, f"set-up exited {proc.code}: {proc.stderr.strip()[-300:]}")
            continue
        if Path(proc.stdout.strip()).resolve().parent != SRC / "bcrbsim":
            run.fail(0, f"bcrbsim imported from {proc.stdout.strip()}, not {SRC}")
        if i:
            times.append(proc.wall_s)
    return times


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(run: Run) -> dict:
    """Per-layer metrics from the traced passes (counts from the first pass)."""
    if not run.traces:
        return {}
    first = run.traces[0]
    calls, inside = first.get("layer_calls", {}), first.get("round_trips_in", {})

    def self_s(layer):
        return median([t.get("self_s", {}).get(layer, 0.0) for t in run.traces])

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for layer in COUNT_LAYERS:
        metrics[f"{layer}.calls"] = (calls.get(layer, 0), "count")
    for layer in TIME_LAYERS:
        metrics[f"{layer}.self_s"] = (self_s(layer), "s")
    metrics["ray_matrix.geometry.builds"] = (first.get("geometry_builds", 0), "count")
    metrics["ray_matrix.round_trips_per_point"] = (
        ratio(inside.get("sweep_search.operating_point", 0), calls.get("sweep_search.operating_point", 0)),
        "trips/point")
    for search in SEARCHES:
        layer = f"sweep_search.{search}"
        metrics[f"sweep_search.round_trips_per_search.{search}"] = (
            ratio(inside.get(layer, 0), calls.get(layer, 0)), "trips/call")
    for fig in ops.FIGURES:
        metrics[f"sweep_search.figure.{fig}_s"] = (
            median([t.get("figure_s", {}).get(fig, 0.0) for t in run.traces]), "s")
    metrics["cli.format_csv.self_s"] = (self_s("cli.format_csv"), "s")
    metrics["cli.format_csv.bytes"] = (first.get("csv_bytes", 0), "bytes")
    metrics["cli.import_s"] = (median(run.import_s), "s")
    metrics["scenario.to_dict.calls"] = (calls.get("scenario.to_dict", 0), "count")
    metrics["trace.overhead_frac"] = (ratio(median(run.traced_pass_s), median(run.pass_s)) - 1.0, "frac")
    return metrics


def counts_repeat(run: Run) -> bool:
    """Whether every traced pass made exactly the same calls."""
    keys = ("calls", "layer_calls", "round_trips_in", "geometry_builds", "csv_bytes")
    return all(all(t.get(k) == run.traces[0].get(k) for k in keys) for t in run.traces)


def quartiles(values: list[float]) -> list[float] | None:
    if len(values) < 2:
        return None
    return statistics.quantiles(values, n=4)


def git_commit() -> str:
    """HEAD of the checkout's git repository, read from .git; 'unknown' without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_digest() -> str:
    """sha256 over src/bcrbsim/*.py, to identify the code without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "bcrbsim").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("figures", "sweeps", "cli"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one tiny pass and one set-up, for the harness tests")
    args = parser.parse_args(argv)

    if not (SRC / "bcrbsim" / "__init__.py").is_file():
        print(f"error: no bcrbsim sources at {SRC / 'bcrbsim'}", file=sys.stderr)
        return 2
    if not ops.GOLDEN_PATH.is_file():
        print(f"error: reference outputs missing: {ops.GOLDEN_PATH}", file=sys.stderr)
        return 2
    golden = ops.load_golden()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    nproc = os.cpu_count() or 1
    rng = random.Random(args.seed)
    names = {"figures": list(ops.FIGURES), "sweeps": list(ops.SWEEPS), "cli": list(ops.CLI_COMMANDS)}[args.workload]
    run = Run()
    load_before = os.getloadavg()
    started = time.perf_counter()

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        work = Path(tmp)
        (work / ops.CLI_CONFIG_NAME).write_text(json.dumps(ops.CLI_CONFIG), encoding="utf-8")
        setup_s = measure_setup(0 if args.trace else 1 if args.smoke else SETUP_PROBES, run, work, env)
        min_passes = 1 if args.smoke else MIN_PASSES
        t0 = time.perf_counter()
        walls: list[float] = []  # wall time of each pass (or pair of passes when traced)
        while True:
            w0 = time.perf_counter()
            for traced in ((False, True) if args.trace else (False,)):
                order = rng.sample(names, len(names))
                if args.workload == "cli":
                    run_cli_pass(order, traced, run, golden, work, env)
                else:
                    run_pass_process(args.workload, order, traced, args.smoke, run, golden, work, env)
            walls.append(time.perf_counter() - w0)
            elapsed = time.perf_counter() - t0
            if len(walls) >= min_passes and (args.smoke or elapsed + median(walls) > args.seconds):
                break
    load_after = os.getloadavg()

    if args.trace:
        metrics = layer_metrics(run)
    else:
        metrics = {
            "setup_s": (median(setup_s), "s"),
            "pass_s": (median(run.pass_s), "s"),
            "cmd_p50_ms": (median(run.process_wall_s) * 1000.0, "ms"),
            "peak_rss_mb": (median(run.pass_rss_mib), "MiB"),
        }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "smoke": args.smoke, "wall_s": time.perf_counter() - started,
        "python": platform.python_version(), "numpy": importlib.metadata.version("numpy"),
        "nproc": nproc, "cpu_model": cpu_model(), "commit": git_commit(), "src_sha256": src_digest(),
        "loadavg_before": load_before, "loadavg_after": load_after,
        "load_exceeds_nproc": max(load_before[0], load_after[0]) > nproc,
        "samples": {"setup": len(setup_s), "passes": len(run.pass_s), "traced_passes": len(run.traced_pass_s),
                    "processes": len(run.process_wall_s)},
        "setup_s_samples": setup_s, "pass_s_samples": run.pass_s, "traced_pass_s_samples": run.traced_pass_s,
        "setup_s_quartiles": quartiles(setup_s), "pass_s_quartiles": quartiles(run.pass_s),
        "unstable_frac": run.unstable_frac,
        "failed_frac": run.failed / run.attempted if run.attempted else 1.0,
        "failures": run.failures,
    }
    if args.trace:
        record["counts_repeat"] = counts_repeat(run)
        record["calls"] = run.traces[0]["calls"] if run.traces else {}
    print(json.dumps({"run_record": record}))
    correct = run.failed == 0 and not run.failures and bool(run.pass_s)
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
