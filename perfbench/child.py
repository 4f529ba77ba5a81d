"""One measured process of the benchmark, started fresh by run.py.

    child.py pass <figures|sweeps> --order a,b,... [--trace] [--smoke]
        Import bcrbsim, run one pass over the named operations and print one
        JSON line: import time, per-operation times and output digests, and
        with --trace the tracer's counters.
    child.py cli --trace-out <file> -- <bcrbsim arguments>
        Run one CLI command like `python -m bcrbsim` with the tracer
        installed, write the tracer's counters to <file>, and exit with the
        command's exit code.

bcrbsim comes from PYTHONPATH, which run.py points at the checkout's src/.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import ops
from tracer import Tracer


def run_pass(workload: str, order: list[str], traced: bool, smoke: bool) -> dict:
    t0 = time.perf_counter()
    import bcrbsim.cli as cli
    from bcrbsim import sweep_search
    import_s = time.perf_counter() - t0

    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    samples = ops.SMOKE_SWEEP_SAMPLES if smoke else ops.SWEEP_SAMPLES
    results = []
    for name in order:
        t0 = time.perf_counter()
        if workload == "figures":
            ds = sweep_search.generate_figure(name)
        else:
            variable, lo, hi, system = ops.SWEEPS[name]
            ds = sweep_search.run_sweep(sweep_search.SweepSpec(variable, lo, hi, samples, system))
        text = cli.format_dataset_csv(ds)
        seconds = time.perf_counter() - t0
        result = {"name": name, "seconds": seconds, "sha256": ops.sha256(text), "rows": len(ds.rows)}
        if name in ops.NUMERIC_FIGURES:
            result["lines"] = ops.data_lines(text)
        if workload == "sweeps":
            stable = ds.column("stable [-]")
            result["unstable_frac"] = stable.count(0.0) / len(stable)
        results.append(result)
    return {
        "import_s": import_s,
        "pass_s": sum(r["seconds"] for r in results),
        "ops": results,
        "bcrbsim_file": cli.__file__,
        "trace": tracer.report() if tracer else None,
    }


def run_cli(trace_out: Path, argv: list[str]) -> int:
    t0 = time.perf_counter()
    import bcrbsim.cli as cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    code = cli.run_command(argv)
    report = tracer.report()
    report["import_s"] = import_s
    trace_out.write_text(json.dumps(report), encoding="utf-8")
    return code


def main(argv: list[str]) -> int:
    if argv[:1] == ["cli"]:
        split = argv.index("--")
        parser = argparse.ArgumentParser(prog="child.py cli")
        parser.add_argument("--trace-out", type=Path, required=True)
        args = parser.parse_args(argv[1:split])
        return run_cli(args.trace_out, argv[split + 1:])
    parser = argparse.ArgumentParser(prog="child.py pass")
    parser.add_argument("workload", choices=("figures", "sweeps"))
    parser.add_argument("--order", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv[1:])
    report = run_pass(args.workload, args.order.split(","), args.trace, args.smoke)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
