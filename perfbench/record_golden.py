#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks against (golden.json).

    python3 perfbench/record_golden.py

The stored golden.json was recorded from the commit the benchmark was added
on, before any change to src/.  Re-recording it after a change to src/ would
make the checks pass whatever that change did to the outputs, so do it only
when an output is meant to change, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import ops

ROOT = ops.HERE.parent
SRC = ROOT / "src"


def main() -> int:
    sys.path.insert(0, str(SRC))
    import bcrbsim.cli as cli
    from bcrbsim import sweep_search

    golden: dict = {"figures": {}, "sweeps": {}, "smoke_sweeps": {}, "cli": {}}
    for name in ops.FIGURES:
        text = cli.format_dataset_csv(sweep_search.generate_figure(name))
        if name in ops.NUMERIC_FIGURES:
            lines = ops.data_lines(text)
            golden["figures"][name] = {
                "header": lines[0],
                "rows": [[float(cell) for cell in line.split(",")] for line in lines[1:]],
            }
        else:
            golden["figures"][name] = {"sha256": ops.sha256(text)}
    for kind, samples in (("sweeps", ops.SWEEP_SAMPLES), ("smoke_sweeps", ops.SMOKE_SWEEP_SAMPLES)):
        for name, (variable, lo, hi, system) in ops.SWEEPS.items():
            ds = sweep_search.run_sweep(sweep_search.SweepSpec(variable, lo, hi, samples, system))
            stable = ds.column("stable [-]")
            golden[kind][name] = {"sha256": ops.sha256(cli.format_dataset_csv(ds)),
                                  "unstable_frac": stable.count(0.0) / len(stable)}

    env = dict(os.environ, PYTHONPATH=str(SRC))
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        work = Path(tmp)
        (work / ops.CLI_CONFIG_NAME).write_text(json.dumps(ops.CLI_CONFIG), encoding="utf-8")
        for name, (args, expected_exit, written) in ops.CLI_COMMANDS.items():
            proc = subprocess.run([sys.executable, "-m", "bcrbsim", *args], cwd=work, env=env,
                                  capture_output=True, text=True, check=False)
            if proc.returncode != expected_exit:
                print(f"error: {name} exited {proc.returncode}, expected {expected_exit}: {proc.stderr}",
                      file=sys.stderr)
                return 1
            entry = {"argv": args, "exit": proc.returncode, "stdout": proc.stdout}
            if written:
                entry["file_sha256"] = ops.sha256((work / written).read_text(encoding="utf-8"))
            golden["cli"][name] = entry

    ops.GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {ops.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
