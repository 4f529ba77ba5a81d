"""Operation lists of the three workloads and the checks on their outputs.

Shared by run.py (which checks), child.py (which runs a pass in a fresh
interpreter) and record_golden.py (which stores the reference outputs).
This module imports nothing from bcrbsim, so importing it costs the
measured processes nothing.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"

FIGURES = ("fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13")

# Tolerances of the seed's boundary searches (sweep_search.DISTANCE_TOLERANCE
# and RHO2_REL_TOLERANCE).  fig8, fig9 and the CLI d_max line are compared
# within them, so an exact search may change those digits but not the band.
DISTANCE_TOLERANCE = 1e-3   # m, absolute
RHO2_REL_TOLERANCE = 1e-6   # relative
# Values are printed at 9 significant digits.
FORMAT_REL = 1e-8
NUMERIC_FIGURES = {"fig8": ("abs", DISTANCE_TOLERANCE), "fig9": ("rel", RHO2_REL_TOLERANCE)}

SWEEP_SAMPLES = 10_001
SMOKE_SWEEP_SAMPLES = 101
# name -> (variable, lo, hi, system)
SWEEPS = {
    "d_1_6_bcrb": ("d", 1.0, 6.0, "bcrb"),
    "d_1_60_original": ("d", 1.0, 60.0, "original"),
    "p_in_150_300": ("p_in", 150.0, 300.0, "bcrb"),
    "rho2_1_50": ("rho2", 1.0, 50.0, "bcrb"),
    "M_1.5_6": ("magnification", 1.5, 6.0, "bcrb"),
}

# Scenario file for the `--config <json> spot` command: a non-default design
# so that scenario loading and unit conversion take part in the output.
CLI_CONFIG_NAME = "scenario.json"
CLI_CONFIG = {"geometry": {"d_m": 3.2, "magnification": 4.0, "rho2_mm": 20000}, "pump_input_power_w": 220}

# name -> (argv after `python -m bcrbsim`, expected exit code, file the command writes)
CLI_COMMANDS = {
    "stability": (["stability"], 0, None),
    "spot": (["spot"], 0, None),
    "power_original": (["power", "--system", "original"], 0, None),
    "comms_mu": (["comms", "--mu", "0.99"], 0, None),
    "calibrate": (["calibrate"], 0, None),
    "config_spot": (["--config", CLI_CONFIG_NAME, "spot"], 0, None),
    "figure_fig7": (["figure", "fig7"], 0, "fig7.csv"),
    "sweep_d": (["sweep", "--variable", "d", "--lo", "1", "--hi", "6", "--samples", "101"], 0, "sweep_d.csv"),
    "spot_unstable": (["spot", "--d", "60"], 1, None),
    "calibrate_unreachable": (["calibrate", "--anchor-P-beam", "100"], 2, None),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def data_lines(csv_text: str) -> list[str]:
    """Header and data rows of a dataset CSV, without the '#' metadata."""
    return [line for line in csv_text.splitlines() if not line.startswith("#")]


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def _close(value: float, ref: float, kind: str, tol: float) -> bool:
    slack = FORMAT_REL * abs(ref)
    if kind == "abs":
        return abs(value - ref) <= tol + slack
    return abs(value - ref) <= tol * abs(ref) + slack


def check_numeric_table(lines: list[str], golden: dict, kind: str, tol: float) -> str | None:
    """Compare a CSV table with the reference; returns why it differs, or None.

    The header and the first (grid) column must match exactly; the other
    cells within the search tolerance.
    """
    if not lines or lines[0] != golden["header"]:
        return "header differs"
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    if len(rows) != len(golden["rows"]):
        return f"{len(rows)} rows, expected {len(golden['rows'])}"
    for row, ref in zip(rows, golden["rows"]):
        if len(row) != len(ref) or row[0] != ref[0]:
            return f"row at {ref[0]!r} differs in shape or grid value"
        for value, expected in zip(row[1:], ref[1:]):
            if not (math.isfinite(value) and _close(value, expected, kind, tol)):
                return f"row at {ref[0]!r}: {value!r} vs {expected!r} beyond {kind} tolerance {tol:g}"
    return None


def check_dataset(kind: str, name: str, digest: str, lines: list[str] | None, golden: dict) -> str | None:
    """Check one figure or sweep output against the reference; None if it passes."""
    if kind == "figures" and name in NUMERIC_FIGURES:
        tol_kind, tol = NUMERIC_FIGURES[name]
        return check_numeric_table(lines or [], golden["figures"][name], tol_kind, tol)
    expected = golden[kind][name]["sha256"]
    return None if digest == expected else f"sha256 {digest[:12]} != {expected[:12]}"


def check_cli(name: str, code: int, stdout: str, file_digest: str | None, golden: dict) -> str | None:
    """Check one CLI command's exit code, stdout and written file; None if it passes."""
    ref = golden["cli"][name]
    if code != ref["exit"]:
        return f"exit {code}, expected {ref['exit']}"
    got, want = stdout.splitlines(), ref["stdout"].splitlines()
    if len(got) != len(want) or stdout.endswith("\n") != ref["stdout"].endswith("\n"):
        return "stdout differs"
    for line, expected in zip(got, want):
        if line == expected:
            continue
        # `d_max = <value> [m]`: the maximum stable distance within the search tolerance.
        if line.startswith("d_max = ") and expected.startswith("d_max = ") and line.endswith(" [m]"):
            value, ref_value = float(line.split()[2]), float(expected.split()[2])
            if _close(value, ref_value, "abs", DISTANCE_TOLERANCE):
                continue
        return f"stdout line {line!r} != {expected!r}"
    if ref.get("file_sha256") != file_digest:
        return "written file differs"
    return None
