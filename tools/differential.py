"""Run one set of edge cases against two bcrbsim source trees and print the cases whose outcomes differ.

    mkdir -p /tmp/bcrbsim-parent && git archive HEAD~1 | tar -x -C /tmp/bcrbsim-parent
    python3 tools/differential.py /tmp/bcrbsim-parent .

A tree is a directory holding src/bcrbsim, such as a checkout or the
extract of `git archive`.  Each tree runs in its own interpreter
(`differential.py --run TREE`), which imports bcrbsim from TREE/src only and
prints one JSON line per case.  The cases are:

- cli: the float flags of `stability`, `spot`, `power` and `comms`, alone and
  in pairs, over the edge values VALUES, on both layouts;
- sweep: 3-sample sweeps of every sweep variable and CLI alias, over every
  range lo < hi of the finite edge values, on both layouts;
- point: `operating_point` over a 14^3 grid of d, p_in and mu, on both
  layouts and an unknown one, in four scenarios: the default, unclamped
  power, a dark, cold receiver, and an explicit N;
- search: the searches on the default geometry under the caps CAPS:
  `stability_bands` on both layouts, `required_rho2` at d = 10 and 200 m,
  and `max_spot_over_range` from d = 1 m with 3 samples; and `required_rho2`
  at d = 0.5 m on IDENTITY_PREFIX, whose answer lies where huge caps round
  the receiver mirror's D to 1;
- scenario: each of the 27 numeric keys of the scenario file, alone, over
  VALUES and then HUGE, through `--config`, for every command: each figure
  id, and a 3-sample d sweep;
- help: `--help` of the top parser and of each command in COMMANDS.  It is
  left out of the tier-1 slice, as argparse words its help differently
  from one Python version to the next.

The cases run with COLUMNS=80, so that argparse wraps its text alike on
every terminal.

A command's outcome is its exit code, the sha256 of its stdout, its stderr
and the file it wrote, whose name its stdout gives (or the class and message
of an exception that escaped run_command); a point's or a search's is the
sha256 of the result's repr, or the error's class and message.  Each outcome
also counts the records logged under `bcrbsim`.  The script exits 0 when
every case matches, 1 otherwise.  Standard library only.
tests/test_differential_slice.py runs a fixed slice of the cases in process,
through run_cases, against recorded outcomes.
"""

from __future__ import annotations

import hashlib
import io
import json
import logging
import math
import os
import subprocess
import sys
import tempfile
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from functools import partial
from itertools import chain, combinations, product
from pathlib import Path
from unittest.mock import patch

MAX = sys.float_info.max
# Zeros of both signs, the least subnormal, the normal limits, the extremes, the non-finite values, and a few
# values inside the model's ranges.
VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-308, -1e-308, 1.0, -1.0, 1e308, -1e308, MAX, -MAX,
          math.inf, -math.inf, math.nan, 0.5, 2.6, 250.0]
RANGES = list(combinations(sorted({value for value in VALUES if math.isfinite(value)}), 2))  # 0.0 stands for -0.0
FLOAT_FLAGS = {"stability": ("--d", "--d-hi"), "spot": ("--d",), "power": ("--d", "--P-in", "--mu"),
               "comms": ("--d", "--P-in", "--mu")}
LAYOUTS = ("bcrb", "original")
GRID = [None, 0.0, -0.0, 5e-324, 0.5, 1.0, 3, True, 200.0, 1e308, -1.0, math.nan, math.inf, -math.inf]
# A geometry whose bcrb round-trip prefix is the identity: required_rho2 at d = 0.5 m is 0.5000000000000001 m,
# and the A*D = 1 root lies at infinity.
IDENTITY_PREFIX = dict(rho1=-1.0, rho2=-1.0, f_gain=1.0, f1=0.03125, magnification=1.0, L1=0.0, L2=0.0, d=0.5)
# The positive finite edge values, a cap where one ulp is 1 m, and the reference design's d_max and
# required_rho2 at d = 10 m, each at 0, 1, 4 and 16 ulps above.
EDGES = (8.675236063708757, 11.324763936291243)
CAPS = sorted({value for value in VALUES if 0.0 < value < math.inf} | {4.51e15}
              | {edge + k * math.ulp(edge) for edge in EDGES for k in (0, 1, 4, 16)})
CONFIG = "scenario.json"
# An integer beyond the float range, which a JSON file can hold; the scenario family only.
HUGE = 10 ** 400
COMMANDS = ("stability", "spot", "power", "comms", "calibrate", "figure", "sweep")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _cli_cases():
    for command, flags in FLOAT_FLAGS.items():
        for system in LAYOUTS:
            for count in (1, 2):
                for chosen in combinations(flags, count):
                    for values in product(VALUES, repeat=count):
                        yield [command, *(f"{flag}={value!r}" for flag, value in zip(chosen, values)),
                               f"--system={system}"]


def _sweep_cases(variables):
    for variable, system, (lo, hi) in product(variables, LAYOUTS, RANGES):
        yield ["sweep", "--variable", variable, f"--lo={lo!r}", f"--hi={hi!r}", "--samples=3",
               f"--system={system}", "--out", "sweep.csv"]


def _scenario_cases(keys, figure_ids):
    # [section.key, value, *command] and the --config text that sets just that key to that value, for every
    # command with the arguments it needs and no others: each figure, and a sweep, write their default path.
    # HUGE comes after VALUES, so that the VALUES cases keep their indices.
    commands = [["stability"], ["spot"], ["power"], ["comms"], ["calibrate"], *(["figure", f] for f in figure_ids),
                ["sweep", "--variable", "d", "--lo=1.0", "--hi=250.0", "--samples=3"]]
    for k, value, argv in chain(product(keys, VALUES, commands), product(keys, [HUGE], commands)):
        raw = {k.section: {k.key: value}} if k.section else {k.key: value}
        yield [f"{k.section}.{k.key}" if k.section else k.key, repr(value), *argv], json.dumps(raw)


def run_cases(select=lambda family, index: True):
    """Yield [family, case, outcome] for each selected case, with bcrbsim imported as it stands.

    select(family, index) picks cases by their index within their family.
    The commands run in a temporary working directory with COLUMNS=80, and the
    records logged under `bcrbsim` are counted, not shown; all three are
    restored when the cases are done.
    """
    import bcrbsim
    from bcrbsim.cli import _VARIABLE_ALIASES, run_command
    from bcrbsim.scenario import _KEYS, _number
    from bcrbsim.sweep_search import _SWEEP_UNITS, FIGURE_IDS

    records = []
    handler = logging.Handler()
    handler.emit = records.append
    log = logging.getLogger("bcrbsim")

    def command(argv, config=None):
        if config is not None:
            Path(CONFIG).write_text(config)
            argv = ["--config", CONFIG, *argv]
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = run_command(argv)
        except Exception as exc:  # an escaping exception is an outcome to compare, not a failure of the script
            return ["raised", type(exc).__name__, str(exc)]
        written = [path for path in Path().iterdir() if path.name != CONFIG]
        data = b"".join(path.read_bytes() for path in written) if written else None
        for path in written:
            path.unlink()
        return [code, _digest(out.getvalue().encode()), _digest(err.getvalue().encode()),
                None if data is None else _digest(data)]

    def call(function, *args):
        try:
            return ["ok", _digest(repr(function(*args)).encode())]
        except Exception as exc:  # the error is the outcome
            return ["raised", type(exc).__name__, str(exc)]

    s, g = bcrbsim.default_scenario(), bcrbsim.CavityGeometry()
    searches = [*((["stability_bands", system], partial(bcrbsim.stability_bands, g, system=system))
                  for system in LAYOUTS),
                *((["required_rho2", repr(d)], partial(bcrbsim.required_rho2, g, d)) for d in (10.0, 200.0)),
                (["max_spot_over_range", "1.0", "3"], lambda cap: bcrbsim.max_spot_over_range(g, 1.0, cap, 3)),
                (["required_rho2", "identity_prefix", "0.5"],
                 partial(bcrbsim.required_rho2, bcrbsim.CavityGeometry(**IDENTITY_PREFIX), 0.5))]
    scenarios = {
        "default": s,
        "unclamped": replace(s, model_choices=replace(s.model_choices, clamp_negative_power=False)),
        "dark_cold": replace(s, receiver=replace(s.receiver, background_current=0.0, temperature=0.0)),
        "explicit_n": replace(s, model_choices=replace(s.model_choices, n_source="explicit"),
                              link=replace(s.link, loss_scale=3.0)),
    }
    families = {
        "cli": ((argv, partial(command, argv)) for argv in _cli_cases()),
        "sweep": ((argv, partial(command, argv))
                  for argv in _sweep_cases(sorted(_SWEEP_UNITS) + sorted(_VARIABLE_ALIASES))),
        "point": (([name, system, repr(d), repr(p_in), repr(mu)],
                   partial(call, bcrbsim.operating_point, scenario, system, d, p_in, mu))
                  for (name, scenario), system, (d, p_in, mu)
                  in product(scenarios.items(), (*LAYOUTS, "ring"), product(GRID, repeat=3))),
        "search": (([*name, repr(cap)], partial(call, search, cap)) for (name, search), cap in product(searches, CAPS)),
        "scenario": ((case, partial(command, case[2:], config))
                     for case, config in _scenario_cases([k for k in _KEYS if k.check is _number], FIGURE_IDS)),
        "help": ((argv, partial(command, argv)) for argv in [["--help"], *([c, "--help"] for c in COMMANDS)]),
    }
    cwd, propagate = os.getcwd(), log.propagate
    with tempfile.TemporaryDirectory() as tmp, patch.dict(os.environ, COLUMNS="80"):
        os.chdir(tmp)
        log.addHandler(handler)
        log.propagate = False
        try:
            for family, cases in families.items():
                for index, (case, run) in enumerate(cases):
                    if select(family, index):
                        records.clear()
                        outcome = run()
                        yield [family, case, [*outcome, len(records)]]
        finally:
            os.chdir(cwd)
            log.removeHandler(handler)
            log.propagate = propagate


def _run_tree(tree: Path) -> None:
    """Print [family, case, outcome] for each case, as JSON lines, with bcrbsim imported from tree/src."""
    sys.path.insert(0, str(tree.resolve() / "src"))
    import bcrbsim

    if not Path(bcrbsim.__file__).resolve().is_relative_to(tree.resolve()):
        raise SystemExit(f"bcrbsim was imported from {bcrbsim.__file__}, not from {tree}")
    for line in run_cases():
        print(json.dumps(line))


def _outcomes(tree: Path) -> dict:
    lines = subprocess.run([sys.executable, __file__, "--run", str(tree)], check=True, stdout=subprocess.PIPE,
                           text=True).stdout.splitlines()
    return {(family, json.dumps(case)): json.dumps(outcome) for family, case, outcome in map(json.loads, lines)}


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--run":
        _run_tree(Path(argv[1]))
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = (_outcomes(Path(tree)) for tree in argv)
    if before.keys() != after.keys():
        print(f"the trees ran different cases: {len(before.keys() ^ after.keys())} are in one only")
        return 1
    groups = defaultdict(list)
    for key, outcome in before.items():
        if after[key] != outcome:
            groups[key[0], outcome, after[key]].append(key[1])
    counts = Counter(family for family, _ in before)
    for (family, old, new), cases in sorted(groups.items()):
        print(f"{family}: {len(cases)} case(s)\n  before {old}\n  after  {new}")
        for case in cases[:5]:
            print(f"    {case}")
        if len(cases) > 5:
            print(f"    ... and {len(cases) - 5} more")
    differing = sum(map(len, groups.values()))
    print(f"{differing} of {len(before)} cases differ ({', '.join(f'{n} {f}' for f, n in counts.items())})")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
