"""Command-line front end.

Single-point queries (stability, spot, power, comms), loss-scale calibration,
built-in figure datasets, and generic one-variable sweeps.  `power` and
`comms` print views of the one model chain in sweep_search: `power` its
power branch, `comms` the operating point, power and data branch.  Numeric
output lines carry a bracketed unit; CSV files have one header row with units
in brackets, '#'-prefixed metadata lines, 9 significant digits, LF endings.
A dataset's rows are formatted from its columns, a block of rows at a time,
each block under one %-template that holds the text of every column whose
cells print alike over the block.

Exit codes: 0 success, 1 domain/validation error, 2 infeasible search.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from .errors import BeamSimError, InfeasibleSearchError, NoStableRegionError
from .gaussian_beam import cavity_spot_radii
from .link_budget import effective_aperture
from .ray_matrix import _LAYOUTS, is_stable, round_trip
from .scenario import Scenario, default_scenario, load_scenario
from .sweep_search import (
    ANCHOR_BEAM_POWER,
    ANCHOR_DISTANCE,
    ANCHOR_INPUT_POWER,
    FIGURE_IDS,
    FigureDataset,
    SweepSpec,
    _chain,
    _first_band,
    calibrate_loss_scale,
    generate_figure,
    operating_point,
    resolve_link_params,
    run_sweep,
    stability_bands,
)

_VARIABLE_ALIASES = {
    "P_in": "p_in", "Pin": "p_in", "M": "magnification", "N": "loss_scale",
    "lambda": "wavelength",
}


def _num(value: float) -> str:
    return f"{value:.9g}"


def _emit(name: str, value: float, unit: str) -> None:
    print(f"{name} = {_num(value)} [{unit}]")


def _meta_str(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


# Rows per %-template.  A column whose cells print alike over a block enters the template as text; smaller
# blocks find more such runs but build more templates (256 to 2,048 rows format the benchmark sweeps alike).
_BLOCK = 1024


def _template_field(cells) -> str | None:
    # The text of a column (a list, or one value) whose cells all print alike, else None: every cell equals
    # the first (one NaN object equals itself), and its zeros have one sign (0.0 == -0.0 prints 0 and -0).
    if type(cells) is list:
        first, last = cells[0], cells[-1]
        if (last is not first and last != first or cells.count(first) != len(cells)
                or first == 0 and len({math.copysign(1.0, x) for x in cells}) > 1):
            return None
        cells = first
    return _num(cells).replace("%", "%%")


def _blocks(ds: FigureDataset):
    """Per block of _BLOCK rows: its row count, its %-template, and the slices of the columns left to format.

    The template holds the text of each column whose cells print alike over the block, else %.9g, as _num().
    """
    fixed = [None if type(cells) is list else _template_field(cells) for cells in ds.cells]
    for start in range(0, ds.n_rows, _BLOCK):
        fields, varying = [], []
        for text, cells in zip(fixed, ds.cells):
            if text is None:
                block = cells[start:start + _BLOCK]
                text = _template_field(block)
                if text is None:
                    text = "%.9g"
                    varying.append(block)
            fields.append(text)
        yield min(ds.n_rows - start, _BLOCK), ",".join(fields), varying


def format_dataset_csv(ds: FigureDataset) -> str:
    """CSV text for a dataset: metadata comments, one header row, data rows, formatted a block at a time."""
    lines = [f"# {key} = {_meta_str(value)}" for key, value in ds.metadata.items()]
    lines.append(",".join(ds.columns))
    for count, template, varying in _blocks(ds):
        lines.extend(map(template.__mod__, zip(*varying)) if varying else [template % ()] * count)
    lines.append("")
    return "\n".join(lines)


def _cmd_stability(s: Scenario, args) -> int:
    g = s.geometry
    m = round_trip(g, args.system)
    # Band edges are walked inward as max_stable_distance walks them, so the
    # first band's upper end is d_max.  Bands come first: d_hi fails before output.
    bands = stability_bands(g, args.d_hi, args.system)
    _emit("d", g.d, "m")
    _emit("A*D", m.a * m.d, "-")
    print(f"stable = {'true' if is_stable(m) else 'false'}")
    print(f"stability_bands = {len(bands)} [-]")
    _emit("d_max", _first_band(bands, args.d_hi)[1], "m")
    return 0


def _cmd_spot(s: Scenario, args) -> int:
    spots = cavity_spot_radii(s.geometry, args.system)
    _emit("d", s.geometry.d, "m")
    _emit("omega1", spots.omega1, "m")
    _emit("omega2", spots.omega2, "m")
    _emit("omega3", spots.omega3, "m")
    return 0


def _cmd_power(s: Scenario, args) -> int:
    p_in = args.p_in if args.p_in is not None else s.pump_input_power
    mu = args.mu if args.mu is not None else s.receiver.split_ratio
    link = resolve_link_params(s)
    loss, point = _chain(s, link, args.system)
    delta_t, p_beam, p_out = point(loss(), p_in, mu)
    _emit("d", s.geometry.d, "m")
    _emit("P_in", p_in, "W")
    _emit("mu", mu, "-")
    _emit("N", link.loss_scale, "-")
    _emit("delta_t", delta_t, "-")
    _emit("P_beam", p_beam, "W")
    _emit("P_out", p_out, "W")
    return 0


def _cmd_comms(s: Scenario, args) -> int:
    point = operating_point(s, args.system, p_in=args.p_in, mu=args.mu)
    _emit("d", point["d"], "m")
    _emit("P_in", point["p_in"], "W")
    _emit("mu", point["mu"], "-")
    _emit("P_beam", max(point["beam_power"], 0.0), "W")  # floored, as the data branch sees it
    _emit("P_data", point["data_signal"], "a.u.")
    _emit("n2_shot", point["shot_noise"], "a.u.^2")
    _emit("n2_thermal", point["thermal_noise"], "a.u.^2")
    _emit("n2_total", point["total_noise"], "a.u.^2")
    _emit("log_base", s.model_choices.log_base, "-")
    _emit("spectral_efficiency", point["spectral_efficiency"], "bit/s/Hz")
    return 0


def _cmd_calibrate(s: Scenario, args) -> int:
    aperture = effective_aperture(s.geometry, args.system)
    n = calibrate_loss_scale(args.anchor_d, args.anchor_p_beam, args.p_in,
                             aperture, s.geometry.wavelength, s.link)
    _emit("anchor_d", args.anchor_d, "m")
    _emit("anchor_P_beam", args.anchor_p_beam, "W")
    _emit("anchor_P_in", args.p_in, "W")
    _emit("aperture", aperture, "m")
    _emit("N", n, "-")
    return 0


def _write(ds: FigureDataset, out) -> int:
    # The figure and sweep commands' output: the CSV at out, by default named after the dataset's figure_id.
    out = out if out is not None else f"{ds.figure_id}.csv"
    with open(out, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(format_dataset_csv(ds))
    print(f"wrote {out} ({ds.n_rows} rows)")
    return 0


def _cmd_figure(s: Scenario, args) -> int:
    return _write(generate_figure(args.figure_id, s), args.out)


def _cmd_sweep(s: Scenario, args) -> int:
    variable = _VARIABLE_ALIASES.get(args.variable, args.variable)
    spec = SweepSpec(variable=variable, lo=args.lo, hi=args.hi,
                     samples=args.samples, system=args.system)
    return _write(run_sweep(spec, s), args.out)


# Arguments shared by several commands, each written once, as (flag, add_argument keywords).
_D = ("--d", dict(type=float, help="transmission distance [m]"))
_POWER = (("--P-in", dict(dest="p_in", type=float, help="pump input power [W]")),
          ("--mu", dict(type=float, help="power split ratio to the PV branch")))
_SYSTEM = ("--system", dict(choices=tuple(_LAYOUTS), default="bcrb", help="cavity layout (default: bcrb)"))
_OUT = ("--out", dict(type=Path, help="output CSV path"))

# command -> (help, handler, arguments in --help order)
_COMMANDS = {
    "stability": ("stability product, flag, and maximum stable distance", _cmd_stability, (
        _D, _SYSTEM,
        ("--d-hi", dict(dest="d_hi", type=float, default=100.0,
                        help="search cap for the maximum stable distance [m] (default: 100)")))),
    "spot": ("beam spot radii on the mirrors and the gain module", _cmd_spot, (_D, _SYSTEM)),
    "power": ("aperture loss, beam power, and PV output", _cmd_power, (_D, *_POWER, _SYSTEM)),
    "comms": ("signal level, noise variances, spectral efficiency", _cmd_comms, (_D, *_POWER, _SYSTEM)),
    "calibrate": ("fit the aperture-loss scale N to an anchor measurement", _cmd_calibrate, (
        ("--anchor-d", dict(dest="anchor_d", type=float, default=ANCHOR_DISTANCE,
                            help=f"anchor distance [m] (default: {ANCHOR_DISTANCE})")),
        ("--anchor-P-beam", dict(dest="anchor_p_beam", type=float, default=ANCHOR_BEAM_POWER,
                                 help=f"anchor beam power [W] (default: {ANCHOR_BEAM_POWER})")),
        ("--P-in", dict(dest="p_in", type=float, default=ANCHOR_INPUT_POWER,
                        help=f"anchor pump input [W] (default: {ANCHOR_INPUT_POWER})")),
        ("--system", dict(choices=tuple(_LAYOUTS), default="original",
                          help="layout whose aperture limits the anchor (default: original)")))),
    "figure": (f"write a built-in dataset ({', '.join(FIGURE_IDS)}) as CSV", _cmd_figure, (
        ("figure_id", dict(help="figure identifier, e.g. fig6")), _OUT)),
    "sweep": ("sweep one parameter and write the model chain as CSV", _cmd_sweep, (
        ("--variable", dict(required=True, help="parameter to sweep (d, P_in, mu, rho2, M, ...)")),
        ("--lo", dict(type=float, required=True, help="lower end of the sweep range")),
        ("--hi", dict(type=float, required=True, help="upper end of the sweep range")),
        ("--samples", dict(type=int, default=101, help="number of grid points (default: 101)")),
        _SYSTEM, _OUT)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bcrbsim",
        description="Beam-compression resonant beam link simulator")
    parser.add_argument("--config", type=Path, default=None, help="scenario JSON file")
    parser.add_argument("--strict", action="store_true",
                        help="treat unknown scenario keys as errors instead of warnings")
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, handler, arguments) in _COMMANDS.items():
        sub = commands.add_parser(command, help=help_text)
        for flag, options in arguments:
            sub.add_argument(flag, **options)
        sub.set_defaults(handler=handler)
    return parser


def run_command(argv) -> int:
    """Parse argv and run one subcommand; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    try:
        if args.config is not None:
            scenario = load_scenario(args.config, strict=args.strict)
        else:
            scenario = default_scenario()
        if getattr(args, "d", None) is not None:  # --d replaces the scenario's distance, checked as the geometry's d
            scenario = replace(scenario, geometry=replace(scenario.geometry, d=args.d))
        return args.handler(scenario, args)
    except (NoStableRegionError, InfeasibleSearchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BeamSimError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
