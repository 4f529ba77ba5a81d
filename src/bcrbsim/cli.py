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


def write_dataset(ds: FigureDataset, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(format_dataset_csv(ds))


def _cmd_stability(s: Scenario, args) -> int:
    d = args.d if args.d is not None else s.geometry.d
    g = replace(s.geometry, d=d)
    m = round_trip(g, args.system)
    # Band edges are walked inward as max_stable_distance walks them, so the
    # first band's upper end is d_max.  Bands come first: d_hi fails before output.
    bands = stability_bands(g, args.d_hi, args.system)
    _emit("d", d, "m")
    _emit("A*D", m.a * m.d, "-")
    print(f"stable = {'true' if is_stable(m) else 'false'}")
    print(f"stability_bands = {len(bands)} [-]")
    _emit("d_max", _first_band(bands, args.d_hi)[1], "m")
    return 0


def _cmd_spot(s: Scenario, args) -> int:
    d = args.d if args.d is not None else s.geometry.d
    g = replace(s.geometry, d=d)
    spots = cavity_spot_radii(g, args.system)
    _emit("d", d, "m")
    _emit("omega1", spots.omega1, "m")
    _emit("omega2", spots.omega2, "m")
    _emit("omega3", spots.omega3, "m")
    return 0


def _cmd_power(s: Scenario, args) -> int:
    d = args.d if args.d is not None else s.geometry.d
    p_in = args.p_in if args.p_in is not None else s.pump_input_power
    mu = args.mu if args.mu is not None else s.receiver.split_ratio
    g = replace(s.geometry, d=d)
    link = resolve_link_params(s)
    loss, point = _chain(s, link, args.system)
    delta_t, p_beam, p_out = point(loss(g.d), p_in, mu)
    _emit("d", d, "m")
    _emit("P_in", p_in, "W")
    _emit("mu", mu, "-")
    _emit("N", link.loss_scale, "-")
    _emit("delta_t", delta_t, "-")
    _emit("P_beam", p_beam, "W")
    _emit("P_out", p_out, "W")
    return 0


def _cmd_comms(s: Scenario, args) -> int:
    point = operating_point(s, args.system, d=args.d, p_in=args.p_in, mu=args.mu)
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


def _cmd_figure(s: Scenario, args) -> int:
    ds = generate_figure(args.figure_id, s)
    out = args.out if args.out is not None else f"{args.figure_id}.csv"
    write_dataset(ds, out)
    print(f"wrote {out} ({ds.n_rows} rows)")
    return 0


def _cmd_sweep(s: Scenario, args) -> int:
    variable = _VARIABLE_ALIASES.get(args.variable, args.variable)
    spec = SweepSpec(variable=variable, lo=args.lo, hi=args.hi,
                     samples=args.samples, system=args.system)
    ds = run_sweep(spec, s)
    out = args.out if args.out is not None else f"sweep_{variable}.csv"
    write_dataset(ds, out)
    print(f"wrote {out} ({ds.n_rows} rows)")
    return 0


def _add_common(sub, d_flag=True, power_flags=False, system_flag=True, out_flag=False):
    if d_flag:
        sub.add_argument("--d", type=float, default=None, help="transmission distance [m]")
    if power_flags:
        sub.add_argument("--P-in", dest="p_in", type=float, default=None, help="pump input power [W]")
        sub.add_argument("--mu", type=float, default=None, help="power split ratio to the PV branch")
    if system_flag:
        sub.add_argument("--system", choices=tuple(_LAYOUTS), default="bcrb",
                         help="cavity layout (default: bcrb)")
    if out_flag:
        sub.add_argument("--out", type=Path, default=None, help="output CSV path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bcrbsim",
        description="Beam-compression resonant beam link simulator")
    parser.add_argument("--config", type=Path, default=None, help="scenario JSON file")
    parser.add_argument("--strict", action="store_true",
                        help="treat unknown scenario keys as errors instead of warnings")
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("stability", help="stability product, flag, and maximum stable distance")
    _add_common(sub)
    sub.add_argument("--d-hi", dest="d_hi", type=float, default=100.0,
                     help="search cap for the maximum stable distance [m] (default: 100)")
    sub.set_defaults(handler=_cmd_stability)

    sub = commands.add_parser("spot", help="beam spot radii on the mirrors and the gain module")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_spot)

    sub = commands.add_parser("power", help="aperture loss, beam power, and PV output")
    _add_common(sub, power_flags=True)
    sub.set_defaults(handler=_cmd_power)

    sub = commands.add_parser("comms", help="signal level, noise variances, spectral efficiency")
    _add_common(sub, power_flags=True)
    sub.set_defaults(handler=_cmd_comms)

    sub = commands.add_parser("calibrate", help="fit the aperture-loss scale N to an anchor measurement")
    sub.add_argument("--anchor-d", dest="anchor_d", type=float, default=ANCHOR_DISTANCE,
                     help=f"anchor distance [m] (default: {ANCHOR_DISTANCE})")
    sub.add_argument("--anchor-P-beam", dest="anchor_p_beam", type=float, default=ANCHOR_BEAM_POWER,
                     help=f"anchor beam power [W] (default: {ANCHOR_BEAM_POWER})")
    sub.add_argument("--P-in", dest="p_in", type=float, default=ANCHOR_INPUT_POWER,
                     help=f"anchor pump input [W] (default: {ANCHOR_INPUT_POWER})")
    sub.add_argument("--system", choices=tuple(_LAYOUTS), default="original",
                     help="layout whose aperture limits the anchor (default: original)")
    sub.set_defaults(handler=_cmd_calibrate)

    sub = commands.add_parser("figure", help=f"write a built-in dataset ({', '.join(FIGURE_IDS)}) as CSV")
    sub.add_argument("figure_id", help="figure identifier, e.g. fig6")
    _add_common(sub, d_flag=False, system_flag=False, out_flag=True)
    sub.set_defaults(handler=_cmd_figure)

    sub = commands.add_parser("sweep", help="sweep one parameter and write the model chain as CSV")
    sub.add_argument("--variable", required=True, help="parameter to sweep (d, P_in, mu, rho2, M, ...)")
    sub.add_argument("--lo", type=float, required=True, help="lower end of the sweep range")
    sub.add_argument("--hi", type=float, required=True, help="upper end of the sweep range")
    sub.add_argument("--samples", type=int, default=101, help="number of grid points (default: 101)")
    _add_common(sub, d_flag=False, out_flag=True)
    sub.set_defaults(handler=_cmd_sweep)

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
