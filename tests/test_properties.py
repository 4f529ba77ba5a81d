"""Property-based tests over the acceptance suite's sampling ranges."""

import inspect
import math
import re
import sys
import tempfile
from dataclasses import replace
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bcrbsim import (
    BeamSimError,
    CavityGeometry,
    InfeasibleSearchError,
    ModelChoices,
    NoStableRegionError,
    SingularConfigurationError,
    SweepSpec,
    UnstableCavityError,
    beam_power,
    data_signal,
    default_scenario,
    effective_aperture,
    generate_figure,
    is_stable,
    load_scenario,
    max_spot_over_range,
    max_stable_distance,
    mirror_spot_radii,
    operating_point,
    propagate_spot,
    pv_output,
    required_rho2,
    resolve_link_params,
    round_trip_bcrb,
    round_trip_closed_form,
    run_sweep,
    save_scenario,
    shot_noise,
    spectral_efficiency,
    thermal_noise,
    transmission_loss,
)
from bcrbsim.cli import _BLOCK, format_dataset_csv
from bcrbsim.gaussian_beam import _spots
from bcrbsim.ray_matrix import (_MIRROR, _affine, _close, _focus, _layout, _product, _shift, round_trip,
                                round_trip_prefix)
from bcrbsim.sweep_search import (_FIGURES, _SWEEP_UNITS, FigureDataset, _distance_bands, _grid, _require_cap,
                                  _roots, _stable_at, stability_bands)


def signed(lo, hi):
    return st.tuples(st.floats(lo, hi), st.sampled_from((1.0, -1.0))).map(lambda pair: pair[0] * pair[1])


# The ranges of test_acceptance.random_geometries, plus the wavelength, whose
# nm conversion is the other scaled key of the scenario file.
GEOMETRIES = st.builds(
    CavityGeometry,
    rho1=signed(0.3, 50.0),
    rho2=signed(0.3, 50.0),
    f_gain=st.floats(0.2, 5.0),
    f1=st.floats(2e-3, 0.05),
    magnification=st.floats(0.5, 5.0),
    L1=st.floats(0.0, 0.01),
    L2=st.floats(0.0, 0.3),
    d=st.floats(0.01, 20.0),
    wavelength=st.floats(500e-9, 1600e-9),
)


@settings(max_examples=300, deadline=None)
@given(geometry=GEOMETRIES)
def test_save_load_save_is_bit_identical(geometry):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first.json", Path(tmp) / "second.json"
        save_scenario(replace(default_scenario(), geometry=geometry), first)
        save_scenario(load_scenario(first), second)
        assert second.read_bytes() == first.read_bytes()


DENSE_POINTS = 1000     # per example; 2 layouts x 50 examples = 1e5 points
EDGE_MARGIN = 1e-9      # relative: points this close to a band edge are not judged


@pytest.mark.parametrize("system", ["bcrb", "original"])
@settings(max_examples=50, deadline=None)
@given(geometry=GEOMETRIES, shift=st.floats(0.0, 1.0, exclude_max=True))
def test_exact_bands_match_dense_stability(system, geometry, shift):
    d_hi = 20.0
    bands = stability_bands(geometry, d_hi, system)
    edges = [edge for band in bands for edge in band]
    for k in range(1, DENSE_POINTS + 1):
        d = d_hi * (k - shift) / DENSE_POINTS
        if any(abs(d - edge) <= EDGE_MARGIN * d_hi for edge in edges):
            continue
        in_band = any(lo < d < hi or d == hi == d_hi for lo, hi in bands)
        assert is_stable(round_trip(replace(geometry, d=d), system)) == in_band, d

    if bands:
        d_max = max_stable_distance(geometry, d_hi, system=system)
        assert is_stable(round_trip(replace(geometry, d=d_max), system))
        assert abs(d_max - bands[0][1]) <= EDGE_MARGIN * d_hi
        if d_max < d_hi:
            assert not is_stable(round_trip(replace(geometry, d=d_max + EDGE_MARGIN * d_hi), system))
    else:
        with pytest.raises(NoStableRegionError):
            max_stable_distance(geometry, d_hi, system=system)

    if system == "bcrb":
        try:
            rho2 = required_rho2(geometry, geometry.d, 50.0)
        except InfeasibleSearchError:
            return
        assert 0.0 < rho2 <= 50.0
        assert is_stable(round_trip(replace(geometry, rho2=rho2), "bcrb"))
        assert not is_stable(round_trip(replace(geometry, rho2=rho2 * (1.0 - EDGE_MARGIN)), "bcrb"))


@pytest.mark.parametrize("system", ["bcrb", "original"])
@settings(max_examples=100, deadline=None)
@given(geometry=GEOMETRIES)
def test_band_edges_are_stable_points(system, geometry):
    for lo, hi in stability_bands(geometry, 20.0, system):
        assert lo < hi
        assert _stable_at(geometry, lo, system) and _stable_at(geometry, hi, system), (lo, hi)


@settings(max_examples=500, deadline=None)
@given(lo=st.floats(allow_nan=False, allow_infinity=False),
       hi=st.floats(allow_nan=False, allow_infinity=False),
       n=st.one_of(st.integers(2, 50), st.integers(2, 5000)))
def test_grid_is_numpy_linspace(lo, hi, n):
    with np.errstate(all="ignore"):
        expected = np.linspace(lo, hi, n).tolist()
    assert [x.hex() for x in _grid(lo, hi, n)] == [x.hex() for x in expected]


# One in-range value per sweep variable; the radii keep the sign of the
# geometry's own radius, so that a range never crosses 0.
SWEEP_VALUES = {
    "d": st.floats(0.01, 20.0), "p_in": st.floats(0.0, 400.0), "mu": st.floats(0.0, 1.0),
    "rho1": st.floats(0.3, 50.0), "rho2": st.floats(0.3, 50.0), "f_gain": st.floats(0.2, 5.0),
    "f1": st.floats(2e-3, 0.05), "magnification": st.floats(0.5, 5.0), "L1": st.floats(0.0, 0.01),
    "L2": st.floats(0.0, 0.3), "loss_scale": st.floats(0.1, 30.0), "wavelength": st.floats(500e-9, 1600e-9),
}


def _oracle_row(s, link, system, variable, value):
    """The sweep row at one grid value, built from public functions only, one step after another."""
    g, p_in, mu, loss_scale = s.geometry, s.pump_input_power, s.receiver.split_ratio, link.loss_scale
    if variable == "p_in":
        p_in = value
    elif variable == "mu":
        mu = value
    elif variable == "loss_scale":
        loss_scale = value
    else:
        g = replace(g, **{variable: value})
    m = round_trip(g, system)
    cavity = (0.0, m.a * m.d, math.nan, math.nan, math.nan)
    if is_stable(m):
        omega1, omega2 = mirror_spot_radii(m, g.wavelength)
        cavity = (1.0, m.a * m.d, omega1, omega2, propagate_spot(omega1, g.rho1, g.L1, g.wavelength))
    clamp = s.model_choices.clamp_negative_power
    delta_t = transmission_loss(g.d, effective_aperture(g, system), g.wavelength, loss_scale)
    p_beam = beam_power(p_in, delta_t, link, clamp=clamp)
    p_beam_floor = max(p_beam, 0.0)
    p_out = pv_output(p_beam_floor, mu, link, clamp=clamp)
    receiver = replace(s.receiver, split_ratio=mu)
    p_data = data_signal(p_beam_floor, receiver)
    shot, thermal = shot_noise(p_data, receiver), thermal_noise(receiver)
    se = spectral_efficiency(p_data, shot + thermal, s.model_choices.log_base)
    return (value, *cavity, delta_t, p_beam, p_out, p_data, shot, thermal, shot + thermal, se)


@pytest.mark.parametrize("clamp", [True, False])
@pytest.mark.parametrize("system", ["bcrb", "original"])
@pytest.mark.parametrize("variable", sorted(_SWEEP_UNITS))
@settings(max_examples=25, deadline=None)
@given(data=st.data(), geometry=GEOMETRIES, samples=st.integers(2, 9))
def test_sweep_rows_are_operating_points(variable, system, clamp, data, geometry, samples):
    # run_sweep evaluates the chain stage by stage over whole columns; _oracle_row evaluates one row at a
    # time.  Their rows are equal by repr, NaN included.  Where rows fail, the sweep stops at the first
    # stage that fails anywhere, with the error of its first bad row: an error that one of the rows raises.
    lo, hi = sorted(data.draw(st.lists(SWEEP_VALUES[variable], min_size=2, max_size=2, unique=True)))
    if variable in ("rho1", "rho2") and getattr(geometry, variable) < 0:
        lo, hi = -hi, -lo
    s = replace(default_scenario(), geometry=geometry, model_choices=ModelChoices(clamp_negative_power=clamp))
    link = resolve_link_params(s)
    spec = SweepSpec(variable, lo, hi, samples, system)
    grid = np.linspace(lo, hi, samples).tolist()
    want = [_outcome(_oracle_row, s, link, system, variable, value) for value in grid]
    errors = [outcome for outcome in want if not outcome.startswith("(")]
    if errors:
        assert _outcome(run_sweep, spec, s) in errors
        return
    assert list(map(repr, run_sweep(spec, s).rows)) == want
    if variable in ("d", "p_in", "mu"):
        # operating_point evaluates the same row at one point.
        points = [operating_point(s, system, **{variable: value}) for value in grid]
        assert [repr((value, *map(float, list(point.values())[3:]))) for value, point in zip(grid, points)] == want


def _point_row(figure_id, s, x, meta, p_in_values, mu_values):
    """A chain figure's row at grid value x, with each series cell read from operating_point."""
    if figure_id == "fig6":
        points = [operating_point(s, system, d=x) for system in ("bcrb", "original")]
        return (x, *[point["omega3"] for point in points], *[point["beam_power"] for point in points])
    if figure_id == "fig7":
        powers = [operating_point(s, system, p_in=x)["beam_power"] for system in ("bcrb", "original")]
        return (x, *powers, *[power / x for power in powers])
    if "sweep.mu" in meta:
        series = [(float(value), meta["sweep.mu"]) for value in p_in_values]
    else:
        series = [(meta["sweep.p_in_w"], value) for value in mu_values]
    output = "pv_output" if figure_id == "fig11" else "spectral_efficiency"
    return (x, *[operating_point(s, "bcrb", d=x, p_in=p_in, mu=mu)[output] for p_in, mu in series])


CHAIN_FIGURES = ["fig6", "fig7", "fig11", "fig12", "fig13"]
# The reference design with the fields drawn that keep fig6's cavity stable over most of GEOMETRIES' ranges;
# a geometry of GEOMETRIES is unstable somewhere on fig6's grid almost always.
NEAR_REFERENCE = st.builds(CavityGeometry, rho2=st.floats(0.3, 50.0), f1=st.floats(2e-3, 0.05),
                           magnification=st.floats(0.5, 5.0), L1=st.floats(0.0, 0.01), L2=st.floats(0.0, 0.3),
                           wavelength=st.floats(500e-9, 1600e-9))


@pytest.mark.parametrize("figure_id", CHAIN_FIGURES)
def test_chain_figure_cells_are_operating_points(figure_id):
    # Every cell of a chain figure, over its whole grid and every series, is operating_point's cell at
    # its grid value and series value; 3,718 cells in all.
    defaults = {name: inspect.signature(generate_figure).parameters[name].default
                for name in ("p_in_values", "mu_values")}
    ds = generate_figure(figure_id)
    assert [repr(row) for row in ds.rows] == [repr(_point_row(figure_id, default_scenario(), row[0], ds.metadata,
                                                              **defaults)) for row in ds.rows]


@pytest.mark.parametrize("figure_id", CHAIN_FIGURES)
@settings(max_examples=20, deadline=None)
@given(geometry=st.one_of(NEAR_REFERENCE, GEOMETRIES), clamp=st.booleans(), p_in=SWEEP_VALUES["p_in"], data=st.data(),
       p_in_values=st.lists(SWEEP_VALUES["p_in"], min_size=1, max_size=3),
       mu_values=st.lists(SWEEP_VALUES["mu"], min_size=1, max_size=3))
def test_chain_figure_rows_are_operating_points(figure_id, geometry, clamp, p_in, data, p_in_values, mu_values):
    # A few rows of each chain figure, over the scenario ranges and series values, equal operating_point's
    # cells by repr.  fig6 alone reads the cavity: its omega3 raises at the first unstable grid point of the
    # first layout that has one, where operating_point gives NaN.
    s = replace(default_scenario(), geometry=geometry, pump_input_power=p_in,
                model_choices=ModelChoices(clamp_negative_power=clamp))
    try:
        ds = generate_figure(figure_id, s, p_in_values=p_in_values, mu_values=mu_values)
    except UnstableCavityError as exc:
        assert figure_id == "fig6"
        _, _, lo, hi, samples = _FIGURES[figure_id][0]
        products = [point["stability_product"] for system in ("bcrb", "original") for d in _grid(lo, hi, samples)
                    for point in [operating_point(s, system, d=d)] if not point["stable"]]
        assert str(exc) == f"round trip unstable: a*d = {products[0]!r} outside (0, 1)"
        return
    for i in sorted(set(data.draw(st.lists(st.integers(0, ds.n_rows - 1), min_size=1, max_size=3)))):
        row = ds.rows[i]
        assert repr(row) == repr(_point_row(figure_id, s, row[0], ds.metadata, p_in_values, mu_values))


def _scanned_max_spot(g, d_lo, d_hi, samples):
    """max_spot_over_range as it was before it skipped samples: omega3 at every sample."""
    _require_cap("d_lo", d_lo)
    if d_hi < d_lo:
        raise ValueError(f"need d_lo <= d_hi, got [{d_lo!r}, {d_hi!r}]")
    _require_cap("d_hi", d_hi)
    prefix, offset = round_trip_prefix(g, "bcrb")
    band = next(((lo, hi) for lo, hi in _distance_bands(prefix, offset, g.rho2, d_hi) if lo <= d_lo <= hi), None)
    if band is None or band[1] < d_hi:
        first_unstable = d_lo if band is None else band[1]
        raise UnstableCavityError(f"cavity unstable at d = {first_unstable:g} m inside [{d_lo:g}, {d_hi:g}] m")
    best = -math.inf
    for d in _grid(d_lo, d_hi, samples):
        try:
            omega3 = _spots(_close(prefix, offset + d, g.rho2), g)[2]
        except UnstableCavityError as exc:
            raise UnstableCavityError(f"cavity unstable at d = {d:g} m inside [{d_lo:g}, {d_hi:g}] m") from exc
        if omega3 > best:
            best = omega3
    return best


def _outcome(search, *args):
    try:
        return repr(search(*args))
    except (BeamSimError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


class _Draws:
    """Stands in for st.data() in an explicit example: each draw returns the next given value."""

    def __init__(self, *values):
        self.values = list(values)

    def draw(self, strategy):
        return self.values.pop(0)


@settings(max_examples=300, deadline=None)
@given(geometry=GEOMETRIES, data=st.data(), samples=st.integers(2, 2001))
# At the lower edge of the first band, A*D is 1 - 1 ulp: the sampled omega3 is rounding, not convex.
@example(geometry=CavityGeometry(rho1=1.0, rho2=1.0, f_gain=1.0, f1=0.03125, magnification=0.5, L1=0.0, L2=0.03125,
                                 d=1.0, wavelength=1.4541578503562296e-06),
         data=_Draws(True, 0.0, 1.0, 16), samples=5)
def test_max_spot_matches_scan_of_every_sample(geometry, data, samples):
    # Half the ranges are drawn inside the first stable band, down to a few ulps
    # wide, where rounding decides which sample is largest.
    bands = stability_bands(geometry, 20.0)
    if bands and data.draw(st.booleans()):
        lo, hi = bands[0]
        d_lo = lo + (hi - lo) * data.draw(st.floats(0.0, 1.0))
        width = (hi - d_lo) * data.draw(st.floats(0.0, 1.0)) * 10.0 ** -data.draw(st.integers(0, 16))
        d_lo, d_hi = min(d_lo, hi), min(d_lo + width, hi)
    else:
        d_lo, d_hi = sorted(data.draw(st.lists(st.floats(1e-3, 20.0), min_size=2, max_size=2)))
    assert (_outcome(max_spot_over_range, geometry, d_lo, d_hi, samples) ==
            _outcome(_scanned_max_spot, geometry, d_lo, d_hi, samples))


CELLS = st.one_of(
    st.floats(), st.floats(-1e-300, 1e-300), st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324]),
    st.floats(min_value=-sys.float_info.min, max_value=sys.float_info.min), st.booleans(),
    st.integers(-10**12, 10**12))


def _per_cell_csv(ds, metadata_lines=()):
    # The CSV of ds with every cell of every row formatted on its own.
    cells = [column if type(column) is list else [column] * ds.n_rows for column in ds.cells]
    rows = zip(*cells) if cells else [()] * ds.n_rows
    return "\n".join([*metadata_lines, ",".join(ds.columns)] + [",".join(f"{c:.9g}" for c in row) for row in rows]) + "\n"


def _dataset(columns, n_rows):
    return FigureDataset("t", tuple(f"c{k}" for k in range(len(columns))), tuple(columns), n_rows, {})


@settings(max_examples=300, deadline=None)
@given(width=st.integers(0, 6), data=st.data())
def test_csv_rows_match_per_cell_format(width, data):
    rows = data.draw(st.lists(st.tuples(*[CELLS] * width), max_size=8))
    columns = [[row[k] for row in rows] for k in range(width)]
    ds = FigureDataset("t", tuple(f"c{k}" for k in range(width)), tuple(columns), len(rows), {"k": 1.5})
    assert format_dataset_csv(ds) == _per_cell_csv(ds, ["# k = 1.5"])


@st.composite
def constant_columns(draw):
    """Columns of one length, most of them constant or nearly so: lists of cells, or one value for every row."""
    n = draw(st.integers(0, 50))
    column = st.one_of(
        CELLS.map(lambda cell: [cell] * n),                                      # one value repeated
        CELLS,                                                                   # one value, held once
        st.lists(st.sampled_from([0.0, -0.0, 0, False]), min_size=n, max_size=n),  # equal, but 0 and -0
        st.lists(st.sampled_from([True, 1, 1.0]), min_size=n, max_size=n),       # equal, all print 1
        st.just([math.nan] * n),                                                 # one NaN object
        st.builds(lambda: [float("nan") for _ in range(n)]),                     # distinct NaN objects
        st.lists(CELLS, min_size=n, max_size=n))
    return draw(st.lists(column, min_size=1, max_size=6)), n


@settings(max_examples=300, deadline=None)
@given(columns=constant_columns())
@example(columns=([[2.5] * 3, [1.0, 2.0, 3.0]], 3))                              # constant first column
@example(columns=([[1.0, 2.0, 3.0], [-7.25e-300] * 3], 3))                       # constant last column
@example(columns=([[4.0] * 3, [-0.0] * 3, [True] * 3, [math.inf] * 3], 3))       # every column constant
@example(columns=([4.0, -0.0, True, math.nan], 3))                               # every column one value
@example(columns=([[0.0, -0.0, 0.0], [-0.0, 0, -0.0], [False, 0.0, -0.0]], 3))   # equal zeros, two signs
@example(columns=([[True, 1, 1.0], [1.0, True, 1]], 3))                          # True, 1 and 1.0 print 1
@example(columns=([[1.0, 2.0, 1.0], [0.5, -0.5, 0.5]], 3))                       # equal ends, another middle
@example(columns=([[math.nan] * 3, [float("nan"), float("nan"), float("nan")]], 3))  # one NaN, distinct NaNs
@example(columns=([[], []], 0))                                                  # no rows
@example(columns=([2.5, []], 0))                                                 # no rows, one value
@example(columns=([[5e-324]], 1))                                                # one row
@example(columns=([[0.1] * 50, list(range(50))], 50))                           # 50 rows
def test_csv_constant_columns_match_per_cell_format(columns):
    # A column whose every cell prints the same text is formatted once per block;
    # the bytes must still be those of formatting each cell.
    ds = _dataset(*columns)
    assert format_dataset_csv(ds) == _per_cell_csv(ds)


@st.composite
def block_columns(draw):
    """Columns of more than one block of rows, as runs of cells whose bounds often fall at a block edge.

    A run is one object repeated, zeros of both signs, a mix of True, 1 and
    1.0, one NaN object, distinct NaN objects, or free cells.
    """
    n = draw(st.integers(_BLOCK + 1, 3 * _BLOCK))
    edges = [k * _BLOCK + shift for k in range(1, (n - 1) // _BLOCK + 1) for shift in (-1, 0, 1)]
    rnd = draw(st.randoms(use_true_random=False))
    runs = {
        "one": lambda m: [draw(CELLS)] * m,
        "zeros": lambda m: [rnd.choice([0.0, -0.0, 0, False]) for _ in range(m)],
        "ones": lambda m: [rnd.choice([True, 1, 1.0]) for _ in range(m)],
        "nan": lambda m: [math.nan] * m,
        "nans": lambda m: [float("nan") for _ in range(m)],
        "free": lambda m: [rnd.choice([0.5, -2.0, 1e300, 5e-324, math.inf, -0.0]) for _ in range(m)],
    }

    def column():
        if draw(st.booleans()) and draw(st.booleans()):
            return draw(CELLS)  # one value for every row
        cuts = draw(st.lists(st.one_of(st.sampled_from(edges), st.integers(1, n - 1)), max_size=6))
        bounds = [0, *sorted(set(cuts)), n]
        return [cell for lo, hi in zip(bounds, bounds[1:]) for cell in runs[draw(st.sampled_from(sorted(runs)))](hi - lo)]
    return [column() for _ in range(draw(st.integers(1, 4)))], n


def _fixed_block_columns():
    # One case with every property at once, over two full blocks and part of a third.
    n, b = 2 * _BLOCK + 7, _BLOCK
    zeros = [0.0] * n
    zeros[3] = -0.0                    # two signs in one block
    zeros[b + 5:2 * b] = [-0.0] * (b - 5)  # and across blocks: block 2 mixes, block 3 is all 0.0
    distinct = [math.nan] * b + [float("nan") for _ in range(n - b)]  # one NaN object, then distinct ones
    ones = [True] * b + [1] * (b // 2) + [1.0] * (n - b - b // 2)  # 1 and 1.0 mixed in block 2
    runs = [7.5] * b + [float(k) for k in range(n - b)]   # a run that ends at the first block edge
    late = [float(k) for k in range(b)] + [-0.0] * (n - b)  # a run that starts at it
    return [zeros, distinct, ones, runs, late, 2.5], n


@settings(max_examples=40, deadline=None)
@given(columns=block_columns())
@example(columns=_fixed_block_columns())
def test_csv_across_block_edges_matches_per_cell_format(columns):
    ds = _dataset(*columns)
    assert format_dataset_csv(ds) == _per_cell_csv(ds)


def _closed(prefix, gap, rho2):
    """_close as the element product it stands for: the gap, then mirror 2, after the prefix."""
    return _product(_focus(_MIRROR, rho2), _product(_shift(gap), prefix))


def _hex_outcome(close, *args):
    try:
        m = close(*args)
    except (BeamSimError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return [x.hex() for x in m]


# Prefix entries that are signed zeros, or not finite, as no validated layout gives.
ODD_ENTRIES = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])


@pytest.mark.parametrize("system", ["bcrb", "original"])
@settings(max_examples=300, deadline=None)
@given(geometry=GEOMETRIES, gap=st.one_of(st.just(0.0), st.floats(0.0, 100.0)), sign=st.sampled_from([1.0, -1.0]),
       rho2=st.one_of(signed(0.3, 50.0), signed(50.0, 1e10)),
       bad_rho2=st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
       bad_gap=st.sampled_from([math.inf, -math.inf, math.nan]),
       entries=st.lists(st.one_of(ODD_ENTRIES, st.floats(-2.0, 2.0)), min_size=4, max_size=4))
def test_close_round_trip_is_mirror_after_gap_after_prefix(system, geometry, gap, sign, rho2, bad_rho2, bad_gap,
                                                          entries):
    # Bit for bit, signed zeros included, and the same error, rho2 checked
    # first: on the layout's prefix, and on any prefix at a gap of either sign.
    prefix, _ = round_trip_prefix(geometry, system)
    for x, x_gap in ((prefix, gap), (tuple(entries), sign * gap)):
        for args in ((x, x_gap, rho2), (x, x_gap, bad_rho2), (x, bad_gap, rho2), (x, bad_gap, bad_rho2)):
            assert _hex_outcome(_close, *args) == _hex_outcome(_closed, *args)


def _reference_elements(g, system):
    """The entries of a layout's elements before the gap, written out per layout, and the gap's offset."""
    def focus(f):
        return 1.0, 0.0, -1.0 / f, 1.0

    def shift(x):
        return 1.0, x, 0.0, 1.0
    head = [focus(g.rho1), shift(g.L1), focus(g.f_gain)]
    if system == "original":
        return head, g.L2
    m = g.magnification
    return head + [shift(g.L2), shift(g.f1), (m, 0.0, 0.0, 1.0 / m), shift(-(g.f1 * m))], 0.0


def _reference_fold(entries):
    """The product of 2x2 entry tuples given in propagation order: each next one multiplies from the left."""
    a, b, c, d = entries[0]
    for ea, eb, ec, ed in entries[1:]:
        a, b, c, d = ea * a + eb * c, ea * b + eb * d, ec * a + ed * c, ec * b + ed * d
    return a, b, c, d


@pytest.mark.parametrize("system", ["bcrb", "original"])
@settings(max_examples=300, deadline=None)
@given(geometry=GEOMETRIES)
def test_prefix_and_round_trip_are_the_reference_fold(system, geometry):
    # Bit for bit, signed zeros included: the prefix is the elements' fold, and the round trip that fold
    # continued by the gap (offset + d) and mirror 2.
    elements, offset = _reference_elements(geometry, system)
    x, x_offset = round_trip_prefix(geometry, system)
    closing = [(1.0, offset + geometry.d, 0.0, 1.0), (1.0, 0.0, -1.0 / geometry.rho2, 1.0)]
    assert [v.hex() for v in (*x, x_offset)] == [v.hex() for v in (*_reference_fold(elements), offset)]
    assert [v.hex() for v in round_trip(geometry, system)] == [v.hex() for v in _reference_fold(elements + closing)]


# |value + slope*d - entry| of each _affine pair against the entry of _close at
# d, relative to the sum of the magnitudes of the entry's terms: |m.a| +
# (|offset| + d)*|m.c| for A, that of A over |rho2| plus |m.c| for C, and the
# same with m.b and m.d for B and D.  The largest seen over 20,000 draws was
# about 1.9 ulps of 1.
AFFINE_REL_TOL = 4.0 * sys.float_info.epsilon


@pytest.mark.parametrize("system", ["bcrb", "original"])
@settings(max_examples=300, deadline=None)
@given(geometry=GEOMETRIES, d=st.floats(0.0, 60.0))
def test_affine_pairs_match_close(system, geometry, d):
    x, offset = round_trip_prefix(geometry, system)
    pairs, entries = _affine(x, offset, geometry.rho2), _close(x, offset + d, geometry.rho2)
    scale_a, scale_b = (abs(x[k]) + (abs(offset) + d) * abs(x[k + 2]) for k in (0, 1))
    scales = (scale_a, scale_b, abs(x[2]) + scale_a / abs(geometry.rho2), abs(x[3]) + scale_b / abs(geometry.rho2))
    for (value, slope), entry, scale in zip(pairs, entries, scales):
        assert abs(value + slope * d - entry) <= AFFINE_REL_TOL * scale, (value, slope, entry)
    if system == "bcrb":
        # With offset 0, A and B are _close's own sums, bit for bit.
        assert [(value + slope * d).hex() for value, slope in pairs[:2]] == [entry.hex() for entry in entries[:2]]


UNIT_ROUNDOFF = sys.float_info.epsilon / 2


def _gamma(n: int) -> float:
    # gamma_n = n u / (1 - n u), which bounds the relative error of n roundings (Higham 2002, Lemma 3.1).
    return n * UNIT_ROUNDOFF / (1.0 - n * UNIT_ROUNDOFF)


def _det_error_bound(geometry, system: str, m) -> float:
    """A bound on |det(m) - 1| for m, the float round trip of geometry.

    The round trip is the left fold of its k element matrices E_i, each step a
    2x2 product.  So |m - E_k...E_1| <= gamma_{2(k-1)} P entrywise, with
    P = |E_k|...|E_1| (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., 2002, section 3.5).  That moves a*d - b*c by at most
    gamma (P_a|d| + |a|P_d + P_b|c| + |b|P_c) + gamma^2 (P_a P_d + P_b P_c);
    computing it rounds twice more, gamma_2 (|ad| + |bc|).  Each element has
    determinant 1, except the magnifier's m * fl(1/m), which is within u of 1.
    """
    elements, (reads, offset) = _layout(system)
    entries = [build(*[getattr(geometry, name) for name in fields]) for fields, build in elements]
    entries += [_shift(offset(*[getattr(geometry, name) for name in reads]) + geometry.d),
                _focus(_MIRROR, geometry.rho2)]
    pa, pb, pc, pd = reduce(lambda p, e: _product(e, p), [tuple(map(abs, e)) for e in entries])
    gamma = _gamma(2 * (len(entries) - 1))
    return (gamma * (pa * abs(m.d) + abs(m.a) * pd + pb * abs(m.c) + abs(m.b) * pc)
            + gamma * gamma * (pa * pd + pb * pc) + _gamma(2) * (abs(m.a * m.d) + abs(m.b * m.c)) + UNIT_ROUNDOFF)


# Here det - 1 = -1.029e-13 exceeds 1e-13 * (|ad| + |bc|), so a scale read from the final entries does not bound
# the rounding: C = -4.2e-4 is the cancelled sum of terms of size ~20.  The bound here is 2.4e-12.
CANCELLED_C = CavityGeometry(rho1=36.44851898993665, rho2=16.407046330139465, f_gain=0.2, f1=0.035113639013539893,
                             magnification=0.5, L1=0.0, L2=0.23127584313762306, d=16.407046330139465)


@pytest.mark.parametrize("system", ["bcrb", "original"])
@settings(max_examples=300, deadline=None)
@given(geometry=GEOMETRIES)
@example(geometry=CANCELLED_C)
def test_round_trip_is_unimodular(system, geometry):
    m = round_trip(geometry, system)
    assert abs(m.det() - 1.0) <= _det_error_bound(geometry, system, m)


def test_det_error_bound_rejects_a_perturbed_entry():
    # One part in 1e9 of C moves det by |b*c| * 1e-9 = 1.4e-11 at this geometry, over five times the bound.
    m = round_trip(CANCELLED_C, "bcrb")
    perturbed = m._replace(c=m.c * (1.0 + 1e-9))
    assert abs(perturbed.det() - 1.0) > _det_error_bound(CANCELLED_C, "bcrb", perturbed)


@settings(max_examples=300, deadline=None)
@given(geometry=GEOMETRIES, rho2_hi=st.floats(0.3, 100.0))
@example(geometry=CavityGeometry(d=10.0), rho2_hi=80.0)  # a fig9 cell
def test_required_rho2_is_the_d_zero_law_where_that_edge_binds(geometry, rho2_hi):
    """Where the D = 0 edge binds, required_rho2(g, d, rho2_hi) is d + c, with c = x.b / x.d of the bcrb prefix x.

    The search's edge is the root fl(fl(x.b + fl(d * x.d)) / x.d), within gamma_3 (|c| + d) of the exact
    d + c; the law fl(d + fl(c)) is within gamma_2 (|c| + d) of it.  The search walks up from its root to
    the first point is_stable accepts.  There D = fl(x.d + fl(fl(-1/rho2) * B)), with the root's B, has
    the sign of the exact D once rho2 is (2u + O(u^2)) relative past the root, which the walk's steps of
    1, 2 and 4 ulps pass within 7 ulps.  So the two differ by at most gamma_6 (|c| + d) + 7 ulps of the
    result, gamma_6 covering the rounding of c too: 10 ulps of the law when c > 0.  The D = 0 edge binds
    where it is the greatest root in (0, rho2_hi), each of which _bands keeps as an edge, at or below the
    result: the edge the result was walked from.
    """
    x, _ = round_trip_prefix(geometry, "bcrb")
    d = geometry.d
    (a, _), (b, b_slope), _, _ = _affine(x, d, rho2_hi)
    d_zero, ad_one = _roots(0.0, b_slope, -b), _roots(0.0, a * b_slope - 1.0, -a * b)
    try:
        result = required_rho2(geometry, d, rho2_hi)
    except InfeasibleSearchError:
        assume(False)
    kept = [root for root in d_zero + ad_one if 0.0 < root < rho2_hi]
    assume(d_zero and max([0.0] + [root for root in kept if root <= result]) == d_zero[0])
    c = x.b / x.d
    assert abs(result - (d + c)) <= _gamma(6) * (abs(c) + d) + 7.0 * math.ulp(result)


@settings(max_examples=300, deadline=None)
@given(geometry=GEOMETRIES)
@example(geometry=CavityGeometry())
def test_c_is_its_formula_in_the_geometry_fields(geometry):
    """c = x.b / x.d of the bcrb prefix x is M^2 (L2 + f1 + L1 f_gain / (f_gain - L1)) - M f1: no rho1 in it.

    x maps a ray leaving mirror 1's vertex to the telescope's output, so the image of mirror 1 lies c
    behind that output, and D = 0 (rho2 = d + c) puts mirror 2's centre of curvature on it.  The second
    column (b, d) is the fold of the elements after mirror 1 on (0, 1): (L1, 1 - L1/f_gain), then
    (L1 + (L2 + f1)(1 - L1/f_gain), 1 - L1/f_gain), then M times and 1/M times these, then b less f1 M d.
    The bound: the formula rounds each of its two terms at most seven times, over values of one sign
    until the last subtraction, so it is within gamma_7 (M^2 s + M f1) of c, gamma_8 with s its computed
    sum.  The prefix's six 2x2 products give gamma_12 P and its rounded element entries (-1/f_gain, 1/M
    and f1 M) gamma_3 P, with P = |E_7|...|E_1| (Higham 2002, section 3.5); gamma_16 P in all, with P
    computed, is E_b on b and E_d on d.  Then |fl(b/d) - c| <= u |b/d| + (E_b + |b/d| E_d) / (|d| - E_d).
    """
    x, _ = round_trip_prefix(geometry, "bcrb")
    elements, _ = _layout("bcrb")
    entries = [build(*[getattr(geometry, name) for name in reads]) for reads, build in elements]
    _, pb, _, pd = reduce(lambda p, e: _product(e, p), [tuple(map(abs, e)) for e in entries])
    error_b, error_d = _gamma(16) * pb, _gamma(16) * pd
    assert abs(x.d) > error_d
    c, m = x.b / x.d, geometry.magnification
    s = geometry.L2 + geometry.f1 + geometry.L1 * geometry.f_gain / (geometry.f_gain - geometry.L1)
    ratio = abs(c) / (1.0 - UNIT_ROUNDOFF)
    bound = (_gamma(8) * (m * m * s + m * geometry.f1) + UNIT_ROUNDOFF * ratio
             + (error_b + ratio * error_d) / (abs(x.d) - error_d))
    assert abs(m * m * s - m * geometry.f1 - c) <= bound


# Its bcrb prefix is the identity, so the A*D = 1 root in rho2 lies at infinity, and R = 0.5000000000000001 m at
# d = 0.5 m.  Yet the float D = 1 - 0.5/rho2 rounds to 1 once rho2 passes ~9e15 m: an interval (R, cap] judged at
# its middle read unstable for every cap from 2**54 m up.
IDENTITY_PREFIX = CavityGeometry(rho1=-1.0, rho2=-1.0, f_gain=1.0, f1=0.03125, magnification=1.0, L1=0.0, L2=0.0,
                                 d=0.5)


class _LargestCap:
    # Stands in for st.data() in an explicit example: every cap drawn is the largest float.
    @staticmethod
    def draw(strategy, label=None):
        return sys.float_info.max


@pytest.mark.parametrize("system", ["bcrb", "original"])
@settings(max_examples=150, deadline=None)
@given(geometry=GEOMETRIES, data=st.data())
@example(geometry=IDENTITY_PREFIX, data=_LargestCap())
def test_a_larger_cap_keeps_the_first_edge(system, geometry, data):
    # E, the upper edge of the first band under a 100 m cap, and R, the least stabilizing rho2 (bcrb only),
    # are roots: found well below that cap, each comes back at every cap from 1.5 times it to the largest float.
    searches = {"E": lambda cap: max_stable_distance(geometry, cap, system=system)}
    if system == "bcrb":
        searches["R"] = lambda cap: required_rho2(geometry, geometry.d, cap)
    for name, search in searches.items():
        try:
            found = search(100.0)
        except (NoStableRegionError, InfeasibleSearchError):
            continue
        if found < 66.0:
            cap = data.draw(st.floats(1.5 * found, sys.float_info.max), label=f"cap above {name}")
            assert search(cap) == found


# Entrywise error of the closed form times the entry's partner in the
# determinant (A with D, B with C), relative to |A*D| + |B*C|: the largest
# seen over 20,000 draws was about 260 ulps (5.8e-14).
CLOSED_FORM_REL_TOL = 1e-12


@settings(max_examples=300, deadline=None)
@given(geometry=GEOMETRIES)
def test_closed_form_matches_composed_round_trip(geometry):
    m = round_trip_bcrb(geometry)
    try:
        c = round_trip_closed_form(geometry)
    except SingularConfigurationError:
        assume(False)
    scale = CLOSED_FORM_REL_TOL * (abs(m.a * m.d) + abs(m.b * m.c))
    assert abs(c.a - m.a) * abs(m.d) <= scale
    assert abs(c.d - m.d) * abs(m.a) <= scale
    assert abs(c.b - m.b) * abs(m.c) <= scale
    assert abs(c.c - m.c) * abs(m.b) <= scale
    assert abs(c.b - m.b) <= CLOSED_FORM_REL_TOL * abs(m.b)


@pytest.mark.parametrize("system", ["bcrb", "original"])
@settings(max_examples=300, deadline=None)
@given(geometry=GEOMETRIES, loss_scale=st.floats(0.1, 30.0), step=st.floats(1e-6, 10.0))
def test_aperture_loss_rises_with_distance_and_falls_with_aperture(system, geometry, loss_scale, step):
    # Strict wherever the larger value is a normal float; exp() underflows to 0 far below it.
    d, b, wavelength = geometry.d, effective_aperture(geometry, system), geometry.wavelength
    near, far = (transmission_loss(x, b, wavelength, loss_scale) for x in (d, d * (1.0 + step)))
    assert near <= far and (near < far or far < sys.float_info.min)
    wide, narrow = (transmission_loss(d, x, wavelength, loss_scale) for x in (b * (1.0 + step), b))
    assert wide <= narrow and (wide < narrow or narrow < sys.float_info.min)
