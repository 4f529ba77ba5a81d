"""Model chain, boundary searches, loss-model calibration, and figure datasets.

The link model is written once and every caller reads it from here.  A point
is the cavity part (one round trip, its stability and spot radii, from
gaussian_beam._cavity) plus the chain from plain floats: the power branch
(aperture loss -> beam power -> floor at 0 -> PV output), then the data branch
(APD signal -> shot/thermal noise -> spectral efficiency).  operating_point
evaluates one point and run_sweep the same program over a grid; the
power-only figures and the CLI `power` command stop the chain after the power
branch, because the data branch needs a positive total noise, which a dark,
cold receiver lacks at zero signal.

Stability bands are exact: the round trip's entries are affine in d
(ray_matrix._affine), so band edges are roots found in closed form.
Every search builds the round-trip prefix once and tests a point by closing
it; _bands decides each interval and walks each edge to a point is_stable
accepts.  Disconnected bands are reported, not merged.
The aperture-loss scale factor N is pinned by inverting the beam-power model
at a reference measurement of the telescope-free system (5 W external beam at
3 m with 210 W pump input).

generate_figure() produces the built-in studies fig6..fig13 as plain,
deterministic datasets held by column; identical inputs give bit-identical
datasets.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields, replace
from functools import cache, partial
from itertools import repeat
from typing import Callable, Optional, Sequence

from .comms import _data_signal, _shot_noise, _spectral_efficiency, thermal_noise
from .errors import InfeasibleSearchError, NoStableRegionError, UnstableCavityError, _column, _reject, _rows
from .gaussian_beam import _cavity, _spots
from .link_budget import (LinkBudgetParams, _beam_power, _pv_output, _transmission_loss, effective_aperture,
                          transmission_loss)
from .ray_matrix import (CavityGeometry, TransferMatrix, _affine, _close, _layout, _require_mirror_radius,
                         _round_trip_over, _stable, is_stable, round_trip, round_trip_prefix)
from .scenario import Scenario, default_scenario, scenario_to_dict

# Reference measurement pinning the loss scale: the telescope-free system
# delivers 5 W external beam power at 3 m for 210 W pump input.
ANCHOR_DISTANCE = 3.0       # m
ANCHOR_BEAM_POWER = 5.0     # W
ANCHOR_INPUT_POWER = 210.0  # W


def _require_samples(samples: int) -> None:
    # samples counts grid points: an integer (anything with __index__) of at least 2.
    try:
        operator.index(samples)
    except TypeError:
        raise ValueError(f"samples must be an integer, got {samples!r}") from None
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples!r}")


@dataclass(frozen=True)
class SweepSpec:
    """One-dimensional sweep request; the scenario supplies all fixed values."""

    variable: str
    lo: float
    hi: float
    samples: int
    system: str = "bcrb"

    def __post_init__(self):
        if not math.isfinite(self.hi - self.lo):
            raise ValueError(f"sweep range must be finite, got [{self.lo!r}, {self.hi!r}]")
        if not self.lo < self.hi:
            raise ValueError(f"sweep range must satisfy lo < hi, got [{self.lo!r}, {self.hi!r}]")
        _require_samples(self.samples)
        _layout(self.system)


@dataclass(frozen=True)
class FigureDataset:
    """Figure or sweep result held by column, with a reproducibility metadata snapshot.

    rows and column(name) are read-only views, built from the cells when read.
    """

    figure_id: str
    columns: tuple[str, ...]        # header names with units in brackets
    cells: tuple                    # one column per header (errors.py): a list of n_rows cells, or one value
    n_rows: int
    metadata: dict

    def __post_init__(self):
        if operator.index(self.n_rows) < 0:
            raise ValueError(f"row count {self.n_rows!r} is negative")
        if len(self.cells) != len(self.columns):
            raise ValueError(f"{len(self.cells)} cell columns != column count {len(self.columns)}")
        for name, cells in zip(self.columns, self.cells):
            if type(cells) is list and len(cells) != self.n_rows:
                raise ValueError(f"column {name!r} has {len(cells)} cells for {self.n_rows} rows")

    @property
    def rows(self) -> tuple[tuple[float, ...], ...]:
        if not self.cells:
            return ((),) * self.n_rows
        return tuple(zip(*[cells if type(cells) is list else repeat(cells, self.n_rows) for cells in self.cells]))

    def column(self, name: str) -> list[float]:
        cells = self.cells[self.columns.index(name)]
        return list(cells) if type(cells) is list else [cells] * self.n_rows


def _grid(lo: float, hi: float, n: int, indices: Optional[Sequence[int]] = None) -> list[float]:
    """n >= 2 evenly spaced points from lo to hi, the same bits as numpy.linspace(lo, hi, n).

    With indices, which must be sorted, only the points at those indices.
    """
    lo, hi = float(lo), float(hi)
    step = (hi - lo) / (n - 1)
    indices = range(n) if indices is None else indices
    if step == 0.0:
        points = [i / (n - 1) * (hi - lo) + lo for i in indices]
    else:
        points = [i * step + lo for i in indices]
    if indices and indices[-1] == n - 1:
        points[-1] = hi
    return points


def _stable_at(g: CavityGeometry, d: float, system: str = "bcrb") -> bool:
    # Reference predicate for tests: the full round trip of a validated geometry at d.
    return is_stable(round_trip(replace(g, d=d), system))


def _roots(a: float, b: float, c: float) -> list[float]:
    """Real roots of a*x^2 + b*x + c by the cancellation-free quadratic formula.

    A zero leading coefficient leaves the linear root (none when b is 0 too);
    a double root comes back twice.
    """
    if a == 0.0:
        return [-c / b] if b != 0.0 else []
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    return [q / a, c / q] if q != 0.0 else [0.0, 0.0]


def _bands(roots: Sequence[float], hi: float,
           stable: Callable[[float], bool]) -> list[tuple[float, float]]:
    """Stable bands of (0, hi] between consecutive roots, as (lowest, highest) stable points.

    An interval is kept when stable() holds at its midpoint; roots within 16
    ulps of 0 or hi are rounding, not edges.  Stable neighbours are joined:
    only a tangent root, a point no float resolves, separates them.  Each
    kept edge is walked toward the middle of its band (one ulp, then
    doubling steps) to the first point > 0 at which stable() holds.
    """
    margin = 16.0 * math.ulp(hi)
    edges = [0.0] + sorted(r for r in roots if margin < r < hi - margin) + [hi]
    bands: list[tuple[float, float]] = []
    for lo, up in zip(edges, edges[1:]):
        if lo < up and stable(0.5 * (lo + up)):
            if bands and bands[-1][1] == lo:
                lo = bands.pop()[0]
            bands.append((lo, up))

    def inward(x: float, toward: float) -> float:
        step = 0.0
        while x != toward and (x <= 0.0 or not stable(x)):
            step = max(2.0 * step, abs(math.nextafter(x, toward) - x))
            x = min(x + step, toward) if toward > x else max(x - step, toward)
        return x
    return [(inward(lo, 0.5 * (lo + up)), inward(up, 0.5 * (lo + up))) for lo, up in bands]


def _require_cap(name: str, value: float) -> None:
    _reject(ValueError, (name, value, "> 0"))


def _distance_bands(x: TransferMatrix, offset: float, rho2: float, d_hi: float) -> list[tuple[float, float]]:
    # Bands of d for the round trip with the entries _close(x, offset + d, rho2).  A point is tested
    # as is_stable tests it, on the entries a and d ([::3]) of _close, with no matrix built.
    (a0, a1), _, _, (d0, d1) = _affine(x, offset, rho2)
    roots = _roots(0.0, a1, a0) + _roots(0.0, d1, d0) + _roots(a1 * d1, a0 * d1 + a1 * d0, a0 * d0 - 1.0)
    return _bands(roots, d_hi, lambda d: _stable(*_close(x, offset + d, rho2)[::3]))


def stability_bands(g: CavityGeometry, d_hi: float, system: str = "bcrb") -> list[tuple[float, float]]:
    """Exact stable intervals of d in (0, d_hi], as (lowest, highest) stable distance per band.

    A and D are affine in d (ray_matrix._affine), so the band edges are the
    roots of A = 0, D = 0 and A*D = 1 (Kogelnik & Li, Appl. Opt. 5, 1550,
    1966), each moved inward until is_stable holds; a band open at d = 0
    starts at 5e-324.  With (x, offset) = round_trip_prefix(g, system), D = x.d - B/rho2
    and B = x.b + (offset + d)*x.d, so the D = 0 edge is d = rho2 - offset - x.b/x.d;
    for the reference design it is the upper edge, d_max = rho2 - c(M) with c = x.b/x.d.
    """
    _require_cap("d_hi", d_hi)
    return _distance_bands(*round_trip_prefix(g, system), g.rho2, d_hi)


def _first_band(bands: list[tuple[float, float]], d_hi: float) -> tuple[float, float]:
    """The lowest of the stability bands in (0, d_hi]; more than one is reported with a warning."""
    if not bands:
        raise NoStableRegionError(f"no stable distance found in (0, {d_hi}] m")
    if len(bands) > 1:
        import logging  # only here: a single band never loads it
        logging.getLogger(__name__).warning(
            "found %d stability bands in (0, %g] m; returning the upper edge of the first", len(bands), d_hi)
    return bands[0]


def max_stable_distance(g: CavityGeometry, d_hi: float, *, tol: float = 1e-3, system: str = "bcrb") -> float:
    """Upper edge of the first band of stability_bands; more than one band is reported with a warning.

    tol is validated but not used: the edge is exact to rounding.
    """
    _require_cap("tol", tol)
    return _first_band(stability_bands(g, d_hi, system), d_hi)[1]


def required_rho2(g: CavityGeometry, d: float, rho2_hi: float) -> float:
    """Smallest receiver-mirror curvature radius in (0, rho2_hi] that stabilizes distance d.

    At fixed d, A and B do not read rho2 and fix D (ray_matrix._affine), so
    with B' the slope of B in d the edges are rho2 = B/B' (D = 0) and
    A*B/(A*B' - 1) (A*D = 1).  The result is the lower edge of the first
    band, a point is_stable accepts, exact to rounding.  With x the d-free prefix,
    B/B' = d + x.b/x.d; for the reference design that D = 0 edge binds: d + c(M).
    """
    _require_cap("rho2_hi", rho2_hi)
    return _required_rho2(round_trip_prefix(replace(g, d=d), "bcrb")[0], d, rho2_hi)


def _required_rho2(x: TransferMatrix, d: float, rho2_hi: float) -> float:
    # required_rho2 from the round trip's prefix x, which does not read d or rho2.
    (a, _), (b, b_slope), _, _ = _affine(x, d, rho2_hi)  # A and B read no rho2
    bands = _bands(_roots(0.0, b_slope, -b) + _roots(0.0, a * b_slope - 1.0, -a * b), rho2_hi,
                   lambda rho2: _stable(*_close(x, d, rho2)[::3]))
    if not bands:
        raise InfeasibleSearchError(f"no rho2 in (0, {rho2_hi}] m stabilizes d = {d} m")
    return bands[0][0]


def _spot_range(d_lo: float, d_hi: float, samples: int) -> float:
    # The argument checks of max_spot_over_range, in its order; returns d_hi.
    _require_cap("d_lo", d_lo)
    if d_hi < d_lo:
        raise ValueError(f"need d_lo <= d_hi, got [{d_lo!r}, {d_hi!r}]")
    _require_cap("d_hi", d_hi)
    _require_samples(samples)
    return d_hi


_CONDITIONED = 1e-4  # least A*D and 1 - A*D at which max_spot_over_range trusts the omega3 shape


def max_spot_over_range(g: CavityGeometry, d_lo: float, d_hi: float, samples: int = 201) -> float:
    """Largest gain-module spot radius over samples evenly spaced distances in [d_lo, d_hi].

    The range must lie inside one stability band, else the error names the first
    unstable distance.  omega3^2 = u*G^2 + K^2/u is convex in u = omega1^2, and
    omega1^4 ~ -B*D/(A*C) with A, B, C, D affine in d, so omega3 peaks only next to
    the ends or a root of one quadratic.  Only those samples are evaluated, then the
    neighbours of any within 1e-9 of the best, so that rounding hides no larger one.
    That needs omega3 computed far within 1e-9 of the exact model.  The radicands
    divide by A*D and A*D - 1, each a few ulps of 1 off (the prefix's determinant is
    1 only to rounding): a relative error of ~1e-16 / min(A*D, 1 - A*D), 1e-12 at
    _CONDITIONED.  If an evaluated sample is nearer an edge, all are evaluated, in order.
    """
    _spot_range(d_lo, d_hi, samples)
    return _max_spot(g, *round_trip_prefix(g, "bcrb"), d_lo, d_hi, samples)


def _max_spot(g, x: TransferMatrix, offset: float, d_lo: float, d_hi: float, samples: int) -> float:
    # max_spot_over_range from the round trip's prefix x and gap offset; g gives rho2 and the spot's fields.
    band = next(((lo, hi) for lo, hi in _distance_bands(x, offset, g.rho2, d_hi) if lo <= d_lo <= hi), None)
    if band is None or band[1] < d_hi:
        first_unstable = d_lo if band is None else band[1]
        raise UnstableCavityError(f"cavity unstable at d = {first_unstable:g} m inside [{d_lo:g}, {d_hi:g}] m")
    # (B*D)' * (A*C) - (B*D) * (A*C)' from the entries' (value at d = 0, slope) pairs: the cubic terms cancel.
    (a0, a1), (b0, b1), (c0, c1), (e0, e1) = _affine(x, offset, g.rho2)
    p0, p1, p2 = b0 * e0, b0 * e1 + b1 * e0, b1 * e1
    q0, q1, q2 = a0 * c0, a0 * c1 + a1 * c0, a1 * c1
    picks = {0, samples - 1}
    for root in _roots(p2 * q1 - p1 * q2, 2.0 * (p2 * q0 - p0 * q2), p1 * q0 - p0 * q1):
        if d_lo < root < d_hi:
            i = int((root - d_lo) / (d_hi - d_lo) * (samples - 1))
            picks.update(range(max(i - 1, 0), min(i + 3, samples)))

    def omega3(d: float, entries: Optional[tuple] = None) -> float:
        try:
            return _spots(entries or _close(x, offset + d, g.rho2), g)[2]
        except UnstableCavityError as exc:
            raise UnstableCavityError(f"cavity unstable at d = {d:g} m inside [{d_lo:g}, {d_hi:g}] m") from exc
    spots, best = {}, -math.inf
    while picks:
        picks = sorted(picks)
        for i, d in zip(picks, _grid(d_lo, d_hi, samples, picks)):
            entries = _close(x, offset + d, g.rho2)
            if not _CONDITIONED < entries[0] * entries[3] < 1.0 - _CONDITIONED:
                return max(map(omega3, _grid(d_lo, d_hi, samples)))
            spots[i] = omega3(d, entries)
            best = max(best, spots[i])
        picks = {j for i in picks if spots[i] >= best * (1.0 - 1e-9)
                 for j in (i - 1, i + 1) if 0 <= j < samples} - spots.keys()
    return best


def calibrate_loss_scale(anchor_d: float, anchor_beam_power: float, p_in: float,
                         aperture: float, wavelength: float, p: LinkBudgetParams) -> float:
    """Loss scale N that reproduces a measured beam power at a known distance.

    Inverts the beam-power expression for the aperture loss delta_t* at the
    anchor, then divides out the geometric exponential.  An anchor power at or
    above the zero-loss value needs delta_t* <= 0 and is infeasible; so is an
    anchor whose exponential is too small for N to be a finite float.
    """
    _reject(ValueError, ("anchor distance", anchor_d, "> 0"), ("anchor beam power", anchor_beam_power, None),
            ("anchor input power", p_in, "> 0"), ("aperture", aperture, "> 0"), ("wavelength", wavelength, "> 0"))
    net = anchor_beam_power - p.intercept
    if net <= 0:
        raise InfeasibleSearchError(
            f"anchor beam power {anchor_beam_power!r} W is unreachable for intercept {p.intercept!r} W")
    r = p.reflectivity
    slope = 2.0 * (1.0 - r) * p.conversion_efficiency / (1.0 + r)
    delta_star = slope * p_in / net + math.log(r)
    if delta_star <= 0:
        raise InfeasibleSearchError(
            f"anchor requires aperture loss {delta_star:g} <= 0; beam power too high to calibrate against")
    exponential = transmission_loss(anchor_d, aperture, wavelength, 1.0)
    n = delta_star / exponential if exponential else math.inf
    if not math.isfinite(n):
        raise InfeasibleSearchError(
            f"loss scale N is not finite for anchor distance {anchor_d!r} m, aperture {aperture!r} m "
            f"and wavelength {wavelength!r} m")
    return n


def resolve_link_params(s: Scenario) -> LinkBudgetParams:
    """Link parameters with the loss scale resolved per the scenario's N_source."""
    if s.model_choices.n_source == "explicit":
        return s.link
    n = calibrate_loss_scale(ANCHOR_DISTANCE, ANCHOR_BEAM_POWER, ANCHOR_INPUT_POWER,
                             s.geometry.aperture_gain, s.geometry.wavelength, s.link)
    return replace(s.link, loss_scale=n)


def _chain(s: Scenario, link: LinkBudgetParams, system: str, data: bool = False) -> tuple[Callable, Callable]:
    """The model chain downstream of the cavity, in two stages split by what they read: (loss, point).

    The aperture, the receiver and its thermal noise are read once.  Both take
    columns (a list, or one float for every row), defaulting to the scenario's
    (loss_scale to link.loss_scale), and give columns.  loss(d, wavelength,
    loss_scale) is delta_t, once for all its p_in or mu series; point(delta_t,
    p_in, mu) gives the power branch (delta_t, beam_power, pv_output); later
    stages see the beam power floored at 0.  With data, the data branch follows:
    (data_signal, shot_noise, thermal_noise, total_noise, spectral_efficiency).
    Each step is the column form of the link_budget or comms function, with all
    its checks, each made once per column.
    """
    g, rx, choices = s.geometry, s.receiver, s.model_choices
    b, clamp, thermal = effective_aperture(g, system), choices.clamp_negative_power, thermal_noise(rx)

    def loss(d=g.d, wavelength=g.wavelength, loss_scale=link.loss_scale):
        return _transmission_loss(d, b, wavelength, loss_scale)

    def point(delta_t, p_in=s.pump_input_power, mu=rx.split_ratio) -> tuple:
        p_beam = _beam_power(p_in, delta_t, link, clamp)
        rows = _rows(p_beam)
        p_beam_floor = _column(rows, [0.0 if 0.0 > x else x for x, in rows])  # max(x, 0.0), -0.0 and NaN kept
        power = (delta_t, p_beam, _pv_output(p_beam_floor, mu, link, clamp))
        if not data:
            return power
        p_data = _data_signal(p_beam_floor, rx.responsivity, mu)
        del p_beam_floor
        shot = _shot_noise(p_data, rx)
        rows = _rows(shot)
        total = _column(rows, [x + thermal for x, in rows])
        return power + (p_data, shot, thermal, total, _spectral_efficiency(p_data, total, choices.log_base))
    return loss, point


def _points(s: Scenario, link: LinkBudgetParams, system: str, inputs: dict) -> tuple:
    """The _POINT_COLUMNS cells as columns over the columns (lists, or floats) in inputs, and s's and link's values.

    The round trip (ray_matrix._round_trip_over), _cavity, the aperture loss and
    the rest of _chain each take whole columns and check each one once, so the
    program stops at the first stage that fails anywhere, with the message of
    that stage's first bad row.  A stage whose inputs do not vary computes one
    cell.  A varying mirror radius is checked here, as a rising one can cross 0.
    """
    for name in inputs.keys() & {"rho1", "rho2"}:
        _require_mirror_radius(name, inputs[name])
    column = {**vars(s.geometry), "p_in": s.pump_input_power, "mu": s.receiver.split_ratio,
              "loss_scale": link.loss_scale, **inputs}.__getitem__
    loss, point = _chain(s, link, system, data=True)
    cavity = _cavity(_round_trip_over(system, column), column("wavelength"), column("rho1"), column("L1"))
    return cavity + point(loss(column("d"), column("wavelength"), column("loss_scale")), column("p_in"), column("mu"))


def operating_point(s: Scenario, system: str = "bcrb",
                    d: Optional[float] = None, p_in: Optional[float] = None,
                    mu: Optional[float] = None,
                    link: Optional[LinkBudgetParams] = None) -> dict:
    """Evaluate the full model chain at one distance; fixed key order.

    This is run_sweep's program, _points, over one row: d, p_in and mu are
    one value each, so every stage computes one cell.  Spot radii are NaN when
    the cavity is unstable at this distance; the power and data branches do not
    read the cavity.
    """
    g = s.geometry if d is None else replace(s.geometry, d=d)
    p_in = s.pump_input_power if p_in is None else p_in
    mu = s.receiver.split_ratio if mu is None else mu
    link = resolve_link_params(s) if link is None else link
    cells = _points(s, link, system, {"d": g.d, "p_in": p_in, "mu": mu})
    point = dict(zip(("d", "p_in", "mu") + tuple(name for name, _ in _POINT_COLUMNS), (g.d, p_in, mu, *cells)))
    point["stable"] = bool(point["stable"])
    return point


def _scenario_metadata(s: Scenario, link: LinkBudgetParams) -> dict:
    meta: dict = {}
    ext = scenario_to_dict(s)
    for section in ("geometry", "link", "receiver"):
        for key, value in ext[section].items():
            meta[f"{section}.{key}"] = value
    meta["pump_input_power_w"] = ext["pump_input_power_w"]
    for key, value in ext["model_choices"].items():
        meta[f"model.{key}"] = value
    meta["model.loss_scale_effective"] = link.loss_scale
    return meta


def _dataset(figure_id: str, s: Scenario, link: LinkBudgetParams,
             columns: Sequence[str], grid: list[float], outputs: Sequence, extra_meta: dict) -> FigureDataset:
    meta = {"figure_id": figure_id}
    meta.update(extra_meta)
    meta.update(_scenario_metadata(s, link))
    return FigureDataset(figure_id=figure_id, columns=tuple(columns), cells=(grid, *outputs),
                         n_rows=len(grid), metadata=meta)


def _fmt(value: float) -> str:
    # %g names a series briefly; values it would not tell apart keep all their digits.
    short = f"{value:g}"
    return short if float(short) == value else repr(float(value))


def _series(key: str, values: Sequence[float]) -> dict:
    return {f"series.{key}": ", ".join(_fmt(v) for v in values)}


# Each figure builder returns its series column headers, a series(grid)
# function giving each series as a column (a list) over the grid, and its own
# metadata.  The chain figures evaluate each series as one column, as run_sweep
# does; the search figures search at each grid value, through _per_point.
# Grid-independent constants come from the _FIGURES table.  The search figures
# build the round-trip prefix, which reads neither d nor rho2, once per
# magnification, and check each series value once, at its first cell: the cell
# that fails first is the one that failed when every cell was checked.

def _per_point(cells: Callable[[float], list]) -> Callable[[list], list]:
    # series(grid) from cells(x), the series cells of the row at grid value x.
    return lambda grid: [list(column) for column in zip(*map(cells, grid))]


def _fig6(s: Scenario, link: LinkBudgetParams, **_):
    # Spot radius on the gain module and beam power vs distance, both systems, as run_sweep's d columns.
    g = s.geometry
    stages = [_chain(s, link, system) for system in ("bcrb", "original")]

    def series(d: list) -> list:
        column = {**vars(g), "d": d}.__getitem__
        return ([_spots(_round_trip_over(system, column), g)[2] for system in ("bcrb", "original")]
                + [point(loss(d))[1] for loss, point in stages])
    return (["omega3_bcrb [m]", "omega3_original [m]", "beam_power_bcrb [W]", "beam_power_original [W]"],
            series, {"sweep.p_in_w": s.pump_input_power})


def _fig7(s: Scenario, link: LinkBudgetParams, **_):
    # Beam power and pump-to-beam efficiency vs input power at the reference distance.
    stages = [(point, loss()) for loss, point in (_chain(s, link, system) for system in ("bcrb", "original"))]

    def series(p_in: list) -> list:
        powers = [point(delta_t, p_in)[1] for point, delta_t in stages]
        return powers + [[power / x for power, x in zip(column, p_in)] for column in powers]
    return (["beam_power_bcrb [W]", "beam_power_original [W]", "efficiency_bcrb [-]", "efficiency_original [-]"],
            series, {"sweep.d_m": s.geometry.d})


def _fig8(s: Scenario, link: LinkBudgetParams, *, d_hi: float, m_values: Sequence[float], **_):
    # Maximum stable distance vs receiver-mirror curvature, one series per magnification.
    prefix = cache(lambda m: round_trip_prefix(replace(s.geometry, magnification=m), "bcrb"))
    return ([f"d_max_M{_fmt(m)} [m]" for m in m_values],
            _per_point(lambda rho2: [_first_band(_distance_bands(*prefix(float(m)), rho2, d_hi), d_hi)[1]
                                     for m in m_values]),
            {"sweep.d_hi_m": d_hi, **_series("magnification", m_values)})


def _fig9(s: Scenario, link: LinkBudgetParams, *, rho2_hi: float, d_values: Sequence[float], **_):
    # Required receiver-mirror curvature vs magnification, one series per distance.
    distance = cache(lambda d: replace(s.geometry, d=d).d)

    def cells(m: float) -> list[float]:
        x, _ = round_trip_prefix(replace(s.geometry, magnification=m), "bcrb")
        return [_required_rho2(x, distance(float(d)), rho2_hi) for d in d_values]
    return ([f"rho2_min_d{_fmt(d)} [m]" for d in d_values], _per_point(cells),
            {"sweep.rho2_hi_m": rho2_hi, **_series("d_m", d_values)})


def _fig10(s: Scenario, link: LinkBudgetParams, *, rho2: float, d_lo: float, samples: int,
           d_values: Sequence[float], **_):
    # Worst-case gain-module spot radius vs magnification, one series per distance cap.
    # rho2 is large so that every distance range stays stable.
    d_hi = cache(lambda d: _spot_range(d_lo, d, samples))

    def cells(m: float) -> list[float]:
        g = replace(s.geometry, magnification=m, rho2=rho2)
        x, offset = round_trip_prefix(g, "bcrb")
        return [_max_spot(g, x, offset, d_lo, d_hi(float(d)), samples) for d in d_values]
    return ([f"omega3_max_d{_fmt(d)} [m]" for d in d_values], _per_point(cells),
            {"sweep.rho2_m": rho2, "sweep.d_lo_m": d_lo, **_series("d_hi_m", d_values)})


def _chain_figure(s: Scenario, link: LinkBudgetParams, *, column: str, p_in_values: Sequence[float],
                  mu_values: Sequence[float], label: Optional[str] = None, p_in: Optional[float] = None,
                  mu: Optional[float] = None, **_):
    # The chain output column of _POINT_COLUMNS vs distance, headed label (default: column).  The row
    # fixes p_in or mu, and each value of the other is one series.  _POINT_COLUMNS gives the output's
    # place in the chain's point, its unit, and whether it needs the data branch.
    names, units = zip(*_POINT_COLUMNS)
    k = names.index(column)
    loss, point = _chain(s, link, "bcrb", data=k > names.index("pv_output"))
    index, unit = k - names.index("delta_t"), units[k]
    if mu is None:
        tag, key, values, fixed = "mu", "mu", mu_values, {"sweep.p_in_w": p_in}
        pairs = [(p_in, value) for value in values]
    else:
        tag, key, values, fixed = "Pin", "p_in_w", p_in_values, {"sweep.mu": mu}
        pairs = [(float(value), mu) for value in values]

    def series(d: list) -> list:
        delta_t = loss(d)
        return [point(delta_t, p_in, mu)[index] for p_in, mu in pairs]
    return [f"{label or column}_{tag}{_fmt(v)} [{unit}]" for v in values], series, {**fixed, **_series(key, values)}


# figure id -> (grid axis (variable, unit, lo, hi, samples), builder with its constants)
_FIGURES = {
    "fig6": (("d", "m", 1.5, 6.0, 91), _fig6),
    "fig7": (("P_in", "W", 150.0, 300.0, 151), _fig7),
    "fig8": (("rho2", "m", 5.0, 50.0, 10), partial(_fig8, d_hi=60.0)),
    "fig9": (("M", "-", 1.5, 6.0, 19), partial(_fig9, rho2_hi=80.0)),
    "fig10": (("M", "-", 2.0, 5.0, 16), partial(_fig10, rho2=50.0, d_lo=1.0, samples=201)),
    "fig11": (("d", "m", 1.0, 250.0, 250), partial(_chain_figure, column="pv_output", label="P_out", mu=1.0)),
    "fig12": (("d", "m", 1.0, 250.0, 250), partial(_chain_figure, column="spectral_efficiency", p_in=200.0)),
    "fig13": (("d", "m", 1.0, 250.0, 250), partial(_chain_figure, column="spectral_efficiency", mu=0.9)),
}

FIGURE_IDS = tuple(_FIGURES)

# unit of the grid axis -> suffix of its sweep.lo/sweep.hi metadata keys
_KEY_SUFFIX = {"m": "_m", "W": "_w"}


def generate_figure(figure_id: str, s: Optional[Scenario] = None, *,
                    m_values: Sequence[float] = (2.5, 3.5, 5.0),
                    d_values: Sequence[float] = (10.0, 20.0, 30.0, 40.0),
                    p_in_values: Sequence[float] = (200.0, 225.0, 250.0),
                    mu_values: Sequence[float] = (0.01, 0.1, 0.5, 0.9, 0.99)) -> FigureDataset:
    """Generate one built-in figure dataset (fig6..fig13) for a scenario.

    The grid, its column header and the sweep.* grid metadata all come from
    the figure's one axis entry in _FIGURES.
    """
    if figure_id not in _FIGURES:
        raise ValueError(f"unknown figure id {figure_id!r}; expected one of {FIGURE_IDS}")
    if s is None:
        s = default_scenario()
    link = resolve_link_params(s)
    (variable, unit, lo, hi, samples), build = _FIGURES[figure_id]
    headers, series, meta = build(s, link, m_values=m_values, d_values=d_values,
                                  p_in_values=p_in_values, mu_values=mu_values)
    grid = _grid(lo, hi, samples)
    suffix = _KEY_SUFFIX.get(unit, "")
    grid_meta = {"sweep.variable": variable, f"sweep.lo{suffix}": lo, f"sweep.hi{suffix}": hi,
                 "sweep.samples": samples}
    return _dataset(figure_id, s, link, [f"{variable} [{unit}]", *headers], grid, series(grid),
                    {**grid_meta, **meta})


_SWEEP_UNITS = {
    "d": "m", "p_in": "W", "mu": "-", "rho1": "m", "rho2": "m", "f_gain": "m",
    "f1": "m", "magnification": "-", "L1": "m", "L2": "m", "loss_scale": "-",
    "wavelength": "m",
}

_GEOMETRY_FIELDS = {f.name for f in fields(CavityGeometry)}

_POINT_COLUMNS = (
    ("stable", "-"), ("stability_product", "-"), ("omega1", "m"), ("omega2", "m"),
    ("omega3", "m"), ("delta_t", "-"), ("beam_power", "W"), ("pv_output", "W"),
    ("data_signal", "a.u."), ("shot_noise", "a.u.^2"), ("thermal_noise", "a.u.^2"),
    ("total_noise", "a.u.^2"), ("spectral_efficiency", "bit/s/Hz"),
)


def run_sweep(spec: SweepSpec, s: Optional[Scenario] = None) -> FigureDataset:
    """Sweep one scalar parameter; each row is operating_point at its grid value, by _points over {variable: grid}.

    A geometry variable is validated at grid[0] only: the grid is finite and rising, so every > 0 and
    >= 0 rule that holds there holds at every point.  A stage (a round-trip element or partial product
    too) whose inputs do not vary computes one cell, which every row shares.
    """
    if s is None:
        s = default_scenario()
    variable = spec.variable
    if variable not in _SWEEP_UNITS:
        raise ValueError(f"unknown sweep variable {variable!r}; expected one of {sorted(_SWEEP_UNITS)}")
    link = resolve_link_params(s)
    grid = _grid(spec.lo, spec.hi, spec.samples)
    if variable in _GEOMETRY_FIELDS:
        replace(s.geometry, **{variable: grid[0]})
    outputs = _points(s, link, spec.system, {variable: grid})
    columns = [f"{variable} [{_SWEEP_UNITS[variable]}]"] + [f"{name} [{unit}]" for name, unit in _POINT_COLUMNS]
    extra = {"sweep.variable": variable, "sweep.lo": spec.lo, "sweep.hi": spec.hi,
             "sweep.samples": spec.samples, "sweep.system": spec.system}
    return _dataset(f"sweep_{variable}", s, link, columns, grid, outputs, extra)
