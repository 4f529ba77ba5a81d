"""Gaussian beam spot radii on the cavity mirrors and on the gain module.

The fundamental-mode radii on the two end mirrors follow from the round-trip
matrix entries; the gain-module radius is the mirror-1 spot propagated over
the short mirror-to-gain gap with the usual Gaussian divergence law.
"""

from __future__ import annotations

import math
from itertools import compress
from typing import NamedTuple

from .errors import _INF, _TINY, UnstableCavityError, _reject
from .ray_matrix import CavityGeometry, TransferMatrix, _over, _require_mirror_radius, _stable, round_trip


class SpotRadii(NamedTuple):
    """Beam spot radii [m] on mirror 1, mirror 2, and the gain module."""

    omega1: float
    omega2: float
    omega3: float


def mirror_spot_radii(m: TransferMatrix, wavelength: float) -> tuple[float, float]:
    """Spot radii (omega1, omega2) on the end mirrors from a round-trip matrix.

    omega1^4 = -(lambda/pi)^2 * b^2 d / (a (a d - 1)) and the mirror-2 form
    with a, d swapped.  Both radicands are positive strictly inside the
    stability region; a nonpositive radicand (boundary operation included)
    raises rather than being clamped, naming the spot that failed.
    """
    a, b, _, d = m
    if wavelength <= 0:
        raise ValueError(f"wavelength must be > 0, got {wavelength!r}")
    if not _stable(a, d):
        raise UnstableCavityError(f"round trip unstable: a*d = {a * d!r} outside (0, 1)")
    if not math.isfinite(wavelength):
        raise ValueError(f"wavelength must be finite, got {wavelength!r}")
    return _mirror_radii(a, b, d, _scale(wavelength))


def _scale(wavelength: float) -> float:
    # (wavelength/pi)^2, the radicands' factor; float ** raises where * would give inf.
    try:
        return (wavelength / math.pi) ** 2
    except OverflowError:
        raise ValueError(f"wavelength {wavelength!r} m is too long: (wavelength/pi)^2 overflows") from None


def _mirror_radii(a: float, b: float, d: float, scale: float) -> tuple[float, float]:
    """(omega1, omega2) of a round trip that is_stable accepts, with scale = _scale(wavelength).

    Where a radicand overflows, its fourth root is taken factor by factor,
    scale^1/4 |b|^1/2 (d / (a (1 - a d)))^1/4 for omega1, so a radius is inf
    only if it is itself too large for a float.
    """
    excess = a * d - 1.0  # negative inside the stability region
    rad1 = -scale * b * b * d / (a * excess)
    rad2 = -scale * b * b * a / (d * excess)
    if rad1 <= 0:
        raise UnstableCavityError(f"omega1 radicand nonpositive ({rad1!r}); cavity at or beyond stability boundary")
    if rad2 <= 0:
        raise UnstableCavityError(f"omega2 radicand nonpositive ({rad2!r}); cavity at or beyond stability boundary")
    if rad1 < _INF > rad2:
        return rad1 ** 0.25, rad2 ** 0.25
    factor = scale ** 0.25 * abs(b) ** 0.5
    return (rad1 ** 0.25 if rad1 < _INF else factor * (d / (a * -excess)) ** 0.25,
            rad2 ** 0.25 if rad2 < _INF else factor * (a / (d * -excess)) ** 0.25)


def propagate_spot(omega1: float, rho1: float, L1: float, wavelength: float) -> float:
    """Spot radius after propagating a distance L1 from mirror 1.

    omega3^2 = omega1^2 [(1 + L1/rho1)^2 + (L1 lambda / (pi omega1^2))^2];
    exact identity omega3 == omega1 at L1 = 0.
    """
    if not (0.0 < omega1 < _INF and _TINY < abs(rho1) < _INF and 0.0 <= L1 < _INF
            and 0.0 < wavelength < _INF):
        _check_propagation(omega1, rho1, L1, wavelength)
    return _propagated(omega1, rho1, L1, wavelength)


def _check_propagation(omega1, rho1, L1, wavelength) -> None:
    # The input checks of propagate_spot, over columns (lists) and floats: each column is checked at once.
    _reject(ValueError, ("omega1", omega1, "> 0"), ("rho1", rho1, None), ("L1", L1, ">= 0"),
            ("wavelength", wavelength, "> 0"))
    _require_mirror_radius("rho1", rho1)


def _propagated(omega1: float, rho1: float, L1: float, wavelength: float) -> float:
    # propagate_spot of checked inputs.  Where omega1^2 underflows to 0, or the sqrt form overflows,
    # omega3 is the same radius as the hypotenuse of its two legs.
    geometric = 1.0 + L1 / rho1
    spread = math.pi * omega1 * omega1
    if spread:
        diffractive = L1 * wavelength / spread
        omega3 = omega1 * math.sqrt(geometric * geometric + diffractive * diffractive)
        if omega3 < _INF:
            return omega3
    return math.hypot(omega1 * geometric, L1 * wavelength / (math.pi * omega1))


def _cavity(m, wavelength, rho1, L1) -> tuple:
    """(stable, A*D, omega1, omega2, omega3) of round trips, as sweep cells.

    m is the entries (a, b, c, d) of one round trip, for one cell each, or a
    column of them (a list, or _round_trip_over's lazy column), for columns of
    cells; wavelength, rho1 and L1 are floats or columns (lists) of validated
    geometries.  stable is 1.0 or 0.0; the spot radii are NaN where the cavity
    is unstable, and over columns they are computed for the stable rows only,
    each stage with its input checks made once per column.  operating_point and
    run_sweep read these cells, the other spot readers read them through _spots.
    """
    if isinstance(m, tuple):  # one round trip (a TransferMatrix too)
        a, b, _, d = m
        if not _stable(a, d):
            return 0.0, a * d, math.nan, math.nan, math.nan
        if list not in (type(wavelength), type(rho1), type(L1)):  # and one value of each other input
            omega1, omega2 = _mirror_radii(a, b, d, _scale(wavelength))
            return 1.0, a * d, omega1, omega2, propagate_spot(omega1, rho1, L1, wavelength)
        stable, product, unstable = 1.0, a * d, False
    else:
        a, b, d = [], [], []
        for a_i, b_i, _, d_i in m:  # drawn one row at a time, so that no column of 4-tuples is kept
            a.append(a_i)
            b.append(b_i)
            d.append(d_i)
        stable = [1.0 if _stable(x, y) else 0.0 for x, y in zip(a, d)]
        product = [x * y for x, y in zip(a, d)]
        unstable = 0.0 in stable
        if 1.0 not in stable:  # no spot to compute: none reads the wavelength
            return stable, product, math.nan, math.nan, math.nan
        if unstable:
            a, b, d, wavelength, rho1, L1 = [list(compress(c, stable)) if type(c) is list else c
                                             for c in (a, b, d, wavelength, rho1, L1)]
    radii = list(_over(_mirror_radii, a, b, d, _over(_scale, wavelength)))
    del a, b, d
    omega1, omega2 = [w for w, _ in radii], [w for _, w in radii]
    del radii
    _check_propagation(omega1, rho1, L1, wavelength)
    omega3 = list(_over(_propagated, omega1, rho1, L1, wavelength))
    if unstable:
        omega1, omega2, omega3 = ([next(cells) if s else math.nan for s in stable]
                                  for cells in map(iter, (omega1, omega2, omega3)))
    return stable, product, omega1, omega2, omega3


def _spots(m, p) -> tuple:
    # The spot radii of _cavity for the wavelength, rho1 and L1 of p, raising UnstableCavityError for the first
    # round trip where it gives NaN.
    cells = _cavity(m, p.wavelength, p.rho1, p.L1)
    stable, product = cells[0], cells[1]
    if type(stable) is list and 0.0 in stable:
        stable, product = 0.0, product[stable.index(0.0)]
    if not stable:
        raise UnstableCavityError(f"round trip unstable: a*d = {product!r} outside (0, 1)")
    return cells[2:]


def cavity_spot_radii(g: CavityGeometry, system: str = "bcrb") -> SpotRadii:
    """All three spot radii for a geometry, for either cavity layout."""
    return SpotRadii(*_spots(round_trip(g, system), g))
