"""Gaussian beam spot radii on the cavity mirrors and on the gain module.

The fundamental-mode radii on the two end mirrors follow from the round-trip
matrix entries; the gain-module radius is the mirror-1 spot propagated over
the short mirror-to-gain gap with the usual Gaussian divergence law.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import _INF, UnstableCavityError, _reject
from .ray_matrix import CavityGeometry, TransferMatrix, _require_mirror_radius, _stable, round_trip


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
    return _mirror_radii(a, b, d, wavelength)


def _mirror_radii(a: float, b: float, d: float, wavelength: float) -> tuple[float, float]:
    # (omega1, omega2) of a round trip that is_stable accepts, for mirror_spot_radii and _cavity.
    try:
        scale = (wavelength / math.pi) ** 2
    except OverflowError:  # float ** raises where * would give inf
        raise ValueError(f"wavelength {wavelength!r} m is too long: (wavelength/pi)^2 overflows") from None
    excess = a * d - 1.0  # negative inside the stability region
    rad1 = -scale * b * b * d / (a * excess)
    rad2 = -scale * b * b * a / (d * excess)
    if rad1 <= 0:
        raise UnstableCavityError(f"omega1 radicand nonpositive ({rad1!r}); cavity at or beyond stability boundary")
    if rad2 <= 0:
        raise UnstableCavityError(f"omega2 radicand nonpositive ({rad2!r}); cavity at or beyond stability boundary")
    return rad1 ** 0.25, rad2 ** 0.25


def propagate_spot(omega1: float, rho1: float, L1: float, wavelength: float) -> float:
    """Spot radius after propagating a distance L1 from mirror 1.

    omega3^2 = omega1^2 [(1 + L1/rho1)^2 + (L1 lambda / (pi omega1^2))^2];
    exact identity omega3 == omega1 at L1 = 0.
    """
    if not (0.0 < omega1 < _INF and -_INF < rho1 < _INF and rho1 != 0.0 and 0.0 <= L1 < _INF
            and 0.0 < wavelength < _INF):
        _reject(ValueError, ("omega1", omega1, "> 0"), ("rho1", rho1, None), ("L1", L1, ">= 0"),
                ("wavelength", wavelength, "> 0"))
        _require_mirror_radius("rho1", rho1)
    geometric = 1.0 + L1 / rho1
    spread = math.pi * omega1 * omega1
    if not spread:  # omega1^2 underflows to 0: the same radius, as the hypotenuse of its two legs
        return math.hypot(omega1 * geometric, L1 * wavelength / (math.pi * omega1))
    diffractive = L1 * wavelength / spread
    return omega1 * math.sqrt(geometric * geometric + diffractive * diffractive)


def _cavity(m: tuple, wavelength: float, rho1: float, L1: float) -> tuple:
    """(stable, A*D, omega1, omega2, omega3) of a round trip m = (a, b, c, d), as sweep cells.

    wavelength, rho1 and L1 are those of a validated geometry.  stable is 1.0
    or 0.0; the spot radii are NaN when the cavity is unstable.  operating_point
    and run_sweep read these cells, the other spot readers read them through _spots.
    """
    a, b, _, d = m
    if not _stable(a, d):
        return 0.0, a * d, math.nan, math.nan, math.nan
    omega1, omega2 = _mirror_radii(a, b, d, wavelength)
    return 1.0, a * d, omega1, omega2, propagate_spot(omega1, rho1, L1, wavelength)


def _spots(m: tuple, p) -> tuple[float, float, float]:
    # The spot radii of _cavity for the wavelength, rho1 and L1 of p, raising UnstableCavityError where it gives NaN.
    cells = _cavity(m, p.wavelength, p.rho1, p.L1)
    if not cells[0]:
        raise UnstableCavityError(f"round trip unstable: a*d = {cells[1]!r} outside (0, 1)")
    return cells[2:]


def cavity_spot_radii(g: CavityGeometry, system: str = "bcrb") -> SpotRadii:
    """All three spot radii for a geometry, for either cavity layout."""
    return SpotRadii(*_spots(round_trip(g, system), g))
