"""Paraxial ABCD matrices for the resonant-beam cavity.

Element matrices follow the sign convention in which a curved mirror of
curvature radius rho contributes -1/rho to the C entry (signed rho, so the
transmitter mirror of the reference design carries rho1 = -0.880 m).  The
telescope pair is the traversal sequence _shift(+f1), _magnifier(M), _shift(-f2)
of _LAYOUTS["bcrb"], with f2 = M * f1: the overlapping-focus form that
cancels to the bare magnifier when M = 1.

All functions are pure; values are plain floats and freely shareable
between threads.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import partial
from itertools import starmap
from typing import Callable, NamedTuple, Optional, Sequence

from .errors import _INF, InvalidElementError, SingularConfigurationError, _column, _reject, _rows, _walk


def _require_mirror_radius(name: str, value) -> None:
    # value is a radius, or a column (list) of them, which is checked at once and walked only if a cell is 0.
    if type(value) is list:
        if 0.0 in value:
            _walk(partial(_require_mirror_radius, name), value)
    elif value == 0:
        raise InvalidElementError(f"{name} must be nonzero (use |rho| >= 1e9 for near-flat), got {value!r}")


class RayVector(NamedTuple):
    """Transverse ray state: offset from the axis [m] and paraxial slope [rad]."""

    position: float
    slope: float


class TransferMatrix(NamedTuple):
    """2x2 ray transfer matrix [[a, b], [c, d]]; b in m, c in 1/m.

    It is an entries tuple (a, b, c, d), as _product, _close and _fold take.
    Matrices built from validated elements have finite entries and unit
    determinant up to rounding; the container itself stays unchecked so
    that downstream guards (e.g. the NaN branch of is_stable) are honest.
    """

    a: float
    b: float
    c: float
    d: float

    def det(self) -> float:
        return self.a * self.d - self.b * self.c


_MIRROR, _LENS = "mirror curvature radius", "lens focal length"


def _product(e: tuple, m: tuple) -> tuple:
    """Entries (a, b, c, d) of e @ m, as a plain tuple; a TransferMatrix is such a tuple too."""
    ea, eb, ec, ed = e
    ma, mb, mc, md = m
    return ea * ma + eb * mc, ea * mb + eb * md, ec * ma + ed * mc, ec * mb + ed * md


def _shift(offset: float) -> tuple:
    if not -_INF < offset < _INF:
        _reject(InvalidElementError, ("offset", offset, None))
    return 1.0, offset, 0.0, 1.0


def _focus(name: str, value: float) -> tuple:
    # A mirror of curvature radius value, or a lens of focal length value.
    if value == 0 or not math.isfinite(value):
        raise InvalidElementError(f"{name} must be finite and nonzero, got {value!r}")
    return 1.0, 0.0, -1.0 / value, 1.0


def _magnifier(m: float) -> tuple:
    if not (m > 0) or not math.isfinite(m):
        raise InvalidElementError(f"magnification must be finite and > 0, got {m!r}")
    return m, 0.0, 0.0, 1.0 / m


def _telescope_exit(f1: float, m: float) -> tuple:
    # The -f2 element, f2 = f1 * M.  The product can overflow where f1 and M are finite: the error names both.
    f2 = f1 * m
    if f2 == _INF:
        raise InvalidElementError(f"f2 = f1 * magnification overflows: f1 = {f1!r} m, magnification = {m!r}")
    return _shift(-f2)


def apply(m: TransferMatrix, r: RayVector) -> RayVector:
    """Propagate a ray through one matrix."""
    return RayVector(m.a * r.position + m.b * r.slope, m.c * r.position + m.d * r.slope)


@dataclass(frozen=True)
class CavityGeometry:
    """Full parameter set of the beam-compression cavity.

    Lengths in meters.  rho1/rho2 are signed mirror curvature radii; near-flat
    mirrors are represented by a large finite |rho| (>= 1e9 m), never by a
    special case.  The telescope is described by the concave-lens focal
    magnitude f1 and the magnification M; the convex focal length is f2 = M*f1.
    Defaults are the desk-scale reference design.
    """

    rho1: float = -0.880          # transmitter mirror curvature [m]
    rho2: float = 10.0            # receiver mirror curvature [m]
    f_gain: float = 0.880         # lens-like focal length of the gain module [m]
    f1: float = 0.010             # telescope concave-lens focal magnitude [m]
    magnification: float = 3.5    # telescope magnification M = f2/f1
    L1: float = 1e-3              # mirror-to-gain-module gap [m]; "adjacent"
    L2: float = 0.100             # gain-module-to-telescope gap [m]
    d: float = 2.6                # transmission distance (telescope to receiver mirror) [m]
    aperture_gain: float = 1.5e-3  # gain-module aperture radius [m]
    aperture_tim: float = 10e-3    # telescope aperture radius [m]
    wavelength: float = 1064e-9    # resonant-beam wavelength [m]

    def __post_init__(self):
        # L1 = 0 (mirror flush with gain module) and L2 = 0 are physically
        # meaningful degenerate placements, so only negative gaps are rejected.
        _reject(InvalidElementError, ("rho1", self.rho1, None), ("rho2", self.rho2, None),
                ("f_gain", self.f_gain, "> 0"), ("f1", self.f1, "> 0"), ("magnification", self.magnification, "> 0"),
                ("L1", self.L1, ">= 0"), ("L2", self.L2, ">= 0"), ("d", self.d, "> 0"),
                ("aperture_gain", self.aperture_gain, "> 0"), ("aperture_tim", self.aperture_tim, "> 0"),
                ("wavelength", self.wavelength, "> 0"))
        _require_mirror_radius("rho1", self.rho1)
        _require_mirror_radius("rho2", self.rho2)

    @property
    def f2(self) -> float:
        """Convex-lens focal length, tied to f1 by the magnification; the -f2 element of _LAYOUTS is this product."""
        return self.f1 * self.magnification


# Per layout: the round trip's elements before the gap to mirror 2, in
# propagation order, each as the geometry fields it reads and a builder that
# takes just those fields, in that order; then, in the same form, the part of
# that gap that is not d.  _fold calls the builders with a geometry's fields,
# _round_trip_over over columns of them.
_HEAD = (
    (("rho1",), partial(_focus, _MIRROR)),
    (("L1",), _shift),
    (("f_gain",), partial(_focus, _LENS)),
)
_LAYOUTS = {
    "bcrb": (_HEAD + (
        (("L2",), _shift),
        (("f1",), _shift),
        (("magnification",), _magnifier),
        (("f1", "magnification"), _telescope_exit),
    ), ((), lambda: 0.0)),
    "original": (_HEAD, (("L2",), lambda L2: L2)),
}


def _layout(system: str) -> tuple:
    if system not in _LAYOUTS:
        raise ValueError(f"system must be 'bcrb' or 'original', got {system!r}")
    return _LAYOUTS[system]


def _fold(g, elements: Sequence) -> Optional[tuple]:
    """Entries of the elements built from the fields of g, composed in propagation order (None if none)."""
    m = None
    for reads, build in elements:
        e = build(*[getattr(g, name) for name in reads])
        m = e if m is None else _product(e, m)
    return m


def bcrb_elements(g: CavityGeometry) -> list[TransferMatrix]:
    """The nine single-pass element matrices, in propagation order."""
    entries = [_fold(g, [element]) for element in _LAYOUTS["bcrb"][0]] + [_shift(g.d), _focus(_MIRROR, g.rho2)]
    return [TransferMatrix(*e) for e in entries]


def round_trip_prefix(g: CavityGeometry, system: str) -> tuple[TransferMatrix, float]:
    """The part of a layout's round trip that does not depend on d, and its gap offset.

    The round trip at distance d has the entries _close(prefix, offset + d, g.rho2).
    For 'bcrb' the prefix is the first seven element matrices and the offset
    is 0; for 'original' it is mirror 1, L1 and the gain lens, and the gap is
    L2 + d.  The round trip itself is this prefix closed, so a search that
    closes it sees the round trip's bits.
    """
    elements, (reads, offset) = _layout(system)
    return TransferMatrix(*_fold(g, elements)), offset(*[getattr(g, name) for name in reads])


def _over(f: Callable, *columns) -> object:
    # f over the rows of its input columns: a lazy column of f per row when a column varies (a list, or
    # such a lazy column), else f's one value.
    rows = _rows(*columns)
    return f(*columns) if type(rows) is tuple else starmap(f, rows)


def _round_trip_over(system: str, column: Callable[[str], object]) -> object:
    """A layout's round trips over columns, with column(name) the column (a list, or a float) of the field name.

    The entries of one round trip, when no column it reads varies, else a lazy
    column of them, one tuple per row.  Each element (the receiver mirror too)
    and partial product is an _over stage, composed as in _fold; the gap
    (offset + d) is one column, checked once, and each row is closed as _close
    closes it, so each row keeps the round trip's bits.
    """
    elements, (offset_reads, offset) = _layout(system)
    m = None
    for reads, build in elements:
        e = _over(build, *map(column, reads))
        m = e if m is None else _over(_product, e, m)
    mirror = _over(partial(_focus, _MIRROR), column("rho2"))
    rows = _rows(_over(offset, *map(column, offset_reads)), column("d"))
    gap = _column(rows, list(starmap(operator.add, rows)))
    _reject(InvalidElementError, ("offset", gap, None))
    return _over(_closed, m, gap, mirror)


def _close(m: tuple, gap: float, rho2: float) -> tuple:
    """Entries of the round trip from those of its prefix m: the free-space gap, then the receiver mirror.

    A = m.a + gap * m.c and D = m.d - (m.b + gap * m.d) / rho2, so A*D is
    quadratic in the gap and affine in 1/rho2.  The entries are those of
    _product(_focus(_MIRROR, rho2), _product(_shift(gap), m)), bit for bit,
    signed zeros included (x * 1.0 is exact, x * 0.0 is not dropped), and
    rho2 is checked before the gap, as there.
    """
    mirror = _focus(_MIRROR, rho2)
    if not -_INF < gap < _INF:
        _reject(InvalidElementError, ("offset", gap, None))
    return _closed(m, gap, mirror)


def _closed(m: tuple, gap: float, mirror: tuple) -> tuple:
    # _close from the checked gap and the receiver mirror's element entries.
    pa, pb, pc, pd = m
    a, b = pa + gap * pc, pb + gap * pd
    c, d = 0.0 * pa + pc, 0.0 * pb + pd
    r = mirror[2]
    return a + 0.0 * c, b + 0.0 * d, r * a + c, r * b + d


def _affine(m: tuple, offset: float, rho2: float) -> tuple:
    """Entries A, B, C, D of _close(m, offset + d, rho2), each as (value at d = 0, slope in d).

    A = m.a + (offset + d)*m.c and B = m.b + (offset + d)*m.d do not read rho2;
    C = m.c - A/rho2 and D = m.d - B/rho2.  So A*D is quadratic in d and affine
    in 1/rho2.  The pairs round apart from _close's entries: judge a point on _close.
    """
    r = 1.0 / rho2
    a, b = (m[0] + offset * m[2], m[2]), (m[1] + offset * m[3], m[3])
    return a, b, (m[2] - r * a[0], -r * a[1]), (m[3] - r * b[0], -r * b[1])


def _round_trip(g: CavityGeometry, system: str) -> TransferMatrix:
    x, offset = round_trip_prefix(g, system)
    return TransferMatrix(*_close(x, offset + g.d, g.rho2))


def round_trip_bcrb(g: CavityGeometry) -> TransferMatrix:
    """Round-trip matrix of the beam-compression cavity (canonical form).

    Composes mirror / gap / gain lens / telescope / gap / mirror in
    propagation order; the product is unimodular up to rounding.
    """
    return _round_trip(g, "bcrb")


def round_trip_closed_form(g: CavityGeometry) -> TransferMatrix:
    """Closed-form evaluation of the same round trip.

    Cross-check for round_trip_bcrb: the expanded element expressions, using
    the shifted gaps L2' = L2 + f1 and L3' = d - f2.  The C entry is recovered
    from unimodularity, so B = 0 is a singular configuration here.
    """
    m = g.magnification
    l2p = g.L2 + g.f1
    l3p = g.d - g.f2
    h = m * l2p + l3p / m
    gain_term = m - h / g.f_gain
    b1 = g.L1 * gain_term + h
    a1 = gain_term - b1 / g.rho1
    d1 = 1.0 / m - g.L1 / (g.f_gain * m) - b1 / g.rho2
    if b1 == 0.0:
        raise SingularConfigurationError("closed-form C entry undefined: B = 0 for this geometry")
    c1 = (a1 * d1 - 1.0) / b1
    return TransferMatrix(a1, b1, c1, d1)


def round_trip_original(g: CavityGeometry) -> TransferMatrix:
    """Round-trip matrix of the baseline cavity without the telescope.

    The gain module faces the receiver mirror across a single gap L2 + d;
    telescope fields of the geometry are ignored.
    """
    return _round_trip(g, "original")


def round_trip(g: CavityGeometry, system: str) -> TransferMatrix:
    """Round-trip matrix of the named cavity layout, 'bcrb' or 'original'."""
    _layout(system)
    return round_trip_bcrb(g) if system == "bcrb" else round_trip_original(g)


def is_stable(m: TransferMatrix) -> bool:
    """Stability test 0 < a*d < 1 (strict) on a round-trip matrix."""
    return _stable(m.a, m.d)


def _stable(a: float, d: float) -> bool:
    # is_stable on the entries a and d of a round trip.
    product = a * d
    if math.isnan(product):
        import logging  # only here: a clean run never loads it
        logging.getLogger(__name__).warning("stability test saw NaN: a=%r d=%r", a, d)
        return False
    return 0.0 < product < 1.0
