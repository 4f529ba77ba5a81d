"""Power budget of the link: aperture loss, external beam power, PV output.

The aperture loss is a diffraction/spillover model
delta_t(d) = N exp(-2 pi b^2 / (lambda d)) whose scale factor N is a
calibration constant (see sweep_search.calibrate_loss_scale).  delta_t feeds
the cyclic-power expression for the external beam power, and a linear PV
model converts the harvested share to electrical output.  Negative model
outputs are below-threshold artifacts and clamp to 0 W by default.  The
three formulas take a column (errors.py) for any argument but p and clamp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import _column, _reject, _rows
from .ray_matrix import CavityGeometry, _layout


@dataclass(frozen=True)
class LinkBudgetParams:
    """Gain/loss constants of the power model; defaults are the reference cell."""

    reflectivity: float = 0.2618          # effective reflectivity R, compound of output coupling and fixed loss
    conversion_efficiency: float = 0.3384  # compounded pump-to-beam conversion efficiency
    intercept: float = -51.83              # beam-power intercept [W]
    loss_scale: float = 1.0                # scale factor N of the aperture-loss model
    pv_slope: float = 0.3487               # PV cell slope a1
    pv_intercept: float = -1.535           # PV cell intercept b1 [W]

    def __post_init__(self):
        _reject(ValueError, ("reflectivity", self.reflectivity, "in (0, 1)"),
                ("conversion_efficiency", self.conversion_efficiency, "in (0, 1]"),
                ("intercept", self.intercept, None), ("loss_scale", self.loss_scale, "> 0"),
                ("pv_slope", self.pv_slope, "> 0"), ("pv_intercept", self.pv_intercept, None))


def transmission_loss(d: float, b: float, wavelength: float, loss_scale: float) -> float:
    """Aperture loss delta_t = N exp(-2 pi b^2 / (lambda d)).

    Strictly increasing in d (0 at d -> 0+, N at d -> inf) and decreasing in
    the aperture radius b.  Where wavelength * d underflows to 0 it is the
    limit at d -> 0+.
    """
    _reject(ValueError, ("distance", d, "> 0"), ("aperture radius", b, "> 0"), ("wavelength", wavelength, "> 0"),
            ("loss_scale", loss_scale, "> 0"))
    rows, exp, k = _rows(d, b, wavelength, loss_scale), math.exp, -2.0 * math.pi
    return _column(rows, [n * exp(k * b * b / p) if (p := w * d) else 0.0 for d, b, w, n in rows])


def beam_power(p_in: float, delta_t: float, p: LinkBudgetParams, clamp: bool = True) -> float:
    """External beam power for pump input p_in [W] and aperture loss delta_t.

    P_beam = 2 (1 - R) eta_c / ((1 + R) (delta_t - ln R)) * P_in + C, clamped
    at 0 from below (below lasing threshold) unless clamp=False.
    """
    _reject(ValueError, ("input power", p_in, ">= 0"), ("delta_t", delta_t, ">= 0"))
    r = p.reflectivity
    rows, gain, ln_r, c = _rows(p_in, delta_t), 2.0 * (1.0 - r) * p.conversion_efficiency, math.log(r), p.intercept
    return _column(rows, [0.0 if (w := gain / ((1.0 + r) * (t - ln_r)) * x + c) < 0.0 and clamp else w
                          for x, t in rows])


def effective_aperture(g: CavityGeometry, system: str) -> float:
    """Radius of the loss-producing aperture for the given cavity layout.

    The telescope compresses the beam below the gain-module bore, so its own
    (larger) boundary becomes the limiting aperture; without it the gain
    module limits.
    """
    _layout(system)
    return g.aperture_tim if system == "bcrb" else g.aperture_gain


def pv_output(p_beam: float, mu: float, p: LinkBudgetParams, clamp: bool = True) -> float:
    """PV electrical output P_out = a1 * mu * P_beam + b1, clamped at 0."""
    _reject(ValueError, ("beam power", p_beam, ">= 0"), ("split ratio mu", mu, "in [0, 1]"))
    rows, a1, b1 = _rows(p_beam, mu), p.pv_slope, p.pv_intercept
    return _column(rows, [0.0 if (w := a1 * m * x + b1) < 0.0 and clamp else w for x, m in rows])
