"""Power budget of the link: aperture loss, external beam power, PV output.

The aperture loss is a diffraction/spillover model
delta_t(d) = N exp(-2 pi b^2 / (lambda d)) whose scale factor N is a
calibration constant (see sweep_search.calibrate_loss_scale).  delta_t feeds
the cyclic-power expression for the external beam power, and a linear PV
model converts the harvested share to electrical output.  Negative model
outputs are below-threshold artifacts and clamp to 0 W by default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import _INF, _reject
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
    the aperture radius b.
    """
    if not (0.0 < d < _INF and 0.0 < b < _INF and 0.0 < wavelength < _INF and 0.0 < loss_scale < _INF):
        _reject(ValueError, ("distance", d, "> 0"), ("aperture radius", b, "> 0"), ("wavelength", wavelength, "> 0"),
                ("loss_scale", loss_scale, "> 0"))
    try:
        return loss_scale * math.exp(-2.0 * math.pi * b * b / (wavelength * d))
    except ZeroDivisionError:  # wavelength * d underflows to 0: the limit at d -> 0+
        return 0.0


def beam_power(p_in: float, delta_t: float, p: LinkBudgetParams, clamp: bool = True) -> float:
    """External beam power for pump input p_in [W] and aperture loss delta_t.

    P_beam = 2 (1 - R) eta_c / ((1 + R) (delta_t - ln R)) * P_in + C, clamped
    at 0 from below (below lasing threshold) unless clamp=False.
    """
    if not (0.0 <= p_in < _INF and 0.0 <= delta_t < _INF):
        _reject(ValueError, ("input power", p_in, ">= 0"), ("delta_t", delta_t, ">= 0"))
    r = p.reflectivity
    slope = 2.0 * (1.0 - r) * p.conversion_efficiency / ((1.0 + r) * (delta_t - math.log(r)))
    power = slope * p_in + p.intercept
    if clamp and power < 0.0:
        return 0.0
    return power


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
    if not (0.0 <= p_beam < _INF and 0.0 <= mu <= 1.0):
        _reject(ValueError, ("beam power", p_beam, ">= 0"), ("split ratio mu", mu, "in [0, 1]"))
    power = p.pv_slope * mu * p_beam + p.pv_intercept
    if clamp and power < 0.0:
        return 0.0
    return power
