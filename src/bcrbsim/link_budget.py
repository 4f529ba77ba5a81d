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
from dataclasses import dataclass, fields

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
        if not 0.0 < self.reflectivity < 1.0:
            raise ValueError(f"reflectivity must be in (0, 1), got {self.reflectivity!r}")
        if not 0.0 < self.conversion_efficiency <= 1.0:
            raise ValueError(f"conversion_efficiency must be in (0, 1], got {self.conversion_efficiency!r}")
        if self.loss_scale <= 0:
            raise ValueError(f"loss_scale must be > 0, got {self.loss_scale!r}")
        if self.pv_slope <= 0:
            raise ValueError(f"pv_slope must be > 0, got {self.pv_slope!r}")
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)!r}")


def transmission_loss(d: float, b: float, wavelength: float, loss_scale: float) -> float:
    """Aperture loss delta_t = N exp(-2 pi b^2 / (lambda d)).

    Strictly increasing in d (0 at d -> 0+, N at d -> inf) and decreasing in
    the aperture radius b.
    """
    if d <= 0:
        raise ValueError(f"distance must be > 0, got {d!r}")
    if b <= 0:
        raise ValueError(f"aperture radius must be > 0, got {b!r}")
    if wavelength <= 0:
        raise ValueError(f"wavelength must be > 0, got {wavelength!r}")
    if loss_scale <= 0:
        raise ValueError(f"loss_scale must be > 0, got {loss_scale!r}")
    if not math.isfinite(d):
        raise ValueError(f"distance must be finite, got {d!r}")
    if not math.isfinite(b):
        raise ValueError(f"aperture radius must be finite, got {b!r}")
    if not math.isfinite(wavelength):
        raise ValueError(f"wavelength must be finite, got {wavelength!r}")
    if not math.isfinite(loss_scale):
        raise ValueError(f"loss_scale must be finite, got {loss_scale!r}")
    return loss_scale * math.exp(-2.0 * math.pi * b * b / (wavelength * d))


def beam_power(p_in: float, delta_t: float, p: LinkBudgetParams, clamp: bool = True) -> float:
    """External beam power for pump input p_in [W] and aperture loss delta_t.

    P_beam = 2 (1 - R) eta_c / ((1 + R) (delta_t - ln R)) * P_in + C, clamped
    at 0 from below (below lasing threshold) unless clamp=False.
    """
    if p_in < 0:
        raise ValueError(f"input power must be >= 0, got {p_in!r}")
    if not math.isfinite(p_in):
        raise ValueError(f"input power must be finite, got {p_in!r}")
    if delta_t < 0:
        raise ValueError(f"delta_t must be >= 0, got {delta_t!r}")
    if not math.isfinite(delta_t):
        raise ValueError(f"delta_t must be finite, got {delta_t!r}")
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
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"split ratio mu must be in [0, 1], got {mu!r}")
    if p_beam < 0:
        raise ValueError(f"beam power must be >= 0, got {p_beam!r}")
    if not math.isfinite(p_beam):
        raise ValueError(f"beam power must be finite, got {p_beam!r}")
    power = p.pv_slope * mu * p_beam + p.pv_intercept
    if clamp and power < 0.0:
        return 0.0
    return power
