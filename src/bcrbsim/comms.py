"""Data branch: detector signal level, noise variances, spectral efficiency.

P_data = gamma (1 - mu) P_beam mixes responsivity [A/W] with optical power;
it is used consistently as a model-internal signal level, feeding the shot
noise and the half-log capacity expression without a unit conversion.
data_signal, shot_noise, total_noise and spectral_efficiency take a column
(errors.py) for any argument but r and log_base.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import _INF, _column, _reject, _rows

ELECTRON_CHARGE = 1.602e-19   # C
BOLTZMANN = 1.38e-23          # J/K
_NORMAL_MIN = sys.float_info.min  # below it a float keeps fewer than 53 bits


@dataclass(frozen=True)
class ReceiverParams:
    """APD / noise constants; defaults are the reference receiver at 300 K."""

    responsivity: float = 0.6              # APD optical-to-electrical responsivity gamma [A/W]
    split_ratio: float = 0.5               # share mu of beam power routed to the PV branch
    electron_charge: float = ELECTRON_CHARGE
    background_current: float = 5.1e-3     # background current [A]
    bandwidth: float = 811.7e6             # receiver bandwidth [Hz]
    boltzmann: float = BOLTZMANN
    temperature: float = 300.0             # background temperature [K]
    load_resistance: float = 1e4           # load resistor [ohm]

    def __post_init__(self):
        # zero is meaningful for background_current and temperature: dark background, cold limit
        _reject(ValueError, ("responsivity", self.responsivity, "> 0"),
                ("split_ratio", self.split_ratio, "in [0, 1]"), ("electron_charge", self.electron_charge, "> 0"),
                ("background_current", self.background_current, ">= 0"), ("bandwidth", self.bandwidth, "> 0"),
                ("boltzmann", self.boltzmann, "> 0"), ("temperature", self.temperature, ">= 0"),
                ("load_resistance", self.load_resistance, "> 0"))


def data_signal(p_beam: float, r: ReceiverParams) -> float:
    """Signal level at the APD: gamma (1 - mu) P_beam; a product too large for a float is rejected."""
    p_data = _data_signal(p_beam, r.responsivity, r.split_ratio)
    _reject(ValueError, ("signal level", p_data, None))
    return p_data


def _data_signal(p_beam, responsivity: float, mu):
    # data_signal from the receiver's responsivity and split ratio, over columns (lists) and floats of p_beam and mu.
    _reject(ValueError, ("beam power", p_beam, ">= 0"))
    rows = _rows(p_beam, mu)
    return _column(rows, [responsivity * (1.0 - m) * x for x, m in rows])


def shot_noise(p_data: float, r: ReceiverParams) -> float:
    """Shot-noise variance 2 q (P_data + I_bg) B."""
    _reject(ValueError, ("signal level", p_data, ">= 0"))
    rows, k, i_bg, bandwidth = _rows(p_data), 2.0 * r.electron_charge, r.background_current, r.bandwidth
    return _column(rows, [k * (x + i_bg) * bandwidth for x, in rows])


def thermal_noise(r: ReceiverParams) -> float:
    """Thermal-noise variance 4 K T B / R_L; independent of the signal."""
    return 4.0 * r.boltzmann * r.temperature * r.bandwidth / r.load_resistance


def total_noise(p_data: float, r: ReceiverParams) -> float:
    """Shot plus thermal noise variance."""
    rows, thermal = _rows(shot_noise(p_data, r)), thermal_noise(r)
    return _column(rows, [x + thermal for x, in rows])


def spectral_efficiency(p_data: float, n2_total: float, log_base: float = 2.0) -> float:
    """Half-log capacity figure: 0.5 * log_base(1 + P_data^2 e / (2 pi n2_total)).

    Base 2 yields bit/s/Hz; the base is a reporting choice and is carried in
    dataset metadata.  Where the ratio x = P_data^2 e / (2 pi n2_total)
    overflows, or a product loses digits below the normal range, x is taken
    in logs.
    """
    _reject(ValueError, ("signal level", p_data, ">= 0"), ("total noise", n2_total, "> 0"),
            ("log base", log_base, "> 1"))
    rows, ln_base, log1p, e, two_pi = _rows(p_data, n2_total), math.log(log_base), math.log1p, math.e, 2.0 * math.pi
    return _column(rows, [_half_log1p_in_logs(p, n) / ln_base
                          if (x := (square := p * p) * e / (denominator := two_pi * n)) == _INF
                          or p > 0 and (square < _NORMAL_MIN or not _NORMAL_MIN <= denominator < _INF)
                          else 0.5 * log1p(x) / ln_base
                          for p, n in rows])


def _half_log1p_in_logs(p_data: float, n2_total: float) -> float:
    # 0.5 ln(1 + x) for the ratio x of spectral_efficiency, in logs: ln(1 + x) = max(ln x, 0) + log1p(exp(-|ln x|)).
    ln_x = 2.0 * math.log(p_data) + 1.0 - math.log(2.0 * math.pi) - math.log(n2_total)
    return 0.5 * (max(ln_x, 0.0) + math.log1p(math.exp(-abs(ln_x))))
