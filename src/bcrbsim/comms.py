"""Data branch: detector signal level, noise variances, spectral efficiency.

P_data = gamma (1 - mu) P_beam mixes responsivity [A/W] with optical power;
it is used consistently as a model-internal signal level, feeding the shot
noise and the half-log capacity expression without a unit conversion.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

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
        if not 0.0 <= self.split_ratio <= 1.0:
            raise ValueError(f"split_ratio must be in [0, 1], got {self.split_ratio!r}")
        for name in ("responsivity", "electron_charge", "bandwidth", "boltzmann", "load_resistance"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)!r}")
        # zero is meaningful for these two: dark background, cold limit
        for name in ("background_current", "temperature"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)!r}")


def data_signal(p_beam: float, r: ReceiverParams) -> float:
    """Signal level at the APD: gamma (1 - mu) P_beam; a product too large for a float is rejected."""
    p_data = _data_signal(p_beam, r.responsivity, r.split_ratio)
    if not math.isfinite(p_data):
        raise ValueError(f"signal level must be finite, got {p_data!r}")
    return p_data


def _data_signal(p_beam: float, responsivity: float, mu: float) -> float:
    # data_signal from the receiver's responsivity and split ratio as floats.
    if p_beam < 0:
        raise ValueError(f"beam power must be >= 0, got {p_beam!r}")
    if not math.isfinite(p_beam):
        raise ValueError(f"beam power must be finite, got {p_beam!r}")
    return responsivity * (1.0 - mu) * p_beam


def shot_noise(p_data: float, r: ReceiverParams) -> float:
    """Shot-noise variance 2 q (P_data + I_bg) B."""
    if p_data < 0:
        raise ValueError(f"signal level must be >= 0, got {p_data!r}")
    if not math.isfinite(p_data):
        raise ValueError(f"signal level must be finite, got {p_data!r}")
    return 2.0 * r.electron_charge * (p_data + r.background_current) * r.bandwidth


def thermal_noise(r: ReceiverParams) -> float:
    """Thermal-noise variance 4 K T B / R_L; independent of the signal."""
    return 4.0 * r.boltzmann * r.temperature * r.bandwidth / r.load_resistance


def total_noise(p_data: float, r: ReceiverParams) -> float:
    """Shot plus thermal noise variance."""
    return shot_noise(p_data, r) + thermal_noise(r)


def spectral_efficiency(p_data: float, n2_total: float, log_base: float = 2.0) -> float:
    """Half-log capacity figure: 0.5 * log_base(1 + P_data^2 e / (2 pi n2_total)).

    Base 2 yields bit/s/Hz; the base is a reporting choice and is carried in
    dataset metadata.
    """
    if n2_total <= 0:
        raise ValueError(f"total noise must be > 0, got {n2_total!r}")
    if p_data < 0:
        raise ValueError(f"signal level must be >= 0, got {p_data!r}")
    if log_base <= 1.0:
        raise ValueError(f"log base must be > 1, got {log_base!r}")
    if not math.isfinite(p_data):
        raise ValueError(f"signal level must be finite, got {p_data!r}")
    if not math.isfinite(n2_total):
        raise ValueError(f"total noise must be finite, got {n2_total!r}")
    if not math.isfinite(log_base):
        raise ValueError(f"log base must be finite, got {log_base!r}")
    square, denominator = p_data * p_data, 2.0 * math.pi * n2_total
    snr_like = square * math.e / denominator
    if snr_like == math.inf or (p_data > 0 and (square < _NORMAL_MIN or not _NORMAL_MIN <= denominator < math.inf)):
        # A product overflowed or lost digits below the normal range, so take the ratio x in logs:
        # ln(1 + x) = max(ln x, 0) + log1p(exp(-|ln x|)).
        ln_x = 2.0 * math.log(p_data) + 1.0 - math.log(2.0 * math.pi) - math.log(n2_total)
        return 0.5 * (max(ln_x, 0.0) + math.log1p(math.exp(-abs(ln_x)))) / math.log(log_base)
    return 0.5 * math.log1p(snr_like) / math.log(log_base)
