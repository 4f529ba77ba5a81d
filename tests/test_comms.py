"""Detector signal level, noise variances, and spectral efficiency."""

import math
import re
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest

from bcrbsim import (
    LinkBudgetParams,
    ReceiverParams,
    beam_power,
    data_signal,
    shot_noise,
    spectral_efficiency,
    thermal_noise,
    total_noise,
)


class TestDataSignal:
    def test_all_power_to_pv_gives_zero(self):
        r = ReceiverParams(split_ratio=1.0)
        assert data_signal(12.3, r) == 0.0

    def test_reference_split(self):
        # 0.6 * (1 - 0.99) * 7.25 = 0.0435
        r = ReceiverParams(split_ratio=0.99)
        assert data_signal(7.25, r) == pytest.approx(0.0435, rel=1e-12)

    def test_identity_split(self):
        r = ReceiverParams(responsivity=1.0, split_ratio=0.0)
        assert data_signal(7.25, r) == 7.25

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            data_signal(-1.0, ReceiverParams())

    def test_overflowing_product_rejected(self):
        # Finite inputs whose product overflows: rejected with shot_noise's message for that level.
        with pytest.raises(ValueError, match="^signal level must be finite, got inf$"):
            data_signal(1e308, ReceiverParams(responsivity=1e10, split_ratio=0.0))


class TestShotNoise:
    def test_dark_value(self):
        # 2 * 1.602e-19 * 5.1e-3 * 811.7e6 = 1.326350268e-12
        assert shot_noise(0.0, ReceiverParams()) == pytest.approx(1.326350268e-12, rel=1e-12)

    def test_zero_background_zero_signal(self):
        r = ReceiverParams(background_current=0.0)
        assert shot_noise(0.0, r) == 0.0

    def test_affine_doubling(self):
        r = ReceiverParams()
        base = shot_noise(0.0, r)                      # P + I_bg = I_bg
        doubled = shot_noise(r.background_current, r)  # P + I_bg = 2 I_bg
        assert doubled == 2.0 * base


class TestThermalNoise:
    def test_reference_value(self):
        # 4 * 1.38e-23 * 300 * 811.7e6 / 1e4 = 1.3441752e-15
        assert thermal_noise(ReceiverParams()) == pytest.approx(1.3441752e-15, rel=1e-12)

    def test_cold_limit(self):
        assert thermal_noise(ReceiverParams(temperature=0.0)) == 0.0

    def test_inverse_in_load(self):
        r = ReceiverParams()
        r2 = ReceiverParams(load_resistance=2 * r.load_resistance)
        assert thermal_noise(r2) == thermal_noise(r) / 2.0

    def test_independent_of_signal(self):
        r = ReceiverParams()
        assert thermal_noise(r) == thermal_noise(r)  # takes no signal argument at all


class TestTotalNoise:
    def test_exact_sum(self):
        r = ReceiverParams()
        for p_data in (0.0, 0.05, 4.3):
            assert total_noise(p_data, r) == shot_noise(p_data, r) + thermal_noise(r)


def _reference(p_data, n2_total, log_base):
    """0.5 * log_base(1 + p_data^2 e / (2 pi n2_total)) in 400-digit decimals, with the float values of e and pi.

    400 digits keep 1 + x exact enough for a ratio x as small as 1e-300.
    """
    with localcontext() as ctx:
        ctx.prec = 400
        x = Decimal(p_data) ** 2 * Decimal(math.e) / (2 * Decimal(math.pi) * Decimal(n2_total))
        return float((1 + x).ln() / 2 / Decimal(log_base).ln())


class TestSpectralEfficiency:
    def test_zero_signal_zero_capacity(self):
        assert spectral_efficiency(0.0, 1e-12) == 0.0

    def test_full_chain_reference(self):
        # Chain at 200 W pump, zero aperture loss, mu = 0.99:
        # P_beam = 7.25980236670776, P_data = 0.0435588142002466,
        # n2 = 1.265597775462339e-11, C = 12.975402994547 bit/s/Hz.
        link = LinkBudgetParams()
        r = ReceiverParams(split_ratio=0.99)
        p_beam = beam_power(200.0, 0.0, link)
        p_data = data_signal(p_beam, r)
        value = spectral_efficiency(p_data, total_noise(p_data, r))
        assert value == pytest.approx(12.975402994547, rel=1e-9)

    def test_monotone_in_signal(self):
        values = [spectral_efficiency(float(x), 1e-11) for x in np.linspace(0.0, 5.0, 40)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_decreasing_in_split_ratio(self):
        link = LinkBudgetParams()
        p_beam = beam_power(200.0, 0.0, link)
        values = []
        for mu in np.linspace(0.01, 0.99, 25):
            r = ReceiverParams(split_ratio=float(mu))
            p_data = data_signal(p_beam, r)
            values.append(spectral_efficiency(p_data, total_noise(p_data, r)))
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_log_base_choice(self):
        # base e compresses the same argument by ln 2
        value2 = spectral_efficiency(0.05, 1e-11, log_base=2.0)
        value_e = spectral_efficiency(0.05, 1e-11, log_base=math.e)
        assert value_e == pytest.approx(value2 * math.log(2.0), rel=1e-12)

    # (p_data, n2_total, log_base) where p_data^2 e or 2 pi n2_total overflows: the ratio
    # itself overflows; p_data^2 overflows at a ratio of ~29; the noise product overflows.
    # Then where p_data^2, or it and 2 pi n2_total, fall below the normal range: both at a
    # ratio of ~0.4; p_data^2 alone with a base near 1; p_data^2 alone at a ratio of ~4e-21.
    @pytest.mark.parametrize("args", [(1e200, 1.0, 2.0), (1e300, 1e-300, math.e), (1.5e154, 1e306, 2.0),
                                      (1e200, 1e308, 10.0), (1e10, 1e308, 2.0),
                                      (3e-161, 1e-321, 2.0), (1.5853375162713977e-162, 3.142226304996946e-21, 1.0001),
                                      (1e-170, 1e-320, 2.0)])
    def test_overflowing_ratio_taken_in_logs(self, args):
        # The fallback sums logs of up to ~745, so ln x is off by ~1e-13 absolute at most.
        assert spectral_efficiency(*args) == pytest.approx(_reference(*args), rel=1e-12, abs=0.0)

    def test_reference_value_past_overflow(self):
        # 0.5 * log2(1 + 1e400 e / (2 pi)), evaluated to 50 digits.
        assert spectral_efficiency(1e200, 1.0) == pytest.approx(663.78121843318079, rel=1e-12)

    @pytest.mark.parametrize("n2_total", [1e-300, 1.0, 1e306])
    def test_monotone_across_overflow(self, n2_total):
        # The least signal level at which the direct ratio overflows, by bisection.
        lo, hi = 0.0, sys.float_info.max
        while (mid := lo + 0.5 * (hi - lo)) not in (lo, hi):
            lo, hi = (mid, hi) if mid * mid * math.e / (2.0 * math.pi * n2_total) < math.inf else (lo, mid)
        values = [spectral_efficiency(hi * (1.0 + k * 1e-9), n2_total) for k in range(-3, 4)]
        assert all(b > a for a, b in zip(values, values[1:])), values
        below, above = spectral_efficiency(lo, n2_total), spectral_efficiency(hi, n2_total)
        assert above == pytest.approx(below, rel=1e-12) and math.isfinite(above)

    @pytest.mark.parametrize("n2_total", [1e-300, 1e-200, 1e-21])
    def test_monotone_across_signal_underflow(self, n2_total):
        # The least signal level whose square is a normal float, by bisection.
        lo, hi = 0.0, 1.0
        while (mid := lo + 0.5 * (hi - lo)) not in (lo, hi):
            lo, hi = (lo, mid) if mid * mid >= sys.float_info.min else (mid, hi)
        values = [spectral_efficiency(hi * (1.0 + k * 1e-9), n2_total) for k in range(-3, 4)]
        assert all(b > a for a, b in zip(values, values[1:])), values
        below, above = spectral_efficiency(lo, n2_total), spectral_efficiency(hi, n2_total)
        assert above == pytest.approx(below, rel=1e-12) and above > 0.0

    @pytest.mark.parametrize("p_data", [1e-150, 1e-100, 1.0])
    def test_monotone_across_noise_underflow(self, p_data):
        # The least total noise whose 2 pi multiple is a normal float, by bisection.
        lo, hi = 0.0, 1.0
        while (mid := lo + 0.5 * (hi - lo)) not in (lo, hi):
            lo, hi = (lo, mid) if 2.0 * math.pi * mid >= sys.float_info.min else (mid, hi)
        values = [spectral_efficiency(p_data, hi * (1.0 + k * 1e-9)) for k in range(-3, 4)]
        assert all(b < a for a, b in zip(values, values[1:])), values
        below, above = spectral_efficiency(p_data, lo), spectral_efficiency(p_data, hi)
        assert above == pytest.approx(below, rel=1e-12) and math.isfinite(below)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            spectral_efficiency(0.1, 0.0)
        with pytest.raises(ValueError):
            spectral_efficiency(0.1, -1e-12)
        with pytest.raises(ValueError):
            spectral_efficiency(-0.1, 1e-12)
        with pytest.raises(ValueError):
            spectral_efficiency(0.1, 1e-12, log_base=1.0)


class TestReceiverValidation:
    def test_split_ratio_range(self):
        with pytest.raises(ValueError):
            ReceiverParams(split_ratio=1.0001)
        with pytest.raises(ValueError):
            ReceiverParams(split_ratio=-0.0001)

    @pytest.mark.parametrize("kwargs", [
        {"responsivity": 0.0}, {"electron_charge": 0.0}, {"bandwidth": -1.0},
        {"boltzmann": 0.0}, {"load_resistance": 0.0}, {"background_current": -1e-3},
        {"temperature": -1.0},
    ])
    def test_invalid_constants(self, kwargs):
        with pytest.raises(ValueError):
            ReceiverParams(**kwargs)

    @pytest.mark.parametrize("name", ["responsivity", "electron_charge", "background_current", "bandwidth",
                                      "boltzmann", "temperature", "load_resistance"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected_by_name(self, name, value):
        with pytest.raises(ValueError, match=re.escape(f"{name} must be finite, got {value!r}")):
            ReceiverParams(**{name: value})
