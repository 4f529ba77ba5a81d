"""Aperture loss, beam power, effective aperture, PV output."""

import math
import re

import numpy as np
import pytest

from bcrbsim import (
    CavityGeometry,
    LinkBudgetParams,
    beam_power,
    effective_aperture,
    pv_output,
    transmission_loss,
)

LAMBDA = 1064e-9


class TestTransmissionLoss:
    def test_reference_point(self):
        # Direct evaluation: exp(-2 pi (1.5e-3)^2 / (1064e-9 * 3)) = 0.011927161370370514
        assert transmission_loss(3.0, 1.5e-3, LAMBDA, 1.0) == pytest.approx(0.011927161370370514, rel=1e-12)

    def test_large_distance_limit_is_scale(self):
        assert transmission_loss(1e18, 1.5e-3, LAMBDA, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert transmission_loss(1e18, 1.5e-3, LAMBDA, 7.5) == pytest.approx(7.5, rel=1e-12)

    def test_small_distance_limit_is_zero(self):
        assert transmission_loss(1e-6, 1.5e-3, LAMBDA, 1.0) == 0.0

    @pytest.mark.parametrize("d", [5e-324, 1e-320, 2e-318])
    def test_underflowing_distance_gives_the_limit(self, d):
        # LAMBDA * d underflows to 0 here; the loss is its limit at d -> 0+, not a ZeroDivisionError.
        assert LAMBDA * d == 0.0
        assert transmission_loss(d, 1.5e-3, LAMBDA, 10.0) == 0.0

    def test_strictly_increasing_in_distance(self):
        values = [transmission_loss(float(d), 1.5e-3, LAMBDA, 2.0) for d in np.linspace(0.5, 300.0, 50)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_strictly_decreasing_in_aperture(self):
        # capped at 15 mm: larger apertures underflow exp() to exactly 0
        values = [transmission_loss(3.0, float(b), LAMBDA, 2.0) for b in np.linspace(0.5e-3, 15e-3, 50)]
        assert all(b < a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("args", [
        (0.0, 1.5e-3, LAMBDA, 1.0),
        (-1.0, 1.5e-3, LAMBDA, 1.0),
        (3.0, 0.0, LAMBDA, 1.0),
        (3.0, 1.5e-3, 0.0, 1.0),
        (3.0, 1.5e-3, LAMBDA, 0.0),
    ])
    def test_domain_errors(self, args):
        with pytest.raises(ValueError):
            transmission_loss(*args)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("position, name", [(0, "distance"), (1, "aperture radius"), (2, "wavelength"),
                                                (3, "loss_scale")])
    def test_non_finite_rejected_by_name(self, position, name, value):
        # -inf fails the existing > 0 check first.
        args = [3.0, 1.5e-3, LAMBDA, 1.0]
        args[position] = value
        want = f"{name} must be > 0, got -inf" if value < 0 else f"{name} must be finite, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            transmission_loss(*args)


class TestBeamPower:
    def test_lossless_reference_inputs(self):
        # Direct evaluation of the power expression at delta_t = 0:
        # 210 W -> 10.214292485043146 W, 250 W -> 22.032252958384703 W.
        p = LinkBudgetParams()
        assert beam_power(210.0, 0.0, p) == pytest.approx(10.214292485043146, rel=1e-12)
        assert beam_power(250.0, 0.0, p) == pytest.approx(22.032252958384703, rel=1e-12)

    def test_zero_input_clamps(self):
        p = LinkBudgetParams()
        assert beam_power(0.0, 0.0, p) == 0.0
        assert beam_power(0.0, 0.0, p, clamp=False) == pytest.approx(-51.83)

    def test_strictly_decreasing_in_loss(self):
        p = LinkBudgetParams()
        values = [beam_power(210.0, float(x), p, clamp=False) for x in np.linspace(0.0, 2.0, 40)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_affine_in_input_power(self):
        p = LinkBudgetParams()
        p1 = beam_power(200.0, 0.05, p)
        p2 = beam_power(250.0, 0.05, p)
        p3 = beam_power(300.0, 0.05, p)
        assert p2 - p1 == pytest.approx(p3 - p2, rel=1e-9)
        assert p3 > p2 > p1 > 0

    def test_never_negative_when_clamped(self):
        p = LinkBudgetParams()
        rng = np.random.default_rng(3)
        for _ in range(200):
            value = beam_power(float(rng.uniform(0, 300)), float(rng.uniform(0, 5)), p)
            assert value >= 0.0

    def test_domain_errors(self):
        p = LinkBudgetParams()
        with pytest.raises(ValueError):
            beam_power(-1.0, 0.0, p)
        with pytest.raises(ValueError):
            beam_power(210.0, -0.1, p)

    @pytest.mark.parametrize("p_in", [math.nan, math.inf])
    def test_non_finite_input_power(self, p_in):
        with pytest.raises(ValueError, match=re.escape(f"input power must be finite, got {p_in!r}")):
            beam_power(p_in, 0.1, LinkBudgetParams())

    def test_negative_infinite_input_power_is_negative(self):
        with pytest.raises(ValueError, match=re.escape("input power must be >= 0, got -inf")):
            beam_power(-math.inf, 0.1, LinkBudgetParams())


class TestEffectiveAperture:
    def test_layouts(self):
        g = CavityGeometry()
        assert effective_aperture(g, "bcrb") == 10e-3
        assert effective_aperture(g, "original") == 1.5e-3

    def test_equal_apertures_give_equal_loss(self):
        g = CavityGeometry(aperture_gain=2e-3, aperture_tim=2e-3)
        loss_b = transmission_loss(3.0, effective_aperture(g, "bcrb"), LAMBDA, 1.0)
        loss_o = transmission_loss(3.0, effective_aperture(g, "original"), LAMBDA, 1.0)
        assert loss_b == loss_o

    def test_unknown_system(self):
        with pytest.raises(ValueError):
            effective_aperture(CavityGeometry(), "other")


class TestPvOutput:
    def test_plateau_reference_value(self):
        # Direct evaluation: 0.3487 * 22.032252958384703 - 1.535 = 6.147646606588746 W
        p = LinkBudgetParams()
        assert pv_output(22.032252958384703, 1.0, p) == pytest.approx(6.147646606588746, rel=1e-12)

    def test_zero_beam_clamps(self):
        p = LinkBudgetParams()
        assert pv_output(0.0, 1.0, p) == 0.0
        assert pv_output(0.0, 1.0, p, clamp=False) == pytest.approx(-1.535)

    def test_zero_crossing(self):
        p = LinkBudgetParams()
        threshold = -p.pv_intercept / (p.pv_slope * 1.0)
        assert pv_output(threshold, 1.0, p) == pytest.approx(0.0, abs=1e-12)

    def test_mu_domain(self):
        p = LinkBudgetParams()
        with pytest.raises(ValueError):
            pv_output(10.0, 1.5, p)
        with pytest.raises(ValueError):
            pv_output(10.0, -0.1, p)

    def test_never_negative_when_clamped(self):
        p = LinkBudgetParams()
        rng = np.random.default_rng(5)
        for _ in range(200):
            assert pv_output(float(rng.uniform(0, 30)), float(rng.uniform(0, 1)), p) >= 0.0


class TestParamsValidation:
    @pytest.mark.parametrize("kwargs", [
        {"reflectivity": 0.0}, {"reflectivity": 1.0}, {"conversion_efficiency": 0.0},
        {"conversion_efficiency": 1.2}, {"loss_scale": 0.0}, {"pv_slope": -0.1},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            LinkBudgetParams(**kwargs)

    @pytest.mark.parametrize("name, value", [
        (name, value) for name in ("intercept", "loss_scale", "pv_slope", "pv_intercept")
        for value in (math.nan, math.inf, -math.inf) if value != -math.inf or "intercept" in name])
    def test_non_finite_rejected_by_name(self, name, value):
        # These pass the range checks (-inf scales fail them as <= 0), so only the finite check stops them.
        with pytest.raises(ValueError, match=re.escape(f"{name} must be finite, got {value!r}")):
            LinkBudgetParams(**{name: value})

    def test_range_checks_come_first(self):
        with pytest.raises(ValueError, match=re.escape("reflectivity must be in (0, 1), got nan")):
            LinkBudgetParams(reflectivity=math.nan)
