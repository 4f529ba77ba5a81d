"""Spot radii on the mirrors and the gain module."""

import math
import re

import numpy as np
import pytest

from bcrbsim import (
    CavityGeometry,
    InvalidElementError,
    TransferMatrix,
    UnstableCavityError,
    cavity_spot_radii,
    default_scenario,
    generate_figure,
    mirror_spot_radii,
    operating_point,
    propagate_spot,
    round_trip_bcrb,
)
from dataclasses import replace

from bcrbsim.sweep_search import _grid

LAMBDA = 1064e-9


def spot_oracle(a, b, d, wavelength):
    # Direct evaluation of the two fourth-power expressions.
    scale = (wavelength / math.pi) ** 2
    w1_4 = -scale * b * b * d / (a * (a * d - 1.0))
    w2_4 = -scale * b * b * a / (d * (a * d - 1.0))
    return w1_4 ** 0.25, w2_4 ** 0.25


class TestMirrorSpotRadii:
    def test_reference_geometry_values(self):
        m = round_trip_bcrb(CavityGeometry(d=2.6))
        w1, w2 = mirror_spot_radii(m, LAMBDA)
        ow1, ow2 = spot_oracle(m.a, m.b, m.d, LAMBDA)
        assert w1 == pytest.approx(ow1, rel=1e-12)
        assert w2 == pytest.approx(ow2, rel=1e-12)
        # sub-millimeter transmitter-side spot for the reference design
        assert 0.1e-3 < w1 < 0.4e-3

    def test_unstable_matrix_rejected(self):
        with pytest.raises(UnstableCavityError):
            mirror_spot_radii(TransferMatrix(1.2, 0.5, 0.88, 1.2), LAMBDA)

    def test_zero_b_names_failed_radicand(self):
        with pytest.raises(UnstableCavityError, match="omega1"):
            mirror_spot_radii(TransferMatrix(0.5, 0.0, -1.5, 0.5), LAMBDA)

    def test_underflowing_omega2_radicand_names_omega2(self):
        # a*d = 0.1 is stable and omega1's radicand is positive, but b*b*a underflows: omega2's radicand is 0.
        with pytest.raises(UnstableCavityError, match=re.escape(
                "omega2 radicand nonpositive (0.0); cavity at or beyond stability boundary")):
            mirror_spot_radii(TransferMatrix(1e-10, 1e-150, 0.0, 1e9), LAMBDA)

    def test_symmetric_matrix_equal_spots(self):
        # a == d makes both expressions identical
        m = TransferMatrix(0.5, 1.0, -0.75, 0.5)
        w1, w2 = mirror_spot_radii(m, LAMBDA)
        assert w1 == w2

    def test_bad_wavelength(self):
        m = round_trip_bcrb(CavityGeometry())
        with pytest.raises(ValueError):
            mirror_spot_radii(m, 0.0)

    @pytest.mark.parametrize("wavelength", [math.nan, math.inf, -math.inf])
    def test_non_finite_wavelength(self, wavelength):
        # Checked after the > 0 and stability checks, which keep their order and messages.
        want = f"wavelength must be {'> 0' if wavelength < 0 else 'finite'}, got {wavelength!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            mirror_spot_radii(round_trip_bcrb(CavityGeometry()), wavelength)
        if wavelength > 0 or math.isnan(wavelength):
            with pytest.raises(UnstableCavityError):
                mirror_spot_radii(TransferMatrix(1.2, 0.5, 0.88, 1.2), wavelength)

    @pytest.mark.parametrize("wavelength", [1e155, 1e200, 1.7976931348623157e308])
    def test_overflowing_wavelength_named(self, wavelength):
        # (wavelength/pi)^2 overflows above ~4e154 m; the error names the wavelength, not an inf radius.
        want = f"wavelength {wavelength!r} m is too long"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}"):
            mirror_spot_radii(round_trip_bcrb(CavityGeometry()), wavelength)
        with pytest.raises(ValueError, match=f"^{re.escape(want)}"):
            cavity_spot_radii(CavityGeometry(wavelength=wavelength))
        with pytest.raises(ValueError, match=f"^{re.escape(want)}"):
            operating_point(replace(default_scenario(), geometry=CavityGeometry(wavelength=wavelength)))

    def test_overflowing_radicand_keeps_the_square_root_law(self):
        # At 1e154 m the omega2 radicand -scale b^2 a / (d (a d - 1)) overflows before its division, though
        # omega2 ~ 1.6e77 m is finite; its fourth root is then taken factor by factor.  omega ~ sqrt(lambda).
        m = round_trip_bcrb(CavityGeometry())
        high, low = mirror_spot_radii(m, 1e154), mirror_spot_radii(m, 1e150)
        assert math.isfinite(high[1])
        assert high[1] / low[1] == pytest.approx(100.0, rel=1e-12)
        assert high[0] / low[0] == pytest.approx(100.0, rel=1e-12)
        assert cavity_spot_radii(CavityGeometry(wavelength=1e154)).omega2 == high[1]

    def test_stable_scan_never_raises(self):
        # Radicands stay positive across a stable distance interval.
        g = CavityGeometry()
        for d in np.linspace(0.5, 8.5, 100):
            m = round_trip_bcrb(replace(g, d=float(d)))
            w1, w2 = mirror_spot_radii(m, LAMBDA)
            assert w1 > 0 and w2 > 0 and math.isfinite(w1) and math.isfinite(w2)


class TestPropagateSpot:
    def test_zero_distance_identity(self):
        assert propagate_spot(0.3e-3, -0.880, 0.0, LAMBDA) == 0.3e-3

    @pytest.mark.parametrize("omega1", [5e-324, 1e-308, 1e-170])
    def test_underflowing_omega1_squared(self, omega1):
        # pi*omega1^2 underflows to 0; omega3 is then the hypotenuse of the two legs, omega1 at L1 = 0.
        assert math.pi * omega1 * omega1 == 0.0
        assert propagate_spot(omega1, -0.880, 0.0, LAMBDA) == omega1
        legs = (omega1 * (1.0 - 1e-3 / 0.880), 1e-3 * LAMBDA / (math.pi * omega1))
        assert propagate_spot(omega1, -0.880, 1e-3, LAMBDA) == math.hypot(*legs)

    def test_overflowing_square_takes_the_hypotenuse(self):
        # (L1 lambda / (pi omega1^2))^2 overflows at omega1 = 1e-83 m, though omega3 ~ 3.3868e73 m is finite.
        legs = (1e-83 * (1.0 - 1e-3 / 0.880), 1e-3 * LAMBDA / (math.pi * 1e-83))
        assert propagate_spot(1e-83, -0.880, 1e-3, LAMBDA) == math.hypot(*legs)
        assert propagate_spot(1e-83, -0.880, 1e-3, LAMBDA) == pytest.approx(3.3868e73, rel=1e-4)

    def test_short_gap_value(self):
        # Direct evaluation with omega1 = 0.3 mm, rho1 = -0.880 m, L1 = 1 mm:
        # omega3 = 2.9966121749047e-4 m, i.e. within 1% of omega1.
        w3 = propagate_spot(0.3e-3, -0.880, 1e-3, LAMBDA)
        assert w3 == pytest.approx(2.9966121749047e-4, rel=1e-10)
        assert abs(w3 - 0.3e-3) / 0.3e-3 < 0.01

    def test_geometric_term_vanishes_at_mirror_focus(self):
        # L1 = |rho1| with negative rho1 kills the first bracket term.
        w1 = 0.3e-3
        L1 = 0.880
        w3 = propagate_spot(w1, -0.880, L1, LAMBDA)
        assert w3 == pytest.approx(L1 * LAMBDA / (math.pi * w1), rel=1e-12)

    @pytest.mark.parametrize("kwargs", [
        {"omega1": 0.0}, {"omega1": -1e-4}, {"wavelength": 0.0}, {"L1": -1e-3},
    ])
    def test_domain_errors(self, kwargs):
        base = {"omega1": 0.3e-3, "rho1": -0.88, "L1": 1e-3, "wavelength": LAMBDA}
        base.update(kwargs)
        with pytest.raises(ValueError):
            propagate_spot(base["omega1"], base["rho1"], base["L1"], base["wavelength"])

    def test_flat_limit_needs_nonzero_rho1(self):
        # rho1 = 0 once divided by zero; it gets the geometry's own message instead.
        with pytest.raises(InvalidElementError, match=re.escape("rho1 must be nonzero (use |rho| >= 1e9")):
            propagate_spot(1e-3, 0.0, 1e-3, 1e-6)
        with pytest.raises(ValueError, match="L1 must be >= 0"):
            propagate_spot(1e-3, 0.0, -1e-3, 1e-6)
        # So does a radius whose reciprocal overflows, which CavityGeometry rejects too.
        with pytest.raises(InvalidElementError, match=re.escape("|rho1| must be > 2**-1024, got 1e-310")):
            propagate_spot(1e-3, -1e-310, 0.0, 1e-6)


class TestCavitySpotRadii:
    def test_compression_beats_baseline_everywhere(self):
        # Over the comparison range the telescope keeps the gain-module spot
        # strictly below the baseline system's.
        g = CavityGeometry()
        for d in np.linspace(1.5, 6.0, 20):
            gd = replace(g, d=float(d))
            compressed = cavity_spot_radii(gd, "bcrb").omega3
            baseline = cavity_spot_radii(gd, "original").omega3
            assert compressed < baseline

    def test_omega3_close_to_omega1_for_adjacent_mirror(self):
        spots = cavity_spot_radii(CavityGeometry(), "bcrb")
        assert abs(spots.omega3 - spots.omega1) / spots.omega1 < 0.01

    def test_unknown_system(self):
        with pytest.raises(ValueError):
            cavity_spot_radii(CavityGeometry(), "hybrid")

    def test_omega2_positive_finite(self):
        spots = cavity_spot_radii(CavityGeometry(), "original")
        assert spots.omega1 > 0 and spots.omega2 > 0 and spots.omega3 > 0

    def test_a_column_names_its_first_unstable_row(self):
        # fig6 takes omega3 over its whole d column (1.5 to 6 m).  With rho2 = 3 m the cavity is stable at
        # 1.5 m and unstable further out; the error names the a*d of the first unstable row.
        s = default_scenario()
        g = replace(s.geometry, rho2=3.0)
        products = [m.a * m.d for m in (round_trip_bcrb(replace(g, d=d)) for d in _grid(1.5, 6.0, 91))]
        first = next(p for p in products if not 0.0 < p < 1.0)
        assert 0.0 < products[0] < 1.0 and repr(first) == "-0.008252016405633156"
        message = f"round trip unstable: a*d = {first!r} outside (0, 1)"
        with pytest.raises(UnstableCavityError, match=re.escape(message)):
            generate_figure("fig6", replace(s, geometry=g))
