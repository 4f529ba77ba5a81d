"""Boundary searches, calibration, and figure dataset generation."""

import math
import re
import statistics
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from bcrbsim import (
    CavityGeometry,
    InfeasibleSearchError,
    LinkBudgetParams,
    NoStableRegionError,
    SweepSpec,
    TransferMatrix,
    UnstableCavityError,
    beam_power,
    calibrate_loss_scale,
    cavity_spot_radii,
    default_scenario,
    generate_figure,
    max_spot_over_range,
    max_stable_distance,
    operating_point,
    required_rho2,
    resolve_link_params,
    run_sweep,
    transmission_loss,
)
from bcrbsim import sweep_search
from bcrbsim.ray_matrix import round_trip, round_trip_prefix
from bcrbsim.sweep_search import (
    ANCHOR_BEAM_POWER,
    ANCHOR_DISTANCE,
    ANCHOR_INPUT_POWER,
    FIGURE_IDS,
    _bands,
    _stable_at,
    stability_bands,
)

LAMBDA = 1064e-9


class TestMaxStableDistance:
    def test_boundary_brackets(self):
        g = CavityGeometry()
        d_max = max_stable_distance(g, 100.0)
        assert _stable_at(g, d_max - 2e-3)
        assert not _stable_at(g, d_max + 2e-3)

    def test_dense_scan_oracle(self):
        # Independent oracle: locate the last stable point on a 0.5 mm grid.
        g = CavityGeometry()
        d_max = max_stable_distance(g, 100.0)
        grid = np.arange(8.5, 9.0, 5e-4)
        stable = [d for d in grid if _stable_at(g, float(d))]
        boundary = max(stable)
        assert abs(boundary - d_max) < 1.5e-3

    def test_monotone_in_rho2(self):
        g10 = CavityGeometry(rho2=10.0)
        g20 = CavityGeometry(rho2=20.0)
        assert max_stable_distance(g20, 60.0) > max_stable_distance(g10, 60.0)

    def test_ordering_in_magnification(self):
        g35 = CavityGeometry(magnification=3.5)
        g50 = CavityGeometry(magnification=5.0)
        assert max_stable_distance(g50, 60.0) <= max_stable_distance(g35, 60.0)

    def test_cap_returned_when_band_reaches_it(self):
        g = CavityGeometry()
        assert max_stable_distance(g, 5.0) == 5.0

    def test_no_stable_region(self):
        with pytest.raises(NoStableRegionError):
            max_stable_distance(CavityGeometry(rho2=-10.0), 20.0)

    def test_band_scan_single_band(self):
        bands = stability_bands(CavityGeometry(), 20.0)
        assert len(bands) == 1
        lo, hi = bands[0]
        assert lo <= 0.2 and 8.5 < hi < 8.8

    def test_domain_errors(self):
        g = CavityGeometry()
        with pytest.raises(ValueError):
            max_stable_distance(g, 0.0)
        with pytest.raises(ValueError):
            max_stable_distance(g, 10.0, tol=0.0)


class TestExactBands:
    # Geometries on which a fixed 0.1 m scan stride gave a wrong answer.
    NARROW_FIRST = CavityGeometry(rho1=0.36, rho2=-9.47, f_gain=0.33, f1=0.043,
                                  magnification=0.71, L1=0.005, L2=0.04)
    LATER_BAND = CavityGeometry(rho1=-2.7, rho2=0.67, f_gain=0.21, f1=0.003,
                                magnification=0.82, L1=0.004, L2=0.14)
    NARROW_GAP = CavityGeometry(rho1=-24.1, rho2=1.01, f_gain=0.24, f1=0.009,
                                magnification=2.0, L1=0.0, L2=0.21)
    SUB_SAMPLE_GAP = CavityGeometry(rho1=-3.96, rho2=0.48, f_gain=0.22, f1=0.002,
                                    magnification=1.43, L1=0.003, L2=0.0)

    @staticmethod
    def assert_upper_edge(g, d_max, expected):
        assert d_max == pytest.approx(expected, abs=1e-9)
        assert _stable_at(g, d_max) and not _stable_at(g, d_max + 1e-9)

    def test_first_band_narrower_than_stride(self):
        # Stable only below 0.0749 m, short of the first 0.1 m scan point.
        g = self.NARROW_FIRST
        assert len(stability_bands(g, 20.0)) == 1
        self.assert_upper_edge(g, max_stable_distance(g, 20.0), 0.0749018387)

    def test_first_band_edge_not_a_later_one(self):
        # Bands (0, 0.0594) and (0.5736, 0.7294): the first is not skipped.
        g = self.LATER_BAND
        assert len(stability_bands(g, 20.0)) == 2
        self.assert_upper_edge(g, max_stable_distance(g, 20.0), 0.0594004712)

    def test_bands_across_narrow_gap_not_merged(self):
        # Bands (0, 0.1117) and (0.1520, 1.1217): a 0.04 m unstable gap.
        g = self.NARROW_GAP
        (_, first_hi), (second_lo, _) = stability_bands(g, 20.0)
        assert second_lo - first_hi == pytest.approx(0.0403, abs=1e-4)
        assert not _stable_at(g, 0.5 * (first_hi + second_lo))
        self.assert_upper_edge(g, max_stable_distance(g, 20.0), 0.1116563286)

    def test_band_edges_are_stable_points(self):
        for g in (self.NARROW_FIRST, self.LATER_BAND, self.NARROW_GAP, CavityGeometry()):
            for lo, hi in stability_bands(g, 20.0):
                assert 0.0 < lo < hi
                assert _stable_at(g, lo) and _stable_at(g, hi)

    def test_stable_neighbours_joined_across_a_tangent_root(self):
        # Stable on both sides of the root 0.5, so it is a tangent point: one band, walked in from 0.
        assert _bands([0.5], 1.0, lambda x: True) == [(5e-324, 1.0)]

    def test_unstable_gap_between_spot_samples_is_seen(self):
        # A 2.5 mm unstable gap at 0.4726 m, narrower than the 4.5 mm spacing
        # of the 201 spot samples on [0.05, 0.95] m.
        with pytest.raises(UnstableCavityError, match="unstable at d = 0.472551 m"):
            max_spot_over_range(self.SUB_SAMPLE_GAP, 0.05, 0.95)


class TestRequiredRho2:
    def test_inverse_sandwich(self):
        g = CavityGeometry(rho2=10.0)
        d_max = max_stable_distance(g, 60.0)
        assert required_rho2(g, d_max, 60.0) <= 10.0

    def test_boundary_brackets(self):
        g = CavityGeometry()
        rho2_min = required_rho2(g, 20.0, 80.0)
        assert _stable_at(replace(g, rho2=rho2_min), 20.0)
        assert not _stable_at(replace(g, rho2=rho2_min * 0.999), 20.0)

    def test_monotone_in_distance(self):
        g = CavityGeometry()
        assert required_rho2(g, 40.0, 80.0) >= required_rho2(g, 10.0, 80.0)

    def test_rises_with_magnification(self):
        values = [required_rho2(CavityGeometry(magnification=m), 20.0, 80.0)
                  for m in (2.0, 3.5, 5.0)]
        assert values[0] < values[1] < values[2]

    def test_infeasible(self):
        with pytest.raises(InfeasibleSearchError):
            required_rho2(CavityGeometry(), 10.0, 1.0)


class TestStabilityBoundaryLaw:
    """For the reference design the binding edge is D = 0, i.e. rho2 = d + c(M) with c(M) = x.b / x.d of
    the d-free bcrb prefix x: every fig8 cell is rho2 - c(M) and every fig9 cell is d + c(M).

    Both sides round: c takes one division and the law one addition, the search's root comes from
    _roots and its edge is walked inward to a point is_stable accepts.  The bound is 4 ulps of the
    law's value; the largest gap on these grids is 3 ulps (1.4e-14 m in fig8, 2.1e-14 m in fig9).
    """

    @staticmethod
    def c(m):
        x, _ = round_trip_prefix(CavityGeometry(magnification=m), "bcrb")
        return x.b / x.d

    @staticmethod
    def assert_law(cell, law):
        assert abs(cell - law) <= 4 * math.ulp(law), (cell, law)

    def test_law_constants(self):
        assert [round(self.c(m), 6) for m in (2.5, 3.5, 5.0)] == [0.668757, 1.324764, 2.725028]
        self.assert_law(max_stable_distance(CavityGeometry(), 100.0), 10.0 - self.c(3.5))

    def test_fig8_cells_are_rho2_minus_c(self):
        for rho2, *cells in generate_figure("fig8").rows:
            for m, cell in zip((2.5, 3.5, 5.0), cells):
                self.assert_law(cell, rho2 - self.c(m))

    def test_fig9_cells_are_d_plus_c(self):
        for m, *cells in generate_figure("fig9").rows:
            for d, cell in zip((10.0, 20.0, 30.0, 40.0), cells):
                self.assert_law(cell, d + self.c(m))


class TestMaxSpotOverRange:
    def test_single_point_equals_direct_value(self):
        g = CavityGeometry(rho2=50.0)
        direct = cavity_spot_radii(replace(g, d=5.0), "bcrb").omega3
        assert max_spot_over_range(g, 5.0, 5.0) == direct

    def test_ordering_in_magnification(self):
        g2 = CavityGeometry(rho2=50.0, magnification=2.0)
        g5 = CavityGeometry(rho2=50.0, magnification=5.0)
        assert max_spot_over_range(g5, 1.0, 10.0) < max_spot_over_range(g2, 1.0, 10.0)

    def test_ordering_in_range(self):
        g = CavityGeometry(rho2=50.0)
        assert max_spot_over_range(g, 1.0, 40.0) >= max_spot_over_range(g, 1.0, 10.0)

    def test_unstable_range_names_distance(self):
        with pytest.raises(UnstableCavityError, match="unstable at d"):
            max_spot_over_range(CavityGeometry(rho2=10.0), 1.0, 12.0)

    def test_domain_errors(self):
        g = CavityGeometry(rho2=50.0)
        with pytest.raises(ValueError):
            max_spot_over_range(g, 0.0, 10.0)
        with pytest.raises(ValueError):
            max_spot_over_range(g, 10.0, 5.0)

    @pytest.mark.parametrize("samples", [1, 0, -3])
    def test_fewer_than_two_samples_rejected(self, samples):
        with pytest.raises(ValueError, match=re.escape(f"samples must be >= 2, got {samples!r}")):
            max_spot_over_range(CavityGeometry(rho2=50.0), 1.0, 10.0, samples=samples)

    def test_non_integer_samples_rejected(self):
        with pytest.raises(ValueError, match=re.escape("samples must be an integer, got 10.5")):
            max_spot_over_range(CavityGeometry(rho2=50.0), 1.0, 5.0, 10.5)

    def test_fig10_closes_few_round_trips_per_cell(self, monkeypatch):
        # The band search and the samples next to the ends and to the stationary
        # points of omega1; the 201-sample scan closed 204 per cell.  Every close,
        # band test or sample, goes through the float-level _close.
        calls = []
        close = sweep_search._close
        monkeypatch.setattr(sweep_search, "_close", lambda *args: calls.append(1) or close(*args))
        ds = generate_figure("fig10")
        cells = len(ds.rows) * (len(ds.columns) - 1)
        assert cells == 64
        assert len(calls) <= 10 * cells

    @pytest.mark.parametrize("edge_gap, conditioned", [(1e-3, True), (1e-5, False)])
    def test_shortcut_only_where_well_conditioned(self, monkeypatch, edge_gap, conditioned):
        # A*D falls to 0 at the upper edge of this band.  A range that ends edge_gap short
        # of it has A*D there on one side of _CONDITIONED: above it a few samples are
        # evaluated, below it every one; both give the value of the full scan.
        g = CavityGeometry(rho2=10.0)
        d_hi = stability_bands(g, 60.0)[0][1] * (1.0 - edge_gap)
        end = round_trip(replace(g, d=d_hi), "bcrb")
        assert (sweep_search._CONDITIONED < end.a * end.d < 1.0 - sweep_search._CONDITIONED) == conditioned
        calls = []
        close = sweep_search._close
        monkeypatch.setattr(sweep_search, "_close", lambda *args: calls.append(1) or close(*args))
        got = max_spot_over_range(g, 1.0, d_hi, 201)
        assert (len(calls) < 201) == conditioned
        assert got == max(cavity_spot_radii(replace(g, d=d)).omega3 for d in sweep_search._grid(1.0, d_hi, 201))


class TestSearchCaps:
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_caps_rejected(self, value):
        g = CavityGeometry(rho2=50.0)
        for name, search in (("d_hi", lambda: stability_bands(g, value)),
                             ("d_hi", lambda: max_stable_distance(g, value)),
                             ("rho2_hi", lambda: required_rho2(g, 10.0, value)),
                             ("d_lo", lambda: max_spot_over_range(g, value, 10.0)),
                             ("d_hi", lambda: max_spot_over_range(g, 1.0, value)),
                             ("tol", lambda: max_stable_distance(g, 10.0, tol=value))):
            with pytest.raises(ValueError, match=f"{name} must be finite, got {value!r}"):
                search()


class TestCalibration:
    def test_reference_anchor_value(self):
        # Inverting the power model at the anchor gives
        # delta_t* = 0.12296430469056308 and N = 10.309603506835359.
        n = calibrate_loss_scale(ANCHOR_DISTANCE, ANCHOR_BEAM_POWER, ANCHOR_INPUT_POWER,
                                 1.5e-3, LAMBDA, LinkBudgetParams())
        assert n == pytest.approx(10.309603506835359, rel=1e-12)
        assert n > 1.0

    def test_round_trip_reproduces_anchor(self):
        p = LinkBudgetParams()
        n = calibrate_loss_scale(ANCHOR_DISTANCE, ANCHOR_BEAM_POWER, ANCHOR_INPUT_POWER,
                                 1.5e-3, LAMBDA, p)
        delta = transmission_loss(ANCHOR_DISTANCE, 1.5e-3, LAMBDA, n)
        assert beam_power(ANCHOR_INPUT_POWER, delta, p) == pytest.approx(ANCHOR_BEAM_POWER, abs=1e-6)

    def test_zero_loss_anchor_infeasible(self):
        # Asking for the lossless beam power forces delta_t* = 0 and N = 0.
        p = LinkBudgetParams()
        lossless = beam_power(ANCHOR_INPUT_POWER, 0.0, p)
        with pytest.raises(InfeasibleSearchError):
            calibrate_loss_scale(ANCHOR_DISTANCE, lossless, ANCHOR_INPUT_POWER, 1.5e-3, LAMBDA, p)
        with pytest.raises(InfeasibleSearchError):
            calibrate_loss_scale(ANCHOR_DISTANCE, lossless + 5.0, ANCHOR_INPUT_POWER, 1.5e-3, LAMBDA, p)

    @pytest.mark.parametrize("anchor_d, aperture", [
        (3.0, 2.0),                                                 # the exponential underflows to 0
        (5e-324, 1.5e-3),                                           # so does wavelength * anchor_d
        (3.0, math.sqrt(720.0 * LAMBDA * 3.0 / (2.0 * math.pi))),   # exp(-720): N overflows
    ])
    def test_non_finite_scale_infeasible(self, anchor_d, aperture):
        message = f"anchor distance {anchor_d!r} m, aperture {aperture!r} m and wavelength {LAMBDA!r} m"
        with pytest.raises(InfeasibleSearchError, match=re.escape(message)):
            calibrate_loss_scale(anchor_d, 5.0, 210.0, aperture, LAMBDA, LinkBudgetParams())

    def test_large_finite_scale_kept(self):
        # exp(-700) is a normal float, and N = delta_t* * e**700 is finite.
        aperture = math.sqrt(700.0 * LAMBDA * 3.0 / (2.0 * math.pi))
        n = calibrate_loss_scale(3.0, 5.0, 210.0, aperture, LAMBDA, LinkBudgetParams())
        assert n == pytest.approx(0.12296430469056308 * math.exp(700.0), rel=1e-9)

    def test_resolve_link_params(self):
        s = default_scenario()
        link = resolve_link_params(s)
        assert link.loss_scale == pytest.approx(10.309603506835359, rel=1e-12)
        explicit = replace(s, model_choices=replace(s.model_choices, n_source="explicit"))
        assert resolve_link_params(explicit).loss_scale == 1.0

    def test_domain_errors(self):
        p = LinkBudgetParams()
        with pytest.raises(ValueError):
            calibrate_loss_scale(0.0, 5.0, 210.0, 1.5e-3, LAMBDA, p)
        with pytest.raises(ValueError):
            calibrate_loss_scale(3.0, 5.0, 0.0, 1.5e-3, LAMBDA, p)

    @pytest.mark.parametrize("value", [0.0, -1e-3, -math.inf])
    @pytest.mark.parametrize("position, name", [(3, "aperture"), (4, "wavelength")])
    def test_nonpositive_aperture_or_wavelength_named(self, position, name, value):
        args = [ANCHOR_DISTANCE, ANCHOR_BEAM_POWER, ANCHOR_INPUT_POWER, 1.5e-3, LAMBDA]
        args[position] = value
        with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be > 0, got {value!r}')}$"):
            calibrate_loss_scale(*args, LinkBudgetParams())
        # With both nonpositive, the aperture is named.
        with pytest.raises(ValueError, match=f"^{re.escape(f'aperture must be > 0, got {value!r}')}$"):
            calibrate_loss_scale(*args[:3], value, value, LinkBudgetParams())

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("position, name", [(0, "anchor distance"), (1, "anchor beam power"),
                                                (2, "anchor input power"), (3, "aperture"), (4, "wavelength")])
    def test_non_finite_arguments(self, position, name, value):
        args = [ANCHOR_DISTANCE, ANCHOR_BEAM_POWER, ANCHOR_INPUT_POWER, 1.5e-3, LAMBDA]
        args[position] = value
        with pytest.raises(ValueError, match=re.escape(f"{name} must be finite, got {value!r}")):
            calibrate_loss_scale(*args, LinkBudgetParams())


class TestOperatingPoint:
    def test_reference_point(self):
        s = default_scenario()
        point = operating_point(s, "bcrb", d=2.6, p_in=210.0, mu=1.0)
        assert point["stable"] is True
        assert 0.0 < point["stability_product"] < 1.0
        assert point["omega3"] < 0.4e-3
        assert point["beam_power"] == pytest.approx(10.214292485043146, rel=1e-6)

    def test_unstable_point_has_nan_spots(self):
        s = default_scenario()
        point = operating_point(s, "bcrb", d=20.0)
        assert point["stable"] is False
        assert math.isnan(point["omega1"]) and math.isnan(point["omega3"])
        assert point["beam_power"] > 0  # power chain independent of the cavity matrix

    def test_unknown_system(self):
        with pytest.raises(ValueError):
            operating_point(default_scenario(), "both")


class TestFigureDatasets:
    def test_unknown_figure(self):
        with pytest.raises(ValueError):
            generate_figure("fig99")

    @pytest.mark.parametrize("cells, n_rows, name, length", [
        (([1.0, 2.0], [3.0]), 2, "b", 1),             # the second column is short
        (([1.0, 2.0, 3.0], 4.0), 2, "a", 3),          # the first is long; a value is every row's cell
        (([1.0], [2.0, 3.0]), 2, "a", 1),             # both are bad: the first is named
        ((5.0, []), 1, "b", 0),
        (([], [0.0]), 0, "b", 1),
    ])
    def test_first_bad_column_length_named(self, cells, n_rows, name, length):
        with pytest.raises(ValueError, match=f"^column '{name}' has {length} cells for {n_rows} rows$"):
            sweep_search.FigureDataset("t", ("a", "b"), cells, n_rows, {})

    @pytest.mark.parametrize("cells, n_rows, match", [
        (([1.0],), 1, "^1 cell columns != column count 2$"),
        (([1.0], [2.0], [3.0]), 1, "^3 cell columns != column count 2$"),
        ((1.0, 2.0), -1, "^row count -1 is negative$"),
    ])
    def test_cell_columns_and_row_count_checked(self, cells, n_rows, match):
        with pytest.raises(ValueError, match=match):
            sweep_search.FigureDataset("t", ("a", "b"), cells, n_rows, {})

    def test_rows_and_columns_from_lists_and_values(self):
        ds = sweep_search.FigureDataset("t", ("a", "b", "c"), ([1.0, 2.0], 0.5, [True, -0.0]), 2, {})
        assert ds.rows == ((1.0, 0.5, True), (2.0, 0.5, -0.0))
        assert (ds.column("a"), ds.column("b"), ds.column("c")) == ([1.0, 2.0], [0.5, 0.5], [True, -0.0])
        ds.column("a").append(3.0)  # a view: the dataset keeps its cells
        assert ds.column("a") == [1.0, 2.0]

    @pytest.mark.parametrize("n_rows", [0, 1, 3])
    def test_no_columns_keeps_its_row_count(self, n_rows):
        ds = sweep_search.FigureDataset("t", (), (), n_rows, {})
        assert ds.rows == ((),) * n_rows

    def test_deterministic_regeneration(self):
        s = default_scenario()
        a = generate_figure("fig8", s)
        b = generate_figure("fig8", s)
        assert a == b

    def test_fig6_compression_comparison(self):
        ds = generate_figure("fig6")
        bcrb = ds.column("omega3_bcrb [m]")
        orig = ds.column("omega3_original [m]")
        assert max(bcrb) < 0.4e-3
        assert min(orig) > 0.4e-3

    def test_fig7_efficiency_ordering(self):
        ds = generate_figure("fig7")
        p_in = ds.column("P_in [W]")
        eff_b = ds.column("efficiency_bcrb [-]")
        eff_o = ds.column("efficiency_original [-]")
        top = p_in.index(300.0)
        assert eff_b[top] > eff_o[top]
        assert eff_b[top] == pytest.approx(0.12, abs=0.01)
        assert eff_o[top] == pytest.approx(0.10, abs=0.01)

    def test_fig8_ordering_and_columns(self):
        ds = generate_figure("fig8")
        assert ds.columns[0] == "rho2 [m]"
        d25 = ds.column("d_max_M2.5 [m]")
        d35 = ds.column("d_max_M3.5 [m]")
        d50 = ds.column("d_max_M5 [m]")
        for a, b, c in zip(d25, d35, d50):
            assert a > b > c

    def test_fig9_monotone_in_distance(self):
        ds = generate_figure("fig9")
        r10 = ds.column("rho2_min_d10 [m]")
        r40 = ds.column("rho2_min_d40 [m]")
        assert all(b > a for a, b in zip(r10, r40))
        # rises with magnification along each series
        assert all(b >= a for a, b in zip(r10, r10[1:]))

    def test_fig10_orderings(self):
        ds = generate_figure("fig10")
        w10 = ds.column("omega3_max_d10 [m]")
        w40 = ds.column("omega3_max_d40 [m]")
        assert all(b >= a for a, b in zip(w10, w40))
        # decreasing in magnification along each series
        assert all(b < a for a, b in zip(w10, w10[1:]))
        assert all(b < a for a, b in zip(w40, w40[1:]))

    def test_fig11_plateau_and_cutoffs(self):
        ds = generate_figure("fig11")
        d = ds.column("d [m]")
        n20 = len(d) // 5
        cutoffs = []
        plateaus = []
        for name in ("P_out_Pin200 [W]", "P_out_Pin225 [W]", "P_out_Pin250 [W]"):
            y = ds.column(name)
            plateaus.append(statistics.median(y[:n20]))
            cutoffs.append(next(dv for dv, v in zip(d, y) if v == 0.0))
        assert plateaus[2] == pytest.approx(6.0, abs=1.0)
        assert cutoffs[0] < cutoffs[1] < cutoffs[2]

    def test_fig12_split_ratio_ordering(self):
        ds = generate_figure("fig12")
        d = ds.column("d [m]")
        n20 = len(d) // 5
        series = [ds.column(name) for name in ds.columns[1:]]  # mu ascending
        for i in range(n20):
            values = [col[i] for col in series]
            assert all(b < a for a, b in zip(values, values[1:]))

    def test_fig13_input_power_ordering(self):
        ds = generate_figure("fig13")
        c200 = ds.column("spectral_efficiency_Pin200 [bit/s/Hz]")
        c250 = ds.column("spectral_efficiency_Pin250 [bit/s/Hz]")
        n20 = len(c200) // 5
        for i in range(n20):
            assert c250[i] > c200[i]

    def test_metadata_snapshot(self):
        ds = generate_figure("fig6")
        meta = ds.metadata
        assert meta["figure_id"] == "fig6"
        assert meta["geometry.rho1_mm"] == -880.0
        assert meta["model.N_source"] == "calibrated"
        assert meta["model.loss_scale_effective"] == pytest.approx(10.309603506835359, rel=1e-12)
        assert meta["model.lambda_nm"] == 1064.0

    @pytest.mark.parametrize("series", [{}, {"m_values": (2.0,), "d_values": (12.5, 35.0),
                                             "p_in_values": (180.0, 220.0, 260.0),
                                             "mu_values": (0.3, 0.5, 0.75, 0.9)}])
    def test_grid_metadata_matches_table(self, series):
        for fid in FIGURE_IDS:
            ds = generate_figure(fid, **series)
            meta = ds.metadata
            grid = ds.column(ds.columns[0])
            lo = [value for key, value in meta.items() if key.startswith("sweep.lo")]
            hi = [value for key, value in meta.items() if key.startswith("sweep.hi")]
            assert (lo, hi, meta["sweep.samples"]) == ([grid[0]], [grid[-1]], len(grid)), fid
            for key, value in meta.items():
                if key.startswith("series."):
                    assert len(value.split(", ")) == len(ds.columns) - 1, (fid, key)

    def test_close_series_values_get_distinct_headers(self):
        ds = generate_figure("fig8", m_values=(2.5, 2.5000001))
        assert ds.columns[1:] == ("d_max_M2.5 [m]", "d_max_M2.5000001 [m]")
        assert ds.metadata["series.magnification"] == "2.5, 2.5000001"

    def test_row_widths(self):
        for fid in ("fig6", "fig7", "fig11"):
            ds = generate_figure(fid)
            assert all(len(row) == len(ds.columns) for row in ds.rows)

    @pytest.mark.parametrize("fid", ["fig6", "fig8", "fig9", "fig10"])
    def test_cells_build_no_objects(self, monkeypatch, fid):
        # Geometry copies, validations, matrices and round-trip prefixes are built once per
        # row or series, never per cell: with one and with four series each count stays
        # within rows + series + 1 (the +1 is the link copy of the calibration).
        s = default_scenario()
        for series in (1, 4):
            built = Counter()
            with monkeypatch.context() as patch:
                post_init, new = CavityGeometry.__post_init__, TransferMatrix.__new__
                prefix = sweep_search.round_trip_prefix
                patch.setattr(CavityGeometry, "__post_init__", lambda g: built.update(["checks"]) or post_init(g))
                patch.setattr(TransferMatrix, "__new__",
                              lambda cls, *args: built.update(["matrices"]) or new(cls, *args))
                patch.setattr(sweep_search, "replace", lambda *args, **kw: built.update(["copies"]) or replace(*args, **kw))
                patch.setattr(sweep_search, "round_trip_prefix", lambda *args: built.update(["prefixes"]) or prefix(*args))
                ds = generate_figure(fid, s, m_values=(2.5, 3.0, 3.5, 5.0)[:series],
                                     d_values=(10.0, 20.0, 30.0, 40.0)[:series])
            rows, cells = len(ds.rows), len(ds.rows) * (len(ds.columns) - 1)
            assert cells >= rows * series
            assert all(count <= rows + series + 1 for count in built.values()), (series, built)


class TestRunSweep:
    def test_distance_sweep_shape(self):
        spec = SweepSpec(variable="d", lo=1.5, hi=6.0, samples=10)
        ds = run_sweep(spec)
        assert len(ds.rows) == 10
        assert ds.columns[0] == "d [m]"
        assert "spectral_efficiency [bit/s/Hz]" in ds.columns

    def test_geometry_variable_sweep(self):
        spec = SweepSpec(variable="rho2", lo=5.0, hi=30.0, samples=5)
        ds = run_sweep(spec)
        assert len(ds.rows) == 5

    def test_mu_sweep_changes_outputs(self):
        spec = SweepSpec(variable="mu", lo=0.1, hi=0.9, samples=5)
        ds = run_sweep(spec)
        ce = ds.column("spectral_efficiency [bit/s/Hz]")
        assert all(b < a for a, b in zip(ce, ce[1:]))

    def test_unknown_variable(self):
        with pytest.raises(ValueError):
            run_sweep(SweepSpec(variable="bogus", lo=0.0, hi=1.0, samples=3))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(variable="d", lo=2.0, hi=1.0, samples=5)
        with pytest.raises(ValueError):
            SweepSpec(variable="d", lo=1.0, hi=2.0, samples=1)
        with pytest.raises(ValueError):
            SweepSpec(variable="d", lo=1.0, hi=2.0, samples=5, system="weird")

    @pytest.mark.parametrize("lo, hi", [(1.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (1.0, math.nan),
                                        (-1e308, 1e308)])
    def test_non_finite_range_rejected(self, lo, hi):
        # The last range has finite ends, but its width overflows.
        with pytest.raises(ValueError, match=re.escape(f"sweep range must be finite, got [{lo!r}, {hi!r}]")):
            SweepSpec(variable="p_in", lo=lo, hi=hi, samples=3)

    @pytest.mark.parametrize("samples", [10.5, 3.0])
    def test_non_integer_samples_rejected(self, samples):
        with pytest.raises(ValueError, match=re.escape(f"samples must be an integer, got {samples!r}")):
            SweepSpec("d", 1.0, 6.0, samples)

    @staticmethod
    def count_cells(monkeypatch, *stages) -> dict:
        # name -> the number of cells each call of that sweep_search stage computed: its longest column.
        cells = {name: [] for name in stages}

        def counted(name, stage):
            def call(*args):
                out = stage(*args)
                cells[name].append(max(len(c) if type(c) is list else 1 for c in (out if type(out) is tuple else
                                                                                    (out,))))
                return out
            return call
        for name in stages:
            monkeypatch.setattr(sweep_search, name, counted(name, getattr(sweep_search, name)))
        return cells

    @pytest.mark.parametrize("system", ["bcrb", "original"])
    @pytest.mark.parametrize("variable, lo, hi", [("d", 1.0, 6.0), ("rho2", 1.0, 50.0),
                                                  ("magnification", 1.5, 6.0), ("f1", 0.002, 0.05),
                                                  ("L2", 0.0, 0.3), ("f_gain", 0.3, 2.0)])
    def test_geometry_sweep_validates_once(self, monkeypatch, variable, lo, hi, system):
        # One geometry check per sweep, at the first grid point; the aperture loss computes
        # one cell when the variable does not reach it, else one per point.  The loss
        # scale's calibration calls transmission_loss once.
        s = default_scenario()
        checks, losses = [], []
        post_init = CavityGeometry.__post_init__
        monkeypatch.setattr(CavityGeometry, "__post_init__", lambda g: checks.append(1) or post_init(g))
        loss = sweep_search.transmission_loss
        monkeypatch.setattr(sweep_search, "transmission_loss", lambda *args: losses.append(1) or loss(*args))
        cells = self.count_cells(monkeypatch, "_transmission_loss")
        assert len(run_sweep(SweepSpec(variable, lo, hi, 101, system), s).rows) == 101
        assert len(checks) <= 1
        assert len(losses) == 1
        assert cells == {"_transmission_loss": [101 if variable == "d" else 1]}

    @pytest.mark.parametrize("variable, lo, hi, n", [("p_in", 150.0, 300.0, 1), ("mu", 0.0, 1.0, 1),
                                                     ("d", 1.0, 6.0, 101), ("loss_scale", 0.5, 2.0, 101)])
    def test_aperture_loss_once_unless_the_variable_reaches_it(self, monkeypatch, variable, lo, hi, n):
        # The loss scale's calibration calls transmission_loss once; the chain's loss is one column of n cells.
        losses = []
        loss = sweep_search.transmission_loss
        monkeypatch.setattr(sweep_search, "transmission_loss", lambda *args: losses.append(1) or loss(*args))
        cells = self.count_cells(monkeypatch, "_transmission_loss")
        assert len(run_sweep(SweepSpec(variable, lo, hi, 101), default_scenario()).rows) == 101
        assert len(losses) == 1
        assert cells == {"_transmission_loss": [n]}

    @pytest.mark.parametrize("system", ["bcrb", "original"])
    @pytest.mark.parametrize("variable, lo, hi", [("d", 1.0, 6.0), ("rho2", 1.0, 50.0), ("p_in", 150.0, 300.0),
                                                  ("mu", 0.0, 1.0), ("magnification", 1.5, 6.0)])
    def test_points_build_no_objects(self, monkeypatch, variable, lo, hi, system):
        # A point carries plain floats: the matrices and dataclass copies that a
        # sweep builds are set up once, however many points it has.
        s = default_scenario()
        built = {}
        for samples in (11, 1001):
            matrices, copies = [], []
            with monkeypatch.context() as patch:
                new = TransferMatrix.__new__
                patch.setattr(TransferMatrix, "__new__", lambda cls, *args: matrices.append(1) or new(cls, *args))
                patch.setattr(sweep_search, "replace", lambda *args, **kw: copies.append(1) or replace(*args, **kw))
                assert len(run_sweep(SweepSpec(variable, lo, hi, samples, system), s).rows) == samples
            built[samples] = (len(matrices), len(copies))
        matrices, copies = built[1001]
        assert built[11] == (matrices, copies)
        assert matrices == 0 and copies <= 2

    # Sweep variable -> (range, whether it reaches the cavity cells on bcrb and on original, the
    # aperture loss, and beam_power).  A stage computes a cell per point when its variable reaches it, else one.
    STAGE_READS = {
        "d": ((1.0, 6.0), True, True, True, True),
        "p_in": ((150.0, 300.0), False, False, False, True),
        "mu": ((0.0, 1.0), False, False, False, False),
        "rho1": ((-2.0, -0.5), True, True, False, False),
        "rho2": ((1.0, 50.0), True, True, False, False),
        "f_gain": ((0.3, 2.0), True, True, False, False),
        "f1": ((0.002, 0.05), True, False, False, False),
        "magnification": ((1.5, 6.0), True, False, False, False),
        "L1": ((0.0, 0.01), True, True, False, False),
        "L2": ((0.0, 0.3), True, True, False, False),
        "loss_scale": ((0.5, 2.0), False, False, True, True),
        "wavelength": ((500e-9, 1500e-9), True, True, True, True),
    }

    @pytest.mark.parametrize("system", ["bcrb", "original"])
    @pytest.mark.parametrize("variable", sorted(STAGE_READS))
    def test_each_stage_computes_one_cell_or_one_per_point(self, monkeypatch, variable, system):
        # Each stage is called once, on columns: a stage computes 1 cell, or n cells when its inputs vary.
        stages = ("_cavity", "_transmission_loss", "_beam_power")
        cells = self.count_cells(monkeypatch, *stages)
        (lo, hi), cavity_bcrb, cavity_original, loss, power = self.STAGE_READS[variable]
        assert len(run_sweep(SweepSpec(variable, lo, hi, 11, system), default_scenario()).rows) == 11
        reached = (cavity_bcrb if system == "bcrb" else cavity_original, loss, power)
        assert [cells[name] for name in stages] == [[11 if reads else 1] for reads in reached]

    @pytest.mark.parametrize("variable, lo, hi", [("rho2", 1.0, 50.0), ("magnification", 1.5, 6.0),
                                                  ("p_in", 150.0, 300.0), ("wavelength", 500e-9, 1500e-9)])
    def test_a_stage_computing_one_cell_runs_in_its_place(self, monkeypatch, variable, lo, hi):
        # The cavity stage fails before the chain runs, whichever of the two computes one cell:
        # the stages run in the program's order, however many cells each computes.
        def fail(stage):
            def raise_(*args):
                raise RuntimeError(stage)
            return raise_
        monkeypatch.setattr(sweep_search, "_cavity", fail("cavity"))
        monkeypatch.setattr(sweep_search, "_spectral_efficiency", fail("chain"))
        with pytest.raises(RuntimeError, match="^cavity$"):
            run_sweep(SweepSpec(variable, lo, hi, 11), default_scenario())
