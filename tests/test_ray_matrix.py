"""Element matrices, composition, round trips, and the stability test."""


import math
import sys
from functools import partial

import numpy as np
import pytest

from bcrbsim import (
    CavityGeometry,
    InvalidElementError,
    RayVector,
    SingularConfigurationError,
    TransferMatrix,
    apply,
    is_stable,
    round_trip_bcrb,
    round_trip_closed_form,
    round_trip_original,
)
from bcrbsim.ray_matrix import (_LAYOUTS, _LENS, _MIRROR, _focus, _fold, _magnifier, _product, _shift, bcrb_elements,
                                round_trip, round_trip_prefix)

IDENTITY = (1.0, 0.0, 0.0, 1.0)


def mat_tuple(m):
    return (m.a, m.b, m.c, m.d)


def element(k, **fields):
    # The k-th element matrix of the reference design, in propagation order, with fields changed.
    return bcrb_elements(CavityGeometry(**fields))[k]


def random_geometry(rng):
    def logu(lo, hi):
        return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
    return CavityGeometry(
        rho1=logu(0.3, 50.0) * (1 if rng.random() < 0.5 else -1),
        rho2=logu(0.3, 50.0) * (1 if rng.random() < 0.5 else -1),
        f_gain=logu(0.2, 5.0),
        f1=logu(2e-3, 0.05),
        magnification=logu(0.5, 5.0),
        L1=float(rng.uniform(0.0, 0.01)),
        L2=float(rng.uniform(0.0, 0.3)),
        d=logu(0.01, 20.0),
    )


class TestElementMatrix:
    # Elements of the reference design: 0 mirror 1 (rho1 = -0.880), 2 gain lens
    # (f_gain = 0.880), 4 and 6 the telescope lenses (+f1 = 0.010, -f2 = -0.035),
    # 5 the magnifier (M = 3.5), 7 the gap d.
    def test_free_space_form(self):
        assert mat_tuple(element(7, d=1.0)) == (1.0, 1.0, 0.0, 1.0)

    def test_mirror_form_reference_curvature(self):
        # -1/rho with rho = -0.880 m gives +1.136363... 1/m
        m = element(0)
        assert m.a == 1.0 and m.b == 0.0 and m.d == 1.0
        assert m.c == pytest.approx(1.0 / 0.880, rel=1e-12)

    def test_unit_magnifier_is_identity(self):
        assert mat_tuple(element(5, magnification=1.0)) == IDENTITY

    def test_thin_lens_form(self):
        m = element(2)
        assert m.c == pytest.approx(-1.0 / 0.880, rel=1e-12)
        assert (m.a, m.b, m.d) == (1.0, 0.0, 1.0)

    def test_magnifier_form(self):
        m = element(5)
        assert m.a == 3.5 and m.d == pytest.approx(1 / 3.5, rel=1e-15)
        assert m.b == 0.0 and m.c == 0.0

    def test_telescope_lens_displacement_forms(self):
        # The telescope lens matrices are displacement forms with signed offsets.
        assert mat_tuple(element(4)) == (1.0, 0.010, 0.0, 1.0)
        assert mat_tuple(element(6)) == (1.0, -0.035, 0.0, 1.0)

    @pytest.mark.parametrize("element", [
        partial(_focus, _MIRROR, 0.0), partial(_focus, _LENS, 0.0), partial(_magnifier, 0.0),
        partial(_magnifier, -2.0), partial(_focus, _MIRROR, math.inf), partial(_shift, math.nan),
    ])
    def test_invalid_elements(self, element):
        with pytest.raises(InvalidElementError):
            element()

    def test_element_determinants(self):
        for m in bcrb_elements(CavityGeometry()):
            assert m.det() == pytest.approx(1.0, abs=1e-12)


class TestApply:
    def test_identity(self):
        r = apply(TransferMatrix(*IDENTITY), RayVector(1e-3, 0.0))
        assert (r.position, r.slope) == (1e-3, 0.0)

    def test_free_space_straight_line(self):
        r = apply(element(7, d=2.0), RayVector(0.0, 1e-3))
        assert r.position == pytest.approx(2e-3, rel=1e-15)
        assert r.slope == 1e-3

    def test_mirror_kick(self):
        # Hand multiplication: [[1,0],[1/0.88,1]] (1e-3, 0) = (1e-3, 1.13636e-3)
        r = apply(element(0), RayVector(1e-3, 0.0))
        assert r.position == 1e-3
        assert r.slope == pytest.approx(1e-3 / 0.880, rel=1e-12)

    def test_linearity(self):
        m = TransferMatrix(*_product(_focus(_MIRROR, -0.88), _shift(1.3)))
        a = RayVector(2e-4, -1e-3)
        b = RayVector(-3e-4, 5e-4)
        combined = apply(m, RayVector(a.position + b.position, a.slope + b.slope))
        ra, rb = apply(m, a), apply(m, b)
        assert combined.position == pytest.approx(ra.position + rb.position, rel=1e-12)
        assert combined.slope == pytest.approx(ra.slope + rb.slope, rel=1e-12)


def elements(*entries):
    # A _LAYOUTS-style element sequence, in propagation order, that builds the given entries.
    return [((), lambda e=e: e) for e in entries]


class TestCompose:
    def test_identity_pair(self):
        assert _product(IDENTITY, IDENTITY) == IDENTITY

    def test_translation_additivity(self):
        assert _product(_shift(1.0), _shift(2.0)) == _shift(3.0)

    def test_order_last_traversed_leftmost(self):
        lens, gap = _focus(_LENS, 0.5), _shift(2.0)
        composed = _fold(None, elements(gap, lens))
        assert composed == _product(lens, gap)
        # and it acts like sequential application
        r = RayVector(1e-3, 0.0)
        assert apply(TransferMatrix(*composed), r) == apply(TransferMatrix(*lens), apply(TransferMatrix(*gap), r))

    def test_fold_is_its_tail_folded_then_applied_after_its_head(self):
        p, q, r = _focus(_MIRROR, -0.88), _shift(0.3), _magnifier(2.0)
        assert _product(_fold(None, elements(q, r)), p) == _fold(None, elements(p, q, r)) == _product(r, _product(q, p))

    def test_associativity(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p, q, r = (tuple(rng.uniform(-2, 2, size=4)) for _ in range(3))
            left = _product(_product(r, q), p)
            flat = _fold(None, elements(p, q, r))
            assert left == pytest.approx(flat, abs=1e-12)

    def test_nine_element_chain_matches_closed_form(self):
        # Independent oracle: numpy matmul over the nine element matrices.
        g = CavityGeometry()
        arrays = [np.array([[m.a, m.b], [m.c, m.d]]) for m in bcrb_elements(g)]
        product = np.eye(2)
        for arr in arrays:
            product = arr @ product
        cf = round_trip_closed_form(g)
        expected = np.array([[cf.a, cf.b], [cf.c, cf.d]])
        assert np.max(np.abs(product - expected)) < 1e-9


class TestRoundTrips:
    def test_reference_geometry_is_operational(self):
        m = round_trip_bcrb(CavityGeometry())
        assert 0.0 < m.a * m.d < 1.0

    def test_determinant_one(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            g = random_geometry(rng)
            assert abs(round_trip_bcrb(g).det() - 1.0) < 1e-9
            assert abs(round_trip_original(g).det() - 1.0) < 1e-9

    def test_basis_ray_oracle(self):
        # Columns of the composed matrix = the basis rays pushed through all
        # nine elements one by one.
        rng = np.random.default_rng(13)
        for _ in range(200):
            g = random_geometry(rng)
            m = round_trip_bcrb(g)
            r1, r2 = RayVector(1.0, 0.0), RayVector(0.0, 1.0)
            for e in bcrb_elements(g):
                r1, r2 = apply(e, r1), apply(e, r2)
            assert r1.position == pytest.approx(m.a, abs=1e-9)
            assert r1.slope == pytest.approx(m.c, abs=1e-9)
            assert r2.position == pytest.approx(m.b, abs=1e-9)
            assert r2.slope == pytest.approx(m.d, abs=1e-9)

    def test_closed_form_matches_product(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            g = random_geometry(rng)
            m = round_trip_bcrb(g)
            try:
                cf = round_trip_closed_form(g)
            except SingularConfigurationError:
                continue
            for name in "abcd":
                assert getattr(cf, name) == pytest.approx(getattr(m, name), abs=1e-9)

    def test_closed_form_collapsed_gaps(self):
        # With both shifted gaps at zero the closed form collapses to
        # A = M - B/rho1 with B = L1*M.  An exactly-zero L2' needs a negative
        # gap, so emulate with f1 tiny (L2 = 0) and d = f2 (L3' = 0 exactly).
        g = CavityGeometry(magnification=2.0, f1=1e-12, L2=0.0, d=2e-12, L1=0.01)
        cf = round_trip_closed_form(g)
        assert cf.b == pytest.approx(g.L1 * g.magnification, rel=1e-9)
        assert cf.a == pytest.approx(g.magnification - cf.b / g.rho1, rel=1e-9)

    def test_closed_form_singular_b_zero(self):
        # M=0.5, f1=0.2 -> f2=0.1; with L1=L2=0 and d=f2-M^2*(L2+f1)=0.05
        # the B entry is exactly zero and the C entry is undefined.
        g = CavityGeometry(magnification=0.5, f1=0.2, L1=0.0, L2=0.0, d=0.05)
        assert round_trip_bcrb(g).b == 0.0
        with pytest.raises(SingularConfigurationError):
            round_trip_closed_form(g)

    def test_tim_degeneracy(self):
        # M = 1 cancels the telescope exactly (f2 = f1), leaving the baseline
        # cavity with the same total gap.
        for f1 in (1e-6, 0.01, 0.05):
            g = CavityGeometry(magnification=1.0, f1=f1)
            mb = round_trip_bcrb(g)
            mo = round_trip_original(g)
            for name in "abcd":
                assert getattr(mb, name) == pytest.approx(getattr(mo, name), abs=1e-9)

    def test_original_near_identity(self):
        g = CavityGeometry(rho1=1e12, rho2=1e12, f_gain=1e12, L1=0.0, L2=0.0, d=1e-12)
        m = round_trip_original(g)
        assert m.a == pytest.approx(1.0, abs=1e-9)
        assert m.b == pytest.approx(0.0, abs=1e-9)
        assert m.c == pytest.approx(0.0, abs=1e-9)
        assert m.d == pytest.approx(1.0, abs=1e-9)

    def test_original_ignores_telescope_fields(self):
        g1 = CavityGeometry(magnification=2.0, f1=0.02)
        g2 = CavityGeometry(magnification=4.5, f1=0.01)
        assert round_trip_original(g1) == round_trip_original(g2)


class TestGeometryValidation:
    def test_zero_curvature_rejected(self):
        with pytest.raises(InvalidElementError):
            CavityGeometry(rho2=0.0)

    @pytest.mark.parametrize("mirror", ["rho1", "rho2"])
    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_zero_curvature_names_mirror_and_value(self, mirror, zero):
        with pytest.raises(InvalidElementError) as info:
            CavityGeometry(**{mirror: zero})
        assert str(info.value) == f"{mirror} must be nonzero (use |rho| >= 1e9 for near-flat), got {zero!r}"

    @pytest.mark.parametrize("kwargs", [
        {"f1": 0.0}, {"f_gain": -1.0}, {"magnification": 0.0}, {"d": 0.0},
        {"L1": -1e-3}, {"L2": -0.1}, {"aperture_gain": 0.0}, {"wavelength": 0.0},
    ])
    def test_bad_fields_rejected(self, kwargs):
        with pytest.raises(InvalidElementError):
            CavityGeometry(**kwargs)

    def test_zero_gaps_allowed(self):
        g = CavityGeometry(L1=0.0, L2=0.0)
        assert g.L1 == 0.0 and g.L2 == 0.0

    def test_f2_tied_to_magnification(self):
        g = CavityGeometry(f1=0.010, magnification=3.5)
        assert g.f2 == pytest.approx(0.035, rel=1e-15)

    @pytest.mark.parametrize("f1, m", [(1e300, 1e10), (sys.float_info.max, 1.5), (1e308, 2.0)])
    def test_f2_overflow_names_f1_and_magnification(self, f1, m):
        # f1 and M are each finite, their product f2 is not: the error names both, not the -f2 gap.
        g = CavityGeometry(f1=f1, magnification=m)
        for build in (round_trip_bcrb, lambda g: round_trip(g, "bcrb"), lambda g: round_trip_prefix(g, "bcrb")):
            with pytest.raises(InvalidElementError) as info:
                build(g)
            assert str(info.value) == f"f2 = f1 * magnification overflows: f1 = {f1!r} m, magnification = {m!r}"

    def test_largest_finite_f2_keeps_its_bits(self):
        # Just below the overflow, the -f2 element is the shift by -(f1 * M), as before.
        f1, m = sys.float_info.max / 2.0, 2.0
        assert _fold(CavityGeometry(f1=f1, magnification=m), [_LAYOUTS["bcrb"][0][-1]]) == _shift(-(f1 * m))


class TestIsStable:
    def test_reference_distance_stable(self):
        assert is_stable(round_trip_bcrb(CavityGeometry(d=2.6)))

    def test_product_above_one_unstable(self):
        assert not is_stable(TransferMatrix(1.5, 0.0, 0.0, 1.0))

    def test_product_zero_unstable(self):
        assert not is_stable(TransferMatrix(0.0, 0.0, 0.0, 0.5))

    def test_product_exactly_one_unstable(self):
        assert not is_stable(TransferMatrix(1.0, 0.0, 0.0, 1.0))

    def test_nan_entries_false(self, caplog):
        assert not is_stable(TransferMatrix(float("nan"), 0.0, 0.0, 1.0))
        assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == [
            ("bcrbsim.ray_matrix", "WARNING", "stability test saw NaN: a=nan d=1.0")]

    def test_depends_only_on_diagonal_product(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            a, d = rng.uniform(-2, 2, size=2)
            b1, c1, b2, c2 = rng.uniform(-10, 10, size=4)
            assert is_stable(TransferMatrix(a, b1, c1, d)) == is_stable(TransferMatrix(a, b2, c2, d))
