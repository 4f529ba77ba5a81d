"""Property-based tests over the acceptance suite's sampling ranges."""

import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcrbsim import (
    CavityGeometry,
    InfeasibleSearchError,
    NoStableRegionError,
    default_scenario,
    is_stable,
    load_scenario,
    max_stable_distance,
    required_rho2,
    save_scenario,
)
from bcrbsim.ray_matrix import round_trip
from bcrbsim.sweep_search import _stable_at, stability_bands


def signed(lo, hi):
    return st.tuples(st.floats(lo, hi), st.sampled_from((1.0, -1.0))).map(lambda pair: pair[0] * pair[1])


# The ranges of test_acceptance.random_geometries, plus the wavelength, whose
# nm conversion is the other scaled key of the scenario file.
GEOMETRIES = st.builds(
    CavityGeometry,
    rho1=signed(0.3, 50.0),
    rho2=signed(0.3, 50.0),
    f_gain=st.floats(0.2, 5.0),
    f1=st.floats(2e-3, 0.05),
    magnification=st.floats(0.5, 5.0),
    L1=st.floats(0.0, 0.01),
    L2=st.floats(0.0, 0.3),
    d=st.floats(0.01, 20.0),
    wavelength=st.floats(500e-9, 1600e-9),
)


@settings(max_examples=300, deadline=None)
@given(geometry=GEOMETRIES)
def test_save_load_save_is_bit_identical(geometry):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first.json", Path(tmp) / "second.json"
        save_scenario(replace(default_scenario(), geometry=geometry), first)
        save_scenario(load_scenario(first), second)
        assert second.read_bytes() == first.read_bytes()


DENSE_POINTS = 1000     # per example; 2 layouts x 50 examples = 1e5 points
EDGE_MARGIN = 1e-9      # relative: points this close to a band edge are not judged


@pytest.mark.parametrize("system", ["bcrb", "original"])
@settings(max_examples=50, deadline=None)
@given(geometry=GEOMETRIES, shift=st.floats(0.0, 1.0, exclude_max=True))
def test_exact_bands_match_dense_stability(system, geometry, shift):
    d_hi = 20.0
    bands = stability_bands(geometry, d_hi, system)
    edges = [edge for band in bands for edge in band]
    for k in range(1, DENSE_POINTS + 1):
        d = d_hi * (k - shift) / DENSE_POINTS
        if any(abs(d - edge) <= EDGE_MARGIN * d_hi for edge in edges):
            continue
        in_band = any(lo < d < hi or d == hi == d_hi for lo, hi in bands)
        assert is_stable(round_trip(replace(geometry, d=d), system)) == in_band, d

    if bands:
        d_max = max_stable_distance(geometry, d_hi, system=system)
        assert is_stable(round_trip(replace(geometry, d=d_max), system))
        assert abs(d_max - bands[0][1]) <= EDGE_MARGIN * d_hi
        if d_max < d_hi:
            assert not is_stable(round_trip(replace(geometry, d=d_max + EDGE_MARGIN * d_hi), system))
    else:
        with pytest.raises(NoStableRegionError):
            max_stable_distance(geometry, d_hi, system=system)

    if system == "bcrb":
        try:
            rho2 = required_rho2(geometry, geometry.d, 50.0)
        except InfeasibleSearchError:
            return
        assert 0.0 < rho2 <= 50.0
        assert is_stable(round_trip(replace(geometry, rho2=rho2), "bcrb"))
        assert not is_stable(round_trip(replace(geometry, rho2=rho2 * (1.0 - EDGE_MARGIN)), "bcrb"))


@pytest.mark.parametrize("system", ["bcrb", "original"])
@settings(max_examples=100, deadline=None)
@given(geometry=GEOMETRIES)
def test_band_edges_are_stable_points(system, geometry):
    for lo, hi in stability_bands(geometry, 20.0, system):
        assert lo < hi
        assert _stable_at(geometry, lo, system) and _stable_at(geometry, hi, system), (lo, hi)
