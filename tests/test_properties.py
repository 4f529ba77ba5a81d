"""Property-based tests over the acceptance suite's sampling ranges."""

import tempfile
from dataclasses import replace
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from bcrbsim import CavityGeometry, default_scenario, load_scenario, save_scenario


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
