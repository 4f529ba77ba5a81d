"""Column stages: each checks a column once, and a bad cell anywhere raises the scalar function's message."""

import math
import re

import pytest

from bcrbsim import (CavityGeometry, InvalidElementError, LinkBudgetParams, ReceiverParams, beam_power, data_signal,
                     propagate_spot, pv_output, shot_noise, spectral_efficiency, transmission_loss)
from bcrbsim.comms import _data_signal, _shot_noise, _spectral_efficiency
from bcrbsim.errors import _IN_RANGE, _reject
from bcrbsim.gaussian_beam import _check_propagation
from bcrbsim.link_budget import _beam_power, _pv_output, _transmission_loss
from bcrbsim.ray_matrix import _close, _require_mirror_radius, _round_trip_over, round_trip_prefix

LINK, RX = LinkBudgetParams(), ReceiverParams()
ROWS = 5
PLACES = {"first": 0, "middle": ROWS // 2, "last": ROWS - 1}

# stage -> (column form, scalar function, (a valid value, a finite value out of its range) of each argument
# that may be a column, fixed arguments).  A signed radius has no range; 0 is its one finite bad value.
STAGES = {
    "transmission_loss": (_transmission_loss, transmission_loss,
                          {"d": (2.0, -1.0), "b": (1e-3, 0.0), "wavelength": (1064e-9, -1.0),
                           "loss_scale": (1.0, 0.0)}, {}),
    "beam_power": (_beam_power, beam_power, {"p_in": (200.0, -1.0), "delta_t": (0.5, -1.0)},
                   {"p": LINK, "clamp": True}),
    "pv_output": (_pv_output, pv_output, {"p_beam": (10.0, -1.0), "mu": (0.5, 2.0)}, {"p": LINK, "clamp": True}),
    "data_signal": (lambda p_beam: _data_signal(p_beam, RX.responsivity, RX.split_ratio),
                    lambda p_beam: data_signal(p_beam, RX), {"p_beam": (10.0, -1.0)}, {}),
    "shot_noise": (_shot_noise, shot_noise, {"p_data": (1.0, -1.0)}, {"r": RX}),
    "spectral_efficiency": (_spectral_efficiency, spectral_efficiency,
                            {"p_data": (1.0, -1.0), "n2_total": (1.0, 0.0)}, {"log_base": 2.0}),
    "propagate_spot": (_check_propagation, propagate_spot,
                       {"omega1": (1e-3, 0.0), "rho1": (-0.88, 0.0), "L1": (1e-3, -1.0),
                        "wavelength": (1064e-9, -1.0)}, {}),
}


def _message(call, *args, **kwargs) -> str:
    with pytest.raises((ValueError, InvalidElementError)) as info:
        call(*args, **kwargs)
    return f"{type(info.value).__name__}: {info.value}"


def _cases():
    for stage, (_, _, arguments, _) in STAGES.items():
        for name, (_, out_of_range) in arguments.items():
            for bad in (math.nan, math.inf, -math.inf, out_of_range):
                for place in PLACES:
                    yield stage, name, bad, place


@pytest.mark.parametrize("stage, name, bad, place", list(_cases()), ids=str)
def test_a_bad_cell_anywhere_raises_the_scalar_message(stage, name, bad, place):
    # The middle NaN is the cell that min and max alone would pass over: min([1.0, nan, 2.0]) is 1.0.
    column_form, scalar, arguments, fixed = STAGES[stage]
    columns = {key: [value] * ROWS for key, (value, _) in arguments.items()}
    columns[name][PLACES[place]] = bad
    row = {key: column[PLACES[place]] for key, column in columns.items()}
    assert _message(column_form, **columns, **fixed) == _message(scalar, **row, **fixed)


@pytest.mark.parametrize("stage", list(STAGES))
def test_valid_columns_pass_and_the_first_bad_row_is_named(stage):
    column_form, scalar, arguments, fixed = STAGES[stage]
    columns = {key: [value] * ROWS for key, (value, _) in arguments.items()}
    column_form(**columns, **fixed)
    # Bad cells in the first column at row 3 and in the last column at row 1: row 1 is named.
    first, (last, (_, out_of_range)) = next(iter(arguments)), list(arguments.items())[-1]
    columns[first][3], columns[last][1] = math.nan, out_of_range
    row = {key: column[1] for key, column in columns.items()}
    assert _message(column_form, **columns, **fixed) == _message(scalar, **row, **fixed)


@pytest.mark.parametrize("rule", [rule for rule in _IN_RANGE if rule is not None])
@pytest.mark.parametrize("place", list(PLACES))
def test_reject_on_a_column_raises_the_message_of_its_bad_cell(rule, place):
    inside = {"> 1": 2.0, "in (0, 1)": 0.5, "in (0, 1]": 0.5, "in [0, 1]": 0.5}.get(rule, 1.0)
    for bad in (math.nan, math.inf, -math.inf, -1.0, 0.0, 1.0, 5.0):
        column = [inside] * ROWS
        column[PLACES[place]] = bad
        if _IN_RANGE[rule](bad) and math.isfinite(bad):
            _reject(ValueError, ("x", column, rule), ("y", 1.0, None))
            continue
        assert (_message(_reject, ValueError, ("x", column, rule), ("y", 1.0, None)) ==
                _message(_reject, ValueError, ("x", bad, rule), ("y", 1.0, None)))


def test_reject_walks_a_column_whose_sum_overflows_and_passes():
    # Finite cells whose sum overflows fail the quick test; walking them finds no bad cell.
    _reject(ValueError, ("x", [1e308, 1e308, 1e308], "> 0"))


@pytest.mark.parametrize("place", list(PLACES))
@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_mirror_radius_column_names_the_first_zero(place, zero):
    column = [-0.88] * ROWS
    column[PLACES[place]] = zero
    with pytest.raises(InvalidElementError, match=re.escape(f"rho1 must be nonzero (use |rho| >= 1e9 for near-flat), "
                                                            f"got {zero!r}")):
        _require_mirror_radius("rho1", column)
    _require_mirror_radius("rho1", [-0.88, 5e-324, -1e300])


@pytest.mark.parametrize("system", ["bcrb", "original"])
@pytest.mark.parametrize("place", list(PLACES))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_round_trip_gap_column_names_the_scalar_close_error(system, place, bad):
    # The gap (offset + d) is one column, checked once; a bad d anywhere raises _close's message for its row.
    g = CavityGeometry()
    d = [g.d] * ROWS
    d[PLACES[place]] = bad
    x, offset = round_trip_prefix(g, system)
    column = {**vars(g), "d": d}.__getitem__
    assert _message(_round_trip_over, system, column) == _message(_close, x, offset + bad, g.rho2)
