"""Column stages: each checks a column once, and a bad cell anywhere raises the scalar function's message."""

import math
import re
import sys

import pytest

from bcrbsim import (CavityGeometry, InvalidElementError, LinkBudgetParams, ReceiverParams, beam_power, data_signal,
                     propagate_spot, pv_output, shot_noise, spectral_efficiency, total_noise, transmission_loss)
from bcrbsim.comms import _data_signal
from bcrbsim.errors import _IN_RANGE, _reject
from bcrbsim.gaussian_beam import _check_propagation
from bcrbsim.ray_matrix import _close, _require_mirror_radius, _round_trip_over, round_trip_prefix

LINK, RX = LinkBudgetParams(), ReceiverParams()
ROWS = 5
PLACES = {"first": 0, "middle": ROWS // 2, "last": ROWS - 1}

# stage -> (the function over columns, the same function over one row, (a valid value, a finite value out of
# its range) of each argument that may be a column, fixed arguments).  A signed radius has no range; 0 is its
# one finite bad value.  data_signal's column form is _data_signal; propagate_spot's checks are _check_propagation.
STAGES = {
    "transmission_loss": (transmission_loss, transmission_loss,
                          {"d": (2.0, -1.0), "b": (1e-3, 0.0), "wavelength": (1064e-9, -1.0),
                           "loss_scale": (1.0, 0.0)}, {}),
    "beam_power": (beam_power, beam_power, {"p_in": (200.0, -1.0), "delta_t": (0.5, -1.0)},
                   {"p": LINK, "clamp": True}),
    "pv_output": (pv_output, pv_output, {"p_beam": (10.0, -1.0), "mu": (0.5, 2.0)}, {"p": LINK, "clamp": True}),
    "data_signal": (lambda p_beam: _data_signal(p_beam, RX.responsivity, RX.split_ratio),
                    lambda p_beam: data_signal(p_beam, RX), {"p_beam": (10.0, -1.0)}, {}),
    "shot_noise": (shot_noise, shot_noise, {"p_data": (1.0, -1.0)}, {"r": RX}),
    "total_noise": (total_noise, total_noise, {"p_data": (1.0, -1.0)}, {"r": RX}),
    "spectral_efficiency": (spectral_efficiency, spectral_efficiency,
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


# function -> (cells of each argument that may be a column, one row per branch, fixed arguments).  The rows
# reach the limit at d -> 0+ (wavelength * d underflows), the clamp at 0 and, under clamp=False, the negative
# values, -0.0 in and out (an intercept of -0.0), a dark, cold receiver's zero noise, and spectral_efficiency's
# log paths: the ratio overflows (1e200), and a square and a noise below the normal range (3e-161, 1e-321).
SIGNED_ZERO = LinkBudgetParams(intercept=-0.0, pv_intercept=-0.0)
DARK_COLD = ReceiverParams(background_current=0.0, temperature=0.0)
CLAMPS = [("clamped", LINK, True), ("unclamped", LINK, False), ("signed_zero", SIGNED_ZERO, True)]
BRANCHES = {
    "transmission_loss": (transmission_loss, {"d": [2.6, 5e-324, 1e-3, 1e300], "b": [1.5e-3, 1e-3, 1e-2, 5e-324],
                                              "wavelength": [1064e-9, 1064e-9, 1e-6, 1e300],
                                              "loss_scale": [1.0, 2.0, 1e300, 5e-324]}, {}),
    **{f"beam_power_{name}": (beam_power, {"p_in": [200.0, 0.0, -0.0, 1e300], "delta_t": [0.5, 0.0, -0.0, 1e300]},
                              {"p": p, "clamp": clamp})
       for name, p, clamp in CLAMPS},
    **{f"pv_output_{name}": (pv_output, {"p_beam": [10.0, 0.0, -0.0, 1e300], "mu": [0.5, 0.0, 1.0, -0.0]},
                             {"p": p, "clamp": clamp})
       for name, p, clamp in CLAMPS},
    "shot_noise": (shot_noise, {"p_data": [1.0, 0.0, -0.0, 1e300]}, {"r": RX}),
    **{f"total_noise_{name}": (total_noise, {"p_data": [1.0, 0.0, -0.0, 1e300]}, {"r": r})
       for name, r in (("warm", RX), ("dark_cold", DARK_COLD))},
    "spectral_efficiency": (spectral_efficiency, {"p_data": [1.0, 0.0, -0.0, 1e200, 3e-161, 1e-3],
                                                  "n2_total": [1.0, 1.0, 1.0, 1.0, 1e-321, 1e300]}, {"log_base": 2.0}),
}


@pytest.mark.parametrize("stage", list(BRANCHES))
def test_a_call_over_columns_is_the_calls_over_its_rows_bit_for_bit(stage):
    # Every argument a column, and each argument the only column: the cells are the per-row calls' floats.
    function, columns, fixed = BRANCHES[stage]
    rows = [dict(zip(columns, row)) for row in zip(*columns.values())]
    cells = [function(**row, **fixed) for row in rows]
    assert {type(cell) for cell in cells} == {float}, "an argument with no list gives a float"
    assert [cell.hex() for cell in function(**columns, **fixed)] == [cell.hex() for cell in cells]
    for name, column in columns.items():
        for row in rows:
            one = {**row, name: column}
            assert ([cell.hex() for cell in function(**one, **fixed)] ==
                    [function(**{**row, name: cell}, **fixed).hex() for cell in column])


def test_the_branches_are_reached():
    # The rows above reach the branches they name.
    assert transmission_loss(5e-324, 1e-3, 1064e-9, 2.0) == 0.0
    assert beam_power(0.0, 0.5, LINK) == 0.0 and beam_power(0.0, 0.5, LINK, clamp=False) == LINK.intercept
    assert math.copysign(1.0, beam_power(-0.0, 0.0, SIGNED_ZERO)) == -1.0
    assert pv_output(10.0, 0.0, LINK) == 0.0 and pv_output(10.0, 0.0, LINK, clamp=False) == LINK.pv_intercept
    assert math.copysign(1.0, pv_output(-0.0, 0.5, SIGNED_ZERO)) == -1.0
    assert total_noise(0.0, DARK_COLD) == 0.0 and total_noise(1.0, RX) > shot_noise(1.0, RX)
    assert (1e200 * 1e200 * math.e == math.inf and 3e-161 * 3e-161 < sys.float_info.min
            and 2.0 * math.pi * 1e-321 < sys.float_info.min)
    assert 0.0 < spectral_efficiency(3e-161, 1e-321) < math.inf and spectral_efficiency(1e200, 1.0) > 600.0


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
    _require_mirror_radius("rho1", [-0.88, math.nextafter(2.0 ** -1024, 1.0), -1e300])


@pytest.mark.parametrize("place", list(PLACES))
@pytest.mark.parametrize("tiny", [5e-324, -5e-324, 1e-310, 2.0 ** -1024])
def test_mirror_radius_column_names_the_first_radius_whose_reciprocal_overflows(place, tiny):
    # The least magnitude of the column is checked once; a NaN before the tiny cell does not hide it.
    column = [-0.88] * ROWS
    column[PLACES[place]] = tiny
    message = f"InvalidElementError: |rho1| must be > 2**-1024, got {abs(tiny)!r}"
    assert _message(_require_mirror_radius, "rho1", column) == _message(_require_mirror_radius, "rho1", tiny) == message
    assert _message(_require_mirror_radius, "rho1", [math.nan, *column]) == message
    _require_mirror_radius("rho1", [math.nan, -0.88])


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
