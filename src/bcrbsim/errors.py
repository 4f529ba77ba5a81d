"""Exception types shared across the simulator, and the one range-and-finiteness check.

A column is a list, one cell per row, or any other value, which is the cell
of every row.  The model's stages take and give columns: a stage whose inputs
are all single values computes one cell and gives it as a value.
"""

import math
from itertools import repeat, starmap

_INF = math.inf
_TINY = 2.0 ** -1024  # 1/x is finite exactly where |x| > _TINY: 1/_TINY rounds to inf, 1/nextafter(_TINY, 1) does not

# The range rules of _reject.  NaN fails only the two-sided ones: a one-sided rule leaves it to the finite test.
_IN_RANGE = {
    "> 0": lambda v: not v <= 0.0,
    ">= 0": lambda v: not v < 0.0,
    "> 2**-1024": lambda v: not v <= _TINY,
    "> 1": lambda v: not v <= 1.0,
    "in (0, 1)": lambda v: 0.0 < v < 1.0,
    "in (0, 1]": lambda v: 0.0 < v <= 1.0,
    "in [0, 1]": lambda v: 0.0 <= v <= 1.0,
    None: lambda _: True,
}


def _reject(exc: type, *checks: tuple) -> None:
    """Raise exc for the first failing check (words, value, rule); return when every check passes.

    rule is a key of _IN_RANGE, None for finite-only.  The ranges are tested
    first, then finiteness, each pass in the order given: -inf fails every
    range, NaN and +inf fail the two-sided ones.  A value may be a column (a
    list), checked at once: it passes when the sum of its cells is finite, so
    that none is NaN or infinite (min and max pass over a NaN that is not the
    first cell), and its least cell, and for a two-sided rule its greatest,
    passes the rule.  Only when a check fails are the rows walked, and the
    first row with a bad cell raises that row's error.
    """
    if any(type(value) is list for _, value, _ in checks):
        for _, value, rule in checks:
            cells, test = value if type(value) is list else (value,), _IN_RANGE[rule]
            if cells and not (math.isfinite(sum(cells)) and (
                    rule is None or test(min(cells)) and (rule[0] == ">" or test(max(cells))))):
                _walk(lambda *row: _reject(exc, *[(words, cell, rule) for (words, _, rule), cell in zip(checks, row)]),
                      *[value for _, value, _ in checks])
                return
        return
    for words, value, rule in checks:
        if not _IN_RANGE[rule](value):
            raise exc(f"{words} must be {rule}, got {value!r}")
    for words, value, _ in checks:
        if not math.isfinite(value):
            raise exc(f"{words} must be finite, got {value!r}")


def _rows(*columns):
    # The rows of columns: a list (or a lazy starmap) has one cell per row, any other value is the cell of
    # every row.  When no column varies, the one row of the values themselves, a tuple.
    for column in columns:
        if isinstance(column, (list, starmap)):
            return zip(*[c if isinstance(c, (list, starmap)) else repeat(c) for c in columns])
    return (columns,)


def _column(rows, cells: list):
    # The column of cells computed over _rows(...): the one cell itself when no input varied.
    return cells[0] if type(rows) is tuple else cells


def _walk(check, *columns) -> None:
    # check on each row of columns in order, so that the first bad row raises its own error.
    for row in _rows(*columns):
        check(*row)


class BeamSimError(Exception):
    """Base class for all simulator-specific errors."""


class InvalidElementError(BeamSimError, ValueError):
    """Optical element parameters violate the element's invariants."""


class SingularConfigurationError(BeamSimError):
    """Cavity configuration where a matrix element needed for division is zero."""


class UnstableCavityError(BeamSimError):
    """Round-trip matrix outside the stability region, or a spot-size radicand is nonpositive."""


class NoStableRegionError(BeamSimError):
    """A boundary search found no stable operating point in the requested range."""


class InfeasibleSearchError(BeamSimError):
    """A search or calibration target cannot be met anywhere in the allowed domain."""


class ScenarioError(BeamSimError, ValueError):
    """Scenario file failed to parse or violates a parameter invariant."""
