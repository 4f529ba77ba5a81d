"""Exception types shared across the simulator, and the one range-and-finiteness check."""

import math

_INF = math.inf

# The range rules of _reject.  NaN fails only the two-sided ones: a one-sided rule leaves it to the finite test.
_IN_RANGE = {
    "> 0": lambda v: not v <= 0.0,
    ">= 0": lambda v: not v < 0.0,
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
    range, NaN and +inf fail the two-sided ones.
    """
    for words, value, rule in checks:
        if not _IN_RANGE[rule](value):
            raise exc(f"{words} must be {rule}, got {value!r}")
    for words, value, _ in checks:
        if not math.isfinite(value):
            raise exc(f"{words} must be finite, got {value!r}")


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
