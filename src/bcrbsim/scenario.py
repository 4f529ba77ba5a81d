"""Scenario files: the full parameter set for one simulated link.

The on-disk format is JSON with lengths in millimeters for optical elements,
meters for the transmission distance d, and nanometers for the wavelength;
everything is converted to SI meters on load.  Missing keys fall back to the
desk-scale reference design; unknown keys are a warning by default and an
error in strict mode.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, NamedTuple

from .comms import ReceiverParams
from .errors import ScenarioError, _reject
from .link_budget import LinkBudgetParams
from .ray_matrix import CavityGeometry

LOSS_SCALE_SOURCES = ("calibrated", "explicit")


@dataclass(frozen=True)
class ModelChoices:
    """Reporting/calibration switches that are not physical parameters."""

    log_base: float = 2.0            # base of the spectral-efficiency logarithm
    n_source: str = "calibrated"     # aperture-loss scale: fit to the anchor, or taken from link.loss_scale
    clamp_negative_power: bool = True

    def __post_init__(self):
        _reject(ValueError, ("log_base", self.log_base, "> 1"))
        if self.n_source not in LOSS_SCALE_SOURCES:
            raise ValueError(f"N_source must be one of {LOSS_SCALE_SOURCES}, got {self.n_source!r}")


@dataclass(frozen=True)
class Scenario:
    """Geometry, power model, receiver, and model choices for one run."""

    geometry: CavityGeometry
    link: LinkBudgetParams
    receiver: ReceiverParams
    model_choices: ModelChoices
    pump_input_power: float = 210.0   # default pump electrical input [W]

    def __post_init__(self):
        _reject(ValueError, ("pump_input_power", self.pump_input_power, ">= 0"))


def default_scenario() -> Scenario:
    """The reference desk-scale scenario (all dataclass defaults)."""
    return Scenario(
        geometry=CavityGeometry(),
        link=LinkBudgetParams(),
        receiver=ReceiverParams(),
        model_choices=ModelChoices(),
    )


def _shift_decimal(value: float, places: int) -> float:
    """value * 10**places, shifted in decimal so that 880 mm reads as exactly 0.88 m.

    repr(value) is the shortest decimal string that reads back as value;
    adding places to its exponent gives that decimal number times 10**places
    exactly, and float() rounds it once, correctly.  So mm <-> m conversions
    of round config numbers survive a save/load round trip bit-exactly.
    """
    if not math.isfinite(value):
        return value
    mantissa, _, exponent = repr(value).partition("e")
    return float(f"{mantissa}e{int(exponent or 0) + places}")


def _to_external(value: float, exponent: int) -> float:
    """SI value -> external units, as a fixed point of load-then-save.

    A full-precision SI value can shift by an ulp on the way to external
    units and back, so saving a loaded file could change its bytes; starting
    from the direct conversion, load+save is repeated until it stops moving
    (at most a few ulps).  Round values are fixed points from the start.
    """
    external = _shift_decimal(value, exponent)
    while (again := _shift_decimal(_shift_decimal(external, -exponent), exponent)) != external:
        external = again
    return external


def _complain(message: str, strict: bool) -> None:
    if strict:
        raise ScenarioError(message)
    warnings.warn(message, stacklevel=3)


def _number(path: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{path}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ScenarioError(f"{path}: must be finite, got {value!r}")
    return number


def _string(path: str, value) -> str:
    if not isinstance(value, str):
        raise ScenarioError(f"{path}: expected a string, got {value!r}")
    return value


def _boolean(path: str, value) -> bool:
    if not isinstance(value, bool):
        raise ScenarioError(f"{path}: expected a boolean, got {value!r}")
    return value


class _Key(NamedTuple):
    """One JSON key of the scenario file and the dataclass field it maps to."""

    section: str        # JSON object holding the key; "" for the top level
    key: str
    owner: str          # Scenario attribute holding the field; "" for the Scenario itself
    field: str
    exponent: int = 0   # external value = SI value * 10**exponent
    check: Callable[[str, object], object] = _number


# Both directions of the file format, in file order (CSV metadata and the
# bytes of save_scenario follow it).
_KEYS = (
    _Key("geometry", "rho1_mm", "geometry", "rho1", 3),
    _Key("geometry", "rho2_mm", "geometry", "rho2", 3),
    _Key("geometry", "f_gain_mm", "geometry", "f_gain", 3),
    _Key("geometry", "f1_mm", "geometry", "f1", 3),
    _Key("geometry", "magnification", "geometry", "magnification"),
    _Key("geometry", "L1_mm", "geometry", "L1", 3),
    _Key("geometry", "L2_mm", "geometry", "L2", 3),
    _Key("geometry", "d_m", "geometry", "d"),
    _Key("geometry", "aperture_gain_mm", "geometry", "aperture_gain", 3),
    _Key("geometry", "aperture_tim_mm", "geometry", "aperture_tim", 3),
    _Key("link", "reflectivity", "link", "reflectivity"),
    _Key("link", "conversion_efficiency", "link", "conversion_efficiency"),
    _Key("link", "intercept_w", "link", "intercept"),
    _Key("link", "loss_scale", "link", "loss_scale"),
    _Key("link", "pv_slope", "link", "pv_slope"),
    _Key("link", "pv_intercept_w", "link", "pv_intercept"),
    _Key("receiver", "responsivity_a_per_w", "receiver", "responsivity"),
    _Key("receiver", "split_ratio", "receiver", "split_ratio"),
    _Key("receiver", "electron_charge_c", "receiver", "electron_charge"),
    _Key("receiver", "background_current_a", "receiver", "background_current"),
    _Key("receiver", "bandwidth_hz", "receiver", "bandwidth"),
    _Key("receiver", "boltzmann_j_per_k", "receiver", "boltzmann"),
    _Key("receiver", "temperature_k", "receiver", "temperature"),
    _Key("receiver", "load_resistance_ohm", "receiver", "load_resistance"),
    _Key("", "pump_input_power_w", "", "pump_input_power"),
    _Key("model_choices", "log_base", "model_choices", "log_base"),
    _Key("model_choices", "lambda_nm", "geometry", "wavelength", 9),
    _Key("model_choices", "N_source", "model_choices", "n_source", check=_string),
    _Key("model_choices", "clamp_negative_power", "model_choices", "clamp_negative_power", check=_boolean),
)
_BY_KEY = {(k.section, k.key): k for k in _KEYS}
_TOP_KEYS = tuple(dict.fromkeys(k.section or k.key for k in _KEYS))
_OWNERS = tuple(dict.fromkeys(k.owner for k in _KEYS if k.owner))


def _section(raw: dict, name: str) -> dict:
    section = raw.get(name, {})
    if not isinstance(section, dict):
        raise ScenarioError(f"{name}: expected an object, got {type(section).__name__}")
    return section


def scenario_from_dict(raw: dict, strict: bool = False) -> Scenario:
    """Build a validated Scenario from parsed JSON (external units)."""
    if not isinstance(raw, dict):
        raise ScenarioError(f"scenario root must be an object, got {type(raw).__name__}")
    for key in raw:
        if key not in _TOP_KEYS:
            _complain(f"unknown scenario key {key!r}", strict)

    kwargs: dict[str, dict] = {owner: {} for owner in _OWNERS + ("",)}
    for section in dict.fromkeys(k.section for k in _KEYS):
        for key, value in (_section(raw, section) if section else raw).items():
            k = _BY_KEY.get((section, key))
            if k is None:
                if section:
                    _complain(f"unknown key {section}.{key!r}", strict)
                continue
            value = k.check(f"{section}.{key}" if section else key, value)
            kwargs[k.owner][k.field] = _shift_decimal(value, -k.exponent) if k.exponent else value

    base = default_scenario()
    parts = {}
    for owner in _OWNERS:
        try:
            parts[owner] = replace(getattr(base, owner), **kwargs[owner])
        except ValueError as exc:
            raise ScenarioError(f"{owner}: {exc}") from exc
    try:
        return replace(base, **parts, **kwargs[""])
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


def scenario_to_dict(s: Scenario) -> dict:
    """External-unit dict representation (inverse of scenario_from_dict)."""
    out: dict = {}
    for k in _KEYS:
        value = getattr(getattr(s, k.owner) if k.owner else s, k.field)
        if k.exponent:
            value = _to_external(value, k.exponent)
        (out.setdefault(k.section, {}) if k.section else out)[k.key] = value
    return out


def load_scenario(path, strict: bool = False) -> Scenario:
    """Load and validate a scenario file; empty file means all defaults."""
    import json  # only a --config run reads a file

    try:
        text = Path(path).read_text(encoding="utf-8")
        raw = json.loads(text) if text.strip() else {}
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, an integer past int's digit limit, deep nesting
        raise ScenarioError(f"{path}: not valid JSON ({exc})") from exc
    return scenario_from_dict(raw, strict=strict)


def save_scenario(s: Scenario, path) -> None:
    """Write a scenario as JSON in external units; load_scenario inverts it.

    A length that overflows in its file unit is a ScenarioError naming the key, and no file is written.
    """
    import json

    raw = scenario_to_dict(s)
    for k in _KEYS:
        if k.exponent and not math.isfinite(external := raw[k.section][k.key]):
            raise ScenarioError(f"{k.section}.{k.key}: {getattr(getattr(s, k.owner), k.field)!r} m overflows to "
                                f"{external!r} in the file's unit")
    Path(path).write_text(json.dumps(raw, indent=2) + "\n", encoding="utf-8")
