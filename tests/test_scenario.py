"""Scenario file loading, validation, defaults, and round-tripping."""

import json
import math
import re
import sys
from dataclasses import replace
from decimal import Decimal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bcrbsim import (LinkBudgetParams, ModelChoices, ScenarioError, default_scenario, load_scenario,
                     operating_point, save_scenario)
from bcrbsim.scenario import _shift_decimal, scenario_from_dict, scenario_to_dict


def write(tmp_path, payload):
    path = tmp_path / "scenario.json"
    if isinstance(payload, str):
        path.write_text(payload, encoding="utf-8")
    else:
        path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestDefaults:
    def test_empty_file_gives_reference_design(self, tmp_path):
        s = load_scenario(write(tmp_path, ""))
        assert s == default_scenario()
        g = s.geometry
        assert g.f_gain == 0.880 and g.rho1 == -0.880 and g.rho2 == 10.0
        assert g.magnification == 3.5 and g.d == 2.6
        assert g.wavelength == pytest.approx(1064e-9)
        assert s.link.reflectivity == 0.2618
        assert s.pump_input_power == 210.0

    def test_empty_object_gives_reference_design(self, tmp_path):
        assert load_scenario(write(tmp_path, {})) == default_scenario()

    def test_partial_override_keeps_other_defaults(self, tmp_path):
        s = load_scenario(write(tmp_path, {"geometry": {"d_m": 4.0}}))
        assert s.geometry.d == 4.0
        assert s.geometry.rho2 == 10.0
        assert s.link == default_scenario().link


class TestUnits:
    def test_mm_conversion(self, tmp_path):
        s = load_scenario(write(tmp_path, {"geometry": {"rho1_mm": -880, "L2_mm": 123}}))
        assert s.geometry.rho1 == -0.88
        assert s.geometry.L2 == 0.123

    def test_lambda_nm(self, tmp_path):
        s = load_scenario(write(tmp_path, {"model_choices": {"lambda_nm": 532}}))
        assert s.geometry.wavelength == pytest.approx(532e-9)

    @settings(max_examples=2000, deadline=None)
    @given(value=st.floats(allow_nan=False), places=st.sampled_from([-9, -3, 3, 9]))
    @example(value=5e-324, places=-3).via("smallest subnormal, shifted to 0")
    @example(value=-5e-324, places=9).via("negative smallest subnormal, shifted nine decades up")
    @example(value=sys.float_info.max, places=3).via("largest float, shifted to inf")
    @example(value=-0.0, places=9).via("negative zero keeps its sign")
    @example(value=880.0, places=-3).via("a round config number")
    def test_shift_is_decimal_scaleb(self, value, places):
        # The decimal shift is one correctly rounded parse of the number Decimal(repr(value)).scaleb(places)
        # holds exactly, so the two agree bit for bit, signed zeros and infinities included.
        assert _shift_decimal(value, places).hex() == float(Decimal(repr(value)).scaleb(places)).hex()


class TestValidation:
    def test_split_ratio_out_of_range_names_field(self, tmp_path):
        path = write(tmp_path, {"receiver": {"split_ratio": 1.5}})
        with pytest.raises(ScenarioError, match=r"receiver.*split_ratio"):
            load_scenario(path)

    def test_geometry_invariant_violation(self, tmp_path):
        path = write(tmp_path, {"geometry": {"f1_mm": -10}})
        with pytest.raises(ScenarioError, match="geometry"):
            load_scenario(path)

    def test_not_json(self, tmp_path):
        with pytest.raises(ScenarioError, match="not valid JSON"):
            load_scenario(write(tmp_path, "{distance: 3"))

    def test_json_error_message(self, tmp_path):
        path = write(tmp_path, "{distance: 3")
        cause = "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
        with pytest.raises(ScenarioError, match=f"^{re.escape(f'{path}: not valid JSON ({cause})')}$"):
            load_scenario(path)

    # Files that json cannot parse without a JSONDecodeError: an integer past int's digit limit, nesting past
    # the recursion limit, and a byte that is not UTF-8.  The text is written as it stands, as json.dumps
    # refuses such an integer.
    UNPARSEABLE = [
        (b'{"geometry": {"d_m": 1' + b"0" * 5000 + b"}}", "Exceeds the limit (4300 digits) for integer string"),
        (b'{"geometry": ' + b"[" * 3000 + b"]" * 3000 + b"}", "maximum recursion depth exceeded"),
        (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff in position 0"),
    ]

    @pytest.mark.parametrize("data, cause", UNPARSEABLE, ids=["digit_limit", "deep_nesting", "not_utf8"])
    def test_unparseable_file_is_a_scenario_error_naming_the_file(self, tmp_path, data, cause):
        path = tmp_path / "scenario.json"
        path.write_bytes(data)
        with pytest.raises(ScenarioError, match=f"^{re.escape(f'{path}: not valid JSON (')}.*{re.escape(cause)}"):
            load_scenario(path)

    def test_root_must_be_object(self, tmp_path):
        with pytest.raises(ScenarioError):
            load_scenario(write(tmp_path, "[1, 2, 3]"))

    def test_section_must_be_object(self, tmp_path):
        with pytest.raises(ScenarioError):
            load_scenario(write(tmp_path, {"geometry": [1]}))

    def test_number_type_checked(self, tmp_path):
        with pytest.raises(ScenarioError, match="expected a number"):
            load_scenario(write(tmp_path, {"geometry": {"d_m": "far"}}))
        with pytest.raises(ScenarioError, match="expected a number"):
            load_scenario(write(tmp_path, {"geometry": {"d_m": True}}))

    @pytest.mark.parametrize("payload, message", [
        ({"model_choices": {"N_source": 3}}, "model_choices.N_source: expected a string, got 3"),
        ({"model_choices": {"clamp_negative_power": "yes"}},
         "model_choices.clamp_negative_power: expected a boolean, got 'yes'"),
    ])
    def test_string_and_boolean_types_checked(self, tmp_path, payload, message):
        with pytest.raises(ScenarioError, match=re.escape(message)):
            load_scenario(write(tmp_path, payload))

    @pytest.mark.parametrize("token, value", [("Infinity", math.inf), ("-Infinity", -math.inf), ("NaN", math.nan)])
    def test_non_finite_json_numbers_rejected(self, tmp_path, token, value):
        # json.loads accepts these tokens, so the number check has to reject them.
        with pytest.raises(ScenarioError, match=re.escape(f"geometry.d_m: must be finite, got {value!r}")):
            load_scenario(write(tmp_path, '{"geometry": {"d_m": %s}}' % token))

    @pytest.mark.parametrize("section, key", [("geometry", "d_m"), ("", "pump_input_power_w")])
    @pytest.mark.parametrize("value", [10 ** 400, -10 ** 400])
    def test_integers_beyond_the_float_range_rejected_by_path(self, tmp_path, section, key, value):
        # float() of such a JSON integer raises OverflowError, which is no ScenarioError.
        path = f"{section}.{key}" if section else key
        with pytest.raises(ScenarioError, match=re.escape(f"{path}: must be finite, got {value!r}")):
            load_scenario(write(tmp_path, {section: {key: value}} if section else {key: value}))

    def test_scenario_level_check(self, tmp_path):
        with pytest.raises(ScenarioError, match=re.escape("pump_input_power must be >= 0, got -1.0")):
            load_scenario(write(tmp_path, {"pump_input_power_w": -1}))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_model_values_rejected_by_name(self, value):
        with pytest.raises(ValueError, match=re.escape(f"log_base must be finite, got {value!r}")):
            ModelChoices(log_base=value)
        with pytest.raises(ValueError, match=re.escape(f"pump_input_power must be finite, got {value!r}")):
            replace(default_scenario(), pump_input_power=value)

    def test_explicit_loss_scale_cannot_be_nan(self):
        # With n_source "explicit" the link's own N reaches the chain: a NaN there once
        # gave spectral_efficiency = nan from operating_point without an error.
        s = default_scenario()
        explicit = replace(s, model_choices=replace(s.model_choices, n_source="explicit"))
        assert math.isfinite(operating_point(explicit)["spectral_efficiency"])
        with pytest.raises(ValueError, match="loss_scale must be finite, got nan"):
            replace(explicit, link=LinkBudgetParams(loss_scale=math.nan))

    def test_n_source_values(self, tmp_path):
        with pytest.raises(ScenarioError):
            load_scenario(write(tmp_path, {"model_choices": {"N_source": "guessed"}}))
        s = load_scenario(write(tmp_path, {"model_choices": {"N_source": "explicit"}}))
        assert s.model_choices.n_source == "explicit"


class TestUnknownKeys:
    def test_lax_warns(self, tmp_path):
        path = write(tmp_path, {"geometry": {"tilt_mrad": 1.0}})
        with pytest.warns(UserWarning, match="tilt_mrad"):
            s = load_scenario(path)
        assert s.geometry == default_scenario().geometry

    def test_strict_raises(self, tmp_path):
        path = write(tmp_path, {"geometry": {"tilt_mrad": 1.0}})
        with pytest.raises(ScenarioError, match="tilt_mrad"):
            load_scenario(path, strict=True)

    def test_unknown_top_level(self, tmp_path):
        with pytest.raises(ScenarioError, match="extras"):
            load_scenario(write(tmp_path, {"extras": {}}), strict=True)


class TestRoundTrip:
    def test_save_load_identity_default(self, tmp_path):
        s = default_scenario()
        path = tmp_path / "out.json"
        save_scenario(s, path)
        assert load_scenario(path) == s

    def test_save_load_identity_modified(self, tmp_path):
        raw = {
            "geometry": {"rho2_mm": 25000, "d_m": 4.25, "magnification": 2.75, "L2_mm": 150},
            "link": {"loss_scale": 10.309603506835359},
            "receiver": {"split_ratio": 0.9},
            "pump_input_power_w": 250,
            "model_choices": {"N_source": "explicit", "log_base": 2, "lambda_nm": 1064},
        }
        first = scenario_from_dict(raw)
        path = tmp_path / "out.json"
        save_scenario(first, path)
        again = load_scenario(path)
        assert again == first

    def test_dict_round_trip(self):
        s = default_scenario()
        assert scenario_from_dict(scenario_to_dict(s)) == s

    @pytest.mark.parametrize("field, value, key", [("rho1", -1e307, "geometry.rho1_mm"),
                                                   ("wavelength", 1e300, "model_choices.lambda_nm")])
    def test_save_rejects_a_length_that_overflows_in_file_units(self, tmp_path, field, value, key):
        # A finite SI value whose file-unit value is not finite would be written as (-)Infinity,
        # which load_scenario rejects; save_scenario names the key and writes nothing.
        s = default_scenario()
        s = replace(s, geometry=replace(s.geometry, **{field: value}))
        path = tmp_path / "out.json"
        with pytest.raises(ScenarioError, match=rf"^{re.escape(key)}: "):
            save_scenario(s, path)
        assert not path.exists()
        assert not math.isfinite(scenario_to_dict(s)[key.split(".")[0]][key.split(".")[1]])
