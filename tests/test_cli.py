"""Command-line interface: subcommands, exit codes, CSV output."""

import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bcrbsim import CavityGeometry, SweepSpec, run_sweep
from bcrbsim.cli import _BLOCK, _blocks, run_command
from bcrbsim.ray_matrix import _LAYOUTS
from bcrbsim.scenario import _KEYS, _number
from bcrbsim.sweep_search import _SWEEP_UNITS

LAYOUTS = sorted(_LAYOUTS)

UNIT_LINE = re.compile(r"^[\w*]+ = \S+ \[[^\]]+\]$")
# The sweep columns of the chain after the cavity.
CHAIN_CELLS = ["delta_t", "beam_power", "pv_output", "data_signal", "shot_noise", "thermal_noise", "total_noise",
               "spectral_efficiency"]


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def template_columns(ds, template):
    """The names of the columns that a block's %-template holds as text, not as a %.9g field."""
    return [name.split(" [")[0] for name, field in zip(ds.columns, template.split(",")) if field != "%.9g"]


def value_of(stdout, name):
    for line in stdout.splitlines():
        if line.startswith(f"{name} = "):
            return float(line.split(" = ")[1].split(" [")[0])
    raise AssertionError(f"no line for {name!r} in output:\n{stdout}")


class TestStability:
    def test_reference_point(self, capsys):
        code, out, err = run(capsys, "stability", "--d", "2.6")
        assert code == 0
        assert "stable = true" in out
        assert 0.0 < value_of(out, "A*D") < 1.0
        assert value_of(out, "d_max") == pytest.approx(8.675, abs=5e-3)

    def test_unstable_distance(self, capsys):
        code, out, err = run(capsys, "stability", "--d", "9.5")
        assert code == 0
        assert "stable = false" in out

    def test_no_stable_region_exit_2(self, tmp_path, capsys):
        config = tmp_path / "s.json"
        config.write_text(json.dumps({"geometry": {"rho2_mm": -10000}}))
        code, out, err = run(capsys, "--config", str(config), "stability")
        assert code == 2
        assert "error:" in err

    def test_two_bands_warned_once(self, tmp_path, capsys, caplog):
        config = tmp_path / "s.json"
        config.write_text(json.dumps({"geometry": {"rho1_mm": -2700, "rho2_mm": 670, "f_gain_mm": 210,
                                                   "f1_mm": 3, "magnification": 0.82, "L1_mm": 4,
                                                   "L2_mm": 140}}))
        code, out, err = run(capsys, "--config", str(config), "stability", "--d-hi", "20")
        assert code == 0
        assert value_of(out, "stability_bands") == 2
        assert [(r.name, r.getMessage()) for r in caplog.records] == [
            ("bcrbsim.sweep_search", "found 2 stability bands in (0, 20] m; returning the upper edge of the first")]

    @pytest.mark.parametrize("cap", ["4.51e15", "1e308", repr(sys.float_info.max)])
    def test_huge_cap_keeps_the_first_edge(self, capsys, caplog, cap):
        # The second band starts past the first edge and reaches the cap; a cap this large moves neither.
        code, out, err = run(capsys, "stability", "--d-hi", cap)
        assert code == 0
        assert "stability_bands = 2 [-]" in out.splitlines()
        assert "d_max = 8.67523606 [m]" in out.splitlines()
        assert len(caplog.records) == 1

    def test_invalid_search_cap_prints_nothing(self, capsys):
        code, out, err = run(capsys, "stability", "--d-hi", "-1")
        assert code == 1
        assert out == ""
        assert "d_hi must be > 0" in err

    @pytest.mark.parametrize("cap", ["nan", "inf"])
    def test_non_finite_search_cap_prints_nothing(self, capsys, cap):
        code, out, err = run(capsys, "stability", "--d-hi", cap)
        assert (code, out) == (1, "")
        assert f"d_hi must be finite, got {cap}" in err


class TestSpot:
    def test_radii_lines(self, capsys):
        code, out, err = run(capsys, "spot", "--d", "2.6")
        assert code == 0
        assert value_of(out, "omega3") < 0.4e-3
        assert value_of(out, "omega1") > 0

    def test_original_system(self, capsys):
        code, out, err = run(capsys, "spot", "--d", "2.6", "--system", "original")
        assert code == 0
        assert value_of(out, "omega3") > 0.4e-3

    def test_unstable_exit_1(self, capsys):
        code, out, err = run(capsys, "spot", "--d", "9.5")
        assert code == 1
        assert "error:" in err


class TestPower:
    def test_calibrated_original_anchor(self, capsys):
        code, out, err = run(capsys, "power", "--d", "3", "--system", "original", "--P-in", "210")
        assert code == 0
        assert value_of(out, "P_beam") == pytest.approx(5.0, abs=1e-6)

    def test_bcrb_plateau(self, capsys):
        code, out, err = run(capsys, "power", "--d", "6", "--P-in", "210", "--mu", "1")
        assert code == 0
        assert value_of(out, "P_beam") == pytest.approx(10.214292485043146, rel=1e-6)

    def test_mu_out_of_range(self, capsys):
        code, out, err = run(capsys, "power", "--d", "3", "--mu", "1.5")
        assert code == 1

    @pytest.mark.parametrize("command", ["power", "comms"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_input_power_exit_1(self, capsys, command, value):
        code, out, err = run(capsys, command, "--P-in", value)
        assert (code, out) == (1, "")
        assert err == f"error: input power must be finite, got {float(value)!r}\n"


class TestComms:
    def test_chain_output(self, capsys):
        code, out, err = run(capsys, "comms", "--d", "2.6", "--P-in", "200", "--mu", "0.99")
        assert code == 0
        assert value_of(out, "spectral_efficiency") == pytest.approx(12.975, abs=0.05)

    def test_huge_input_power_gives_finite_efficiency(self, capsys):
        # P_data^2 overflows a float here; the efficiency is taken in logs.
        code, out, err = run(capsys, "comms", "--P-in", "1e300", "--mu", "0.5")
        assert code == 0
        assert value_of(out, "spectral_efficiency") == pytest.approx(511.857016, rel=1e-9)

    def test_unit_suffix_on_every_numeric_line(self, capsys):
        code, out, err = run(capsys, "comms", "--d", "2.6")
        assert code == 0
        for line in out.strip().splitlines():
            assert UNIT_LINE.match(line), f"line missing unit suffix: {line!r}"


class TestCalibrate:
    def test_prints_fitted_scale(self, capsys):
        code, out, err = run(capsys, "calibrate")
        assert code == 0
        assert value_of(out, "N") == pytest.approx(10.309603506835359, rel=1e-9)

    def test_infeasible_anchor_exit_2(self, capsys):
        code, out, err = run(capsys, "calibrate", "--anchor-P-beam", "50")
        assert code == 2

    def test_anchor_below_intercept_exit_2(self, capsys):
        # The intercept is -51.83 W: no aperture loss brings the beam power down to -60 W.
        code, out, err = run(capsys, "calibrate", "--anchor-P-beam", "-60")
        assert (code, out) == (2, "")
        assert err == "error: anchor beam power -60.0 W is unreachable for intercept -51.83 W\n"

    @pytest.mark.parametrize("command", ["power", "comms", "calibrate"])
    def test_underflowing_loss_exponential_exit_2(self, tmp_path, capsys, command):
        # At 2 nm the anchor's exp(-2*pi*b^2/(lambda*d)) is 0, so no finite N fits.
        config = tmp_path / "s.json"
        config.write_text(json.dumps({"model_choices": {"lambda_nm": 2}}))
        code, out, err = run(capsys, "--config", str(config), command)
        assert (code, out) == (2, "")
        assert err == ("error: loss scale N is not finite for anchor distance 3.0 m, aperture 0.0015 m "
                       "and wavelength 2e-09 m\n")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("flag, name", [("--anchor-d", "anchor distance"),
                                            ("--anchor-P-beam", "anchor beam power"),
                                            ("--P-in", "anchor input power")])
    def test_non_finite_anchor_exit_1(self, capsys, flag, name, value):
        code, out, err = run(capsys, "calibrate", flag, value)
        assert (code, out) == (1, "")
        assert err == f"error: {name} must be finite, got {float(value)!r}\n"


class TestFigure:
    def test_unknown_id_exit_1(self, capsys):
        code, out, err = run(capsys, "figure", "fig99")
        assert code == 1
        assert "fig99" in err

    def test_writes_csv(self, tmp_path, capsys):
        out_path = tmp_path / "fig6.csv"
        code, out, err = run(capsys, "figure", "fig6", "--out", str(out_path))
        assert code == 0
        text = out_path.read_text()
        lines = text.splitlines()
        header = next(line for line in lines if not line.startswith("#"))
        assert header == "d [m],omega3_bcrb [m],omega3_original [m],beam_power_bcrb [W],beam_power_original [W]"
        assert "# figure_id = fig6" in lines
        assert text.endswith("\n") and "\r" not in text

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, "figure", "fig12", "--out", str(a))[0] == 0
        assert run(capsys, "figure", "fig12", "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_nine_significant_digits(self, tmp_path, capsys):
        out_path = tmp_path / "fig6.csv"
        run(capsys, "figure", "fig6", "--out", str(out_path))
        data_line = next(line for line in out_path.read_text().splitlines()
                         if not line.startswith("#") and not line.startswith("d "))
        for cell in data_line.split(","):
            mantissa = cell.lstrip("-").split("e")[0].replace(".", "")
            assert len(mantissa.lstrip("0")) <= 9


class TestSweep:
    def test_distance_sweep_csv(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code, out, err = run(capsys, "sweep", "--variable", "d", "--lo", "1", "--hi", "6",
                             "--samples", "11", "--out", str(out_path))
        assert code == 0
        lines = [line for line in out_path.read_text().splitlines() if not line.startswith("#")]
        assert len(lines) == 12  # header + 11 rows
        assert lines[0].startswith("d [m],")

    def test_variable_alias(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code, out, err = run(capsys, "sweep", "--variable", "M", "--lo", "2", "--hi", "5",
                             "--samples", "4", "--out", str(out_path))
        assert code == 0
        header = next(line for line in out_path.read_text().splitlines() if not line.startswith("#"))
        assert header.startswith("magnification [-],")

    def test_invalid_range_exit_1(self, tmp_path, capsys):
        code, out, err = run(capsys, "sweep", "--variable", "d", "--lo", "5", "--hi", "1",
                             "--samples", "4", "--out", str(tmp_path / "x.csv"))
        assert code == 1

    @pytest.mark.parametrize("variable, lo, hi, system, constant", [
        ("p_in", 150.0, 300.0, "bcrb", ["stable", "stability_product", "omega1", "omega2", "omega3", "delta_t",
                                        "thermal_noise"]),
        ("rho2", 1.0, 50.0, "bcrb", CHAIN_CELLS),
        ("magnification", 1.5, 6.0, "bcrb", ["stable", *CHAIN_CELLS]),
        ("d", 1.0, 60.0, "original", ["thermal_noise"]),
    ])
    def test_constant_columns_enter_the_block_template(self, variable, lo, hi, system, constant):
        # A regression guard: the columns that the swept variable never reaches
        # are formatted once per block, not once per row.
        ds = run_sweep(SweepSpec(variable, lo, hi, 101, system))
        [(count, template, _)] = _blocks(ds)
        assert count == 101
        assert template_columns(ds, template) == constant

    def test_blocks_past_the_cutoff_and_the_edge_enter_the_template(self):
        # Past the lasing cutoff the power and data cells are all 0 or one value; past the stability
        # edge the cavity cells are 0 and NaN.  A block wholly past either carries them in its template.
        ds = run_sweep(SweepSpec("d", 1.0, 60.0, 10_001, "original"))
        power = ds.column("beam_power [W]")
        cutoff = max(k for k, p in enumerate(power) if p != 0.0) + 1
        edge = ds.column("stable [-]").index(0.0)
        assert 0 < cutoff < edge < ds.n_rows - 2 * _BLOCK
        blocks = list(_blocks(ds))
        assert [count for count, _, _ in blocks] == [_BLOCK] * (ds.n_rows // _BLOCK) + [ds.n_rows % _BLOCK]
        power_and_data = CHAIN_CELLS[1:]
        spots = ["stable", "omega1", "omega2", "omega3"]
        past = 0
        for k, (_, template, _) in enumerate(blocks):
            names = template_columns(ds, template)
            if k * _BLOCK >= cutoff:
                assert set(power_and_data) <= set(names)
            if k * _BLOCK >= edge:
                assert set(spots) <= set(names)
                past += 1
        assert past >= 2

    @pytest.mark.parametrize("variable", ["p_in", "loss_scale", "d"])
    def test_non_finite_range_exit_1(self, tmp_path, capsys, variable):
        out_path = tmp_path / "x.csv"
        code, out, err = run(capsys, "sweep", "--variable", variable, "--lo", "1", "--hi", "inf",
                             "--samples", "3", "--out", str(out_path))
        assert (code, out, err) == (1, "", "error: sweep range must be finite, got [1.0, inf]\n")
        assert not out_path.exists()


class TestDistanceUnderflow:
    # Below d ~ 2e-318, wavelength * d underflows to 0 at 1064 nm; the aperture loss is its limit there, 0.
    @pytest.mark.parametrize("command, d", [("power", "5e-324"), ("comms", "1e-320")])
    def test_point_commands_exit_0(self, capsys, command, d):
        code, out, err = run(capsys, command, "--d", d)
        assert (code, err) == (0, "")
        assert value_of(out, "d") == float(d)
        assert value_of(out, "P_beam") == pytest.approx(10.214292485043146, rel=1e-6)

    def test_sweep_exit_0(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code, out, err = run(capsys, "sweep", "--variable", "d", "--lo", "5e-324", "--hi", "1",
                             "--samples", "3", "--out", str(out_path))
        assert (code, err) == (0, "")
        header, *rows = [line.split(",") for line in out_path.read_text().splitlines() if not line.startswith("#")]
        assert len(rows) == 3
        assert float(rows[0][header.index("delta_t [-]")]) == 0.0


class TestWavelengthOverflow:
    # (wavelength/pi)^2 overflows above ~4e154 m: the command exits 1 with an error that names the wavelength.
    def test_sweep_exit_1(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code, out, err = run(capsys, "sweep", "--variable", "wavelength", "--lo", "1", "--hi", "1e300",
                             "--samples", "3", "--out", str(out_path))
        assert (code, out, err) == (1, "", "error: wavelength 5e+299 m is too long: (wavelength/pi)^2 overflows\n")
        assert not out_path.exists()

    def test_spot_from_scenario_exit_1(self, tmp_path, capsys):
        config = tmp_path / "s.json"
        config.write_text(json.dumps({"model_choices": {"lambda_nm": 1e300}}))
        code, out, err = run(capsys, "--config", str(config), "spot")
        assert (code, out, err) == (1, "", "error: wavelength 1e+291 m is too long: (wavelength/pi)^2 overflows\n")


class TestTelescopeOverflow:
    # f2 = f1 * M overflows where f1 and M are finite: the command exits 1 with an error that names both.
    @pytest.mark.parametrize("samples, f1", [(101, "5.2e+307"), (3, "1e+308")])
    def test_f1_sweep_exit_1(self, tmp_path, capsys, samples, f1):
        out_path = tmp_path / "sweep.csv"
        code, out, err = run(capsys, "sweep", "--variable", "f1", "--lo", "1", "--hi", "1e308",
                             "--samples", str(samples), "--out", str(out_path))
        assert (code, out, err) == (1, "", f"error: f2 = f1 * magnification overflows: f1 = {f1} m, "
                                           "magnification = 3.5\n")
        assert not out_path.exists()

    def test_original_layout_has_no_telescope(self, tmp_path, capsys):
        code, out, err = run(capsys, "sweep", "--variable", "f1", "--lo", "1", "--hi", "1e308",
                             "--system", "original", "--samples", "3", "--out", str(tmp_path / "sweep.csv"))
        assert (code, err) == (0, "")


# Every numeric input of the CLI, at the finite extremes, zeros, non-finite values or any float, ends in an
# exit code: a flag of a point command, a sweep range of any variable on either layout, a scenario file key.
EXTREMES = [value for magnitude in (0.0, 5e-324, 1e-308, 1.0, 1e308, sys.float_info.max, math.inf)
            for value in (magnitude, -magnitude)] + [math.nan]
VALUES = st.one_of(st.sampled_from(EXTREMES), st.floats())
FLOAT_FLAGS = {"stability": ("--d", "--d-hi"), "spot": ("--d",), "power": ("--d", "--P-in", "--mu"),
               "comms": ("--d", "--P-in", "--mu"), "calibrate": ("--anchor-d", "--anchor-P-beam", "--P-in")}
SCENARIO_COMMANDS = [["stability"], ["spot"], ["power"], ["comms"], ["calibrate"],
                     ["figure", "fig7", "--out", os.devnull],
                     ["sweep", "--variable", "d", "--lo", "1", "--hi", "6", "--samples", "3", "--out", os.devnull]]
NUMERIC_KEYS = [(k.section, k.key) for k in _KEYS if k.check is _number]


def exit_code(argv, scenario=None):
    """run_command's exit code, with its output discarded; any exception escapes."""
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        if scenario is not None:
            (Path(tmp) / "s.json").write_text(json.dumps(scenario))
            argv = ["--config", str(Path(tmp) / "s.json"), *argv]
        return run_command(argv)


@st.composite
def flag_commands(draw):
    command = draw(st.sampled_from(sorted(FLOAT_FLAGS)))
    flags = draw(st.lists(st.sampled_from(FLOAT_FLAGS[command]), unique=True, min_size=1, max_size=2))
    return [command, *(f"{flag}={draw(VALUES)!r}" for flag in flags), f"--system={draw(st.sampled_from(LAYOUTS))}"]


class TestNoTraceback:
    @settings(max_examples=150, deadline=None)
    @given(argv=flag_commands())
    def test_float_flags(self, argv):
        assert exit_code(argv) in (0, 1, 2)

    @settings(max_examples=150, deadline=None)
    @given(variable=st.sampled_from(sorted(_SWEEP_UNITS)), lo=VALUES, hi=VALUES, samples=st.integers(2, 5),
           system=st.sampled_from(LAYOUTS))
    @example(variable="wavelength", lo=1.0, hi=1e300, samples=3, system="bcrb")
    def test_sweep_ranges(self, variable, lo, hi, samples, system):
        argv = ["sweep", "--variable", variable, f"--lo={lo!r}", f"--hi={hi!r}", f"--samples={samples}",
                f"--system={system}", "--out", os.devnull]
        assert exit_code(argv) in (0, 1, 2)

    @settings(max_examples=150, deadline=None)
    @given(key=st.sampled_from(NUMERIC_KEYS), value=VALUES, argv=st.sampled_from(SCENARIO_COMMANDS))
    @example(key=("model_choices", "lambda_nm"), value=1e300, argv=["spot"])
    def test_scenario_keys(self, key, value, argv):
        section, name = key
        assert exit_code(argv, {section: {name: value}} if section else {name: value}) in (0, 1, 2)


class TestConfigHandling:
    def test_config_honored(self, tmp_path, capsys):
        config = tmp_path / "s.json"
        config.write_text(json.dumps({"geometry": {"d_m": 4.0}}))
        code, out, err = run(capsys, "--config", str(config), "stability")
        assert code == 0
        assert value_of(out, "d") == 4.0

    def test_missing_config_exit_1(self, capsys):
        code, out, err = run(capsys, "--config", "/nonexistent/s.json", "stability")
        assert code == 1

    def test_invalid_config_exit_1(self, tmp_path, capsys):
        config = tmp_path / "s.json"
        config.write_text("{broken")
        code, out, err = run(capsys, "--config", str(config), "stability")
        assert code == 1

    def test_strict_unknown_key_exit_1(self, tmp_path, capsys):
        config = tmp_path / "s.json"
        config.write_text(json.dumps({"geometry": {"bogus_mm": 1}}))
        code, out, err = run(capsys, "--strict", "--config", str(config), "stability")
        assert code == 1


class TestDistanceFlag:
    POINT_COMMANDS = ["stability", "spot", "power", "comms"]

    @pytest.mark.parametrize("d", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_bad_distance_is_the_geometry_error_on_every_command(self, capsys, d):
        # --d replaces the scenario's d before a command runs, so it is checked as the geometry's d, once.
        with pytest.raises(ValueError) as info:
            CavityGeometry(d=d)
        outcomes = {run(capsys, command, f"--d={d!r}") for command in self.POINT_COMMANDS}
        assert outcomes == {(1, "", f"error: {info.value}\n")}

    @pytest.mark.parametrize("command", POINT_COMMANDS)
    def test_bad_config_is_reported_before_a_bad_distance(self, tmp_path, capsys, command):
        config = tmp_path / "s.json"
        config.write_text(json.dumps({"geometry": {"d_m": "far"}}))
        code, out, err = run(capsys, "--config", str(config), command, "--d=-1.0")
        assert (code, out, err) == (1, "", "error: geometry.d_m: expected a number, got 'far'\n")


class TestConfigValuesThatOverflow:
    @pytest.mark.parametrize("scenario, message", [
        ({"geometry": {"d_m": 10 ** 400}}, f"geometry.d_m: must be finite, got {10 ** 400!r}"),
        ({"pump_input_power_w": -10 ** 400}, f"pump_input_power_w: must be finite, got {-10 ** 400!r}"),
        ({"geometry": {"magnification": 5e-324}}, "geometry: magnification must be > 2**-1024, got 5e-324"),
        ({"geometry": {"rho1_mm": -1e-308}}, "geometry: |rho1| must be > 2**-1024, got 1e-311"),
    ])
    @pytest.mark.parametrize("command", ["stability", "spot", "power", "comms"])
    def test_exit_1_naming_the_value(self, tmp_path, capsys, scenario, message, command):
        # A huge integer once escaped as OverflowError; a reciprocal that overflows once gave a NaN round trip.
        config = tmp_path / "s.json"
        config.write_text(json.dumps(scenario))
        assert run(capsys, "--config", str(config), command) == (1, "", f"error: {message}\n")


class TestUsage:
    def test_no_command_exit_1(self, capsys):
        assert run(capsys, )[0] == 1

    def test_unknown_command_exit_1(self, capsys):
        assert run(capsys, "teleport")[0] == 1

    def test_help_exit_0(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_repeat_run_byte_identical_stdout(self, capsys):
        code1, out1, _ = run(capsys, "stability", "--d", "2.6")
        code2, out2, _ = run(capsys, "stability", "--d", "2.6")
        assert (code1, out1) == (code2, out2)


def _imported(*argv):
    """Names of the modules a fresh interpreter run with these arguments imports (from -X importtime)."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "bcrbsim", "stability", "--d", "2.6"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "stable = true" in proc.stdout

    def test_import_leaves_numpy_out(self):
        # numpy is a test extra; logging, json and decimal are loaded only where a command uses them.
        # Modules the bare interpreter already loads (site and what it pulls in) do not count.
        bare = _imported("-c", "pass")
        for argv in (["-c", "import bcrbsim.cli"], ["-m", "bcrbsim", "spot"]):
            assert sorted({"numpy", "logging", "json", "decimal"} & (_imported(*argv) - bare)) == [], argv
