"""Golden output: CSV, CLI stdout and scenario-file bytes, pinned by sha256.

The digests were recorded from the code before the model chain was folded
into one path; the fig8/fig9, series and `stability` digests from the code
before the figure builders became one grid engine.  Besides the reference scenario, every output is pinned under
a variant that alone exercises the unclamped beam power, the explicit loss
scale, the natural-log spectral efficiency and a 1550 nm wavelength, and the
power-side outputs under a dark, cold receiver (zero background current, 0 K),
whose total noise is 0 wherever the data signal is 0.  Every figure is also
pinned under non-default series sets, and the `stability` command under a
geometry with no stable band (exit 2) and one with two bands.  The search
pins, recorded before every search closed one shared round-trip prefix,
hold the repr of each search result (or the error type and message) over
a fixed seeded list of geometries; the max_spot_over_range pins on the
wide, [1, 10] m and 2/3/1001-sample cases were recorded while every grid
point was still evaluated.  The sweeps over rho1, f_gain, f1, L1
and L2, the sweeps under an unclamped scenario and the error of each
failing sweep grid were recorded before run_sweep stopped evaluating
operating_point per point.  The sweeps over M and L1 in the bcrb layout, over
f1, f_gain, L2, rho1, rho2 and the wavelength in the original layout, and
the errors of the M, rho2 and f1 sweeps under the dark, cold receiver at
300 m were recorded before a sweep folded the round trip once, up to the
first element its variable reaches.

Print the digests of the current code with `python tests/test_golden_output.py`.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from bcrbsim import (
    BeamSimError,
    CavityGeometry,
    SweepSpec,
    generate_figure,
    max_spot_over_range,
    max_stable_distance,
    required_rho2,
    run_sweep,
    save_scenario,
    stability_bands,
)
from bcrbsim.cli import format_dataset_csv, run_command
from bcrbsim.scenario import scenario_from_dict

SCENARIOS = {
    "default": {},
    "variant": {"model_choices": {"clamp_negative_power": False, "N_source": "explicit",
                                  "log_base": math.e, "lambda_nm": 1550}},
    "dark_cold": {"receiver": {"background_current_a": 0, "temperature_k": 0}},
    "dark_cold_300m": {"receiver": {"background_current_a": 0, "temperature_k": 0}, "geometry": {"d_m": 300}},
    "no_stable": {"geometry": {"rho2_mm": -10000}},
    "two_bands": {"geometry": {"rho1_mm": -2700, "rho2_mm": 670, "f_gain_mm": 210, "f1_mm": 3,
                               "magnification": 0.82, "L1_mm": 4, "L2_mm": 140, "d_m": 0.05}},
    "unclamped": {"model_choices": {"clamp_negative_power": False}},
}

FIGURES = ("fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13")

# generate_figure keywords for the non-default series cases
SERIES = {"m_values": (2.0, 4.25), "d_values": (12.5, 35.0),
          "p_in_values": (180.0, 260.0), "mu_values": (0.3, 0.75)}

# name -> (variable, lo, hi, system), 101 points each
SWEEPS = {
    "d_bcrb": ("d", 1.0, 6.0, "bcrb"),
    "d_original": ("d", 1.0, 60.0, "original"),
    "p_in": ("p_in", 150.0, 300.0, "bcrb"),
    "mu": ("mu", 0.0, 1.0, "bcrb"),
    "loss_scale": ("loss_scale", 0.5, 2.0, "bcrb"),
    "wavelength": ("wavelength", 800e-9, 1600e-9, "bcrb"),
    "rho2": ("rho2", 1.0, 50.0, "bcrb"),
    "magnification": ("magnification", 1.5, 6.0, "original"),
    "rho1": ("rho1", -2.0, -0.3, "bcrb"),
    "f_gain": ("f_gain", 0.3, 2.0, "bcrb"),
    "f1": ("f1", 0.002, 0.05, "bcrb"),
    "L1": ("L1", 0.0, 0.01, "original"),
    "L2": ("L2", 0.0, 0.3, "bcrb"),
    "magnification_bcrb": ("magnification", 1.5, 6.0, "bcrb"),
    "f1_original": ("f1", 0.002, 0.05, "original"),
    "f_gain_original": ("f_gain", 0.3, 2.0, "original"),
    "L2_original": ("L2", 0.0, 0.3, "original"),
    "rho1_original": ("rho1", -2.0, -0.3, "original"),
    "rho2_original": ("rho2", 1.0, 50.0, "original"),
    "wavelength_original": ("wavelength", 800e-9, 1600e-9, "original"),
    "L1_bcrb": ("L1", 0.0, 0.01, "bcrb"),
}

# Sweeps pinned under the calibrated loss scale with negative powers left
# unclamped: beam power falls below 0 beyond ~40 m (original), below ~175 W
# pump input, and the PV output below mu ~0.43.
UNCLAMPED_SWEEPS = ("d_bcrb", "d_original", "mu", "p_in")

CLI = {
    "power_d2.6": ["power", "--d", "2.6"],
    "power_d200": ["power", "--d", "200"],
    "power_d200_pin150": ["power", "--d", "200", "--P-in", "150"],
    "comms_d2.6": ["comms", "--d", "2.6"],
    "comms_d200": ["comms", "--d", "200"],
    "comms_d200_pin150": ["comms", "--d", "200", "--P-in", "150"],
    "stability": ["stability"],
    "stability_d9.5": ["stability", "--d", "9.5"],
    "stability_original": ["stability", "--system", "original"],
}



def _search_geometries(count):
    # The default design, the four geometries of test_sweep_search.TestExactBands,
    # then seeded draws from the sampling ranges of test_acceptance.random_geometries.
    out = [
        CavityGeometry(),
        CavityGeometry(rho1=0.36, rho2=-9.47, f_gain=0.33, f1=0.043, magnification=0.71, L1=0.005, L2=0.04),
        CavityGeometry(rho1=-2.7, rho2=0.67, f_gain=0.21, f1=0.003, magnification=0.82, L1=0.004, L2=0.14),
        CavityGeometry(rho1=-24.1, rho2=1.01, f_gain=0.24, f1=0.009, magnification=2.0, L1=0.0, L2=0.21),
        CavityGeometry(rho1=-3.96, rho2=0.48, f_gain=0.22, f1=0.002, magnification=1.43, L1=0.003, L2=0.0),
    ]
    rng = np.random.default_rng(20261018)

    def logu(lo, hi):
        return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
    while len(out) < count:
        out.append(CavityGeometry(
            rho1=logu(0.3, 50.0) * (1 if rng.random() < 0.5 else -1),
            rho2=logu(0.3, 50.0) * (1 if rng.random() < 0.5 else -1),
            f_gain=logu(0.2, 5.0), f1=logu(2e-3, 0.05), magnification=logu(0.5, 5.0),
            L1=float(rng.uniform(0.0, 0.01)), L2=float(rng.uniform(0.0, 0.3)), d=logu(0.01, 20.0)))
    return out


SEARCH_GEOMETRIES = _search_geometries(200)

# name -> one search call on a geometry
SEARCHES = {
    "stability_bands_bcrb": lambda g: stability_bands(g, 20.0, system="bcrb"),
    "stability_bands_original": lambda g: stability_bands(g, 20.0, system="original"),
    "max_stable_distance_bcrb": lambda g: max_stable_distance(g, 20.0, system="bcrb"),
    "max_stable_distance_original": lambda g: max_stable_distance(g, 20.0, system="original"),
    "required_rho2": lambda g: required_rho2(g, g.d, 50.0),
    "required_rho2_cap2": lambda g: required_rho2(g, g.d, 2.0),
    "max_spot_over_range": lambda g: max_spot_over_range(g, 0.05, 0.95),
    "max_spot_over_range_half": lambda g: max_spot_over_range(g, 0.5 * g.d, g.d),
    "max_spot_over_range_point": lambda g: max_spot_over_range(g, g.d, g.d),
    "max_spot_over_range_wide": lambda g: max_spot_over_range(g, 0.01, 20.0),
    "max_spot_over_range_1_10": lambda g: max_spot_over_range(g, 1.0, 10.0),
    "max_spot_over_range_samples2": lambda g: max_spot_over_range(g, 0.05, 0.95, samples=2),
    "max_spot_over_range_samples3": lambda g: max_spot_over_range(g, 0.05, 0.95, samples=3),
    "max_spot_over_range_samples1001": lambda g: max_spot_over_range(g, 0.05, 0.95, samples=1001),
}


def search_outcome(search, g):
    """repr of a search result, or the type and message of the error it raised."""
    try:
        return repr(search(g))
    except (BeamSimError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _cases():
    cases = {}
    for name in ("default", "variant"):
        for fig in FIGURES:
            cases[f"{name}/{fig}"] = ("figure", name, fig)
            cases[f"{name}/{fig}_series"] = ("series", name, fig)
        for sweep in SWEEPS:
            cases[f"{name}/sweep_{sweep}"] = ("sweep", name, sweep)
        for command in CLI:
            cases[f"{name}/cli_{command}"] = ("cli", name, command)
        cases[f"{name}/save_scenario"] = ("save", name, None)
    for fig in ("fig6", "fig7", "fig11"):
        cases[f"dark_cold/{fig}"] = ("figure", "dark_cold", fig)
    for sweep in UNCLAMPED_SWEEPS:
        cases[f"unclamped/sweep_{sweep}"] = ("sweep", "unclamped", sweep)
    cases["dark_cold/cli_power_d200"] = ("cli", "dark_cold", "power_d200")
    cases["no_stable/cli_stability"] = ("cli", "no_stable", "stability")
    cases["two_bands/cli_stability"] = ("cli", "two_bands", "stability")
    for search in SEARCHES:
        cases[f"search/{search}"] = ("search", None, search)
    return cases


CASES = _cases()


def cli_output(scenario_name, argv):
    """Exit code, stdout and stderr of one in-process CLI run on a scenario."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "scenario.json"
        config.write_text(json.dumps(SCENARIOS[scenario_name]), encoding="utf-8")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_command(["--config", str(config)] + argv)
    return code, out.getvalue(), err.getvalue()


def render(kind, scenario_name, item):
    if kind == "search":
        return "".join(f"{search_outcome(SEARCHES[item], g)}\n" for g in SEARCH_GEOMETRIES)
    s = scenario_from_dict(SCENARIOS[scenario_name], strict=True)
    if kind == "figure":
        return format_dataset_csv(generate_figure(item, s))
    if kind == "series":
        return format_dataset_csv(generate_figure(item, s, **SERIES))
    if kind == "sweep":
        variable, lo, hi, system = SWEEPS[item]
        return format_dataset_csv(run_sweep(SweepSpec(variable, lo, hi, 101, system), s))
    if kind == "cli":
        code, out, _ = cli_output(scenario_name, CLI[item])
        return f"exit {code}\n{out}"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        save_scenario(s, path)
        return path.read_text(encoding="utf-8")


def digest(case):
    return hashlib.sha256(render(*CASES[case]).encode("utf-8")).hexdigest()


GOLDEN = {
    "dark_cold/cli_power_d200": "1cfb69f88b535eb29c51c02614769d090aa71d6e065457d927c3ce46c7914e22",
    "dark_cold/fig11": "a86adc59848c9d25a3fd936724ce28b245b935b68edda20f3dcb776343411ae9",
    "dark_cold/fig6": "9c450c228794a0e3db3dd69a37e3bb492e5afb3f20b864053a3f9f705e149ce4",
    "dark_cold/fig7": "ebd06395f8004222b48869cb48c78922da19f52772123d259afc0fa604faa149",
    "default/cli_comms_d2.6": "ca76c23fe01b2f3500e13f2af64c031b24c0bc092f4238885a9dfdca8b6ad852",
    "default/cli_comms_d200": "c35e68a275ad47fb20e34dd5e3cfdcbcd590e45aaf3366e7d4bb260da0534526",
    "default/cli_comms_d200_pin150": "fa1ea81113872b8f21967f1cc87169bb1163a807ea11808ef94a52a21437d1a6",
    "default/cli_power_d2.6": "ee31b2f1e6dbf64bccec02a1e68ddae1a1fbc71e1af3782c2cc7adda42cfdf03",
    "default/cli_power_d200": "1cfb69f88b535eb29c51c02614769d090aa71d6e065457d927c3ce46c7914e22",
    "default/cli_power_d200_pin150": "200b211755f37464c3d64fda11c927ece6f8e5904797423fcf9b3f780f083fb3",
    "default/cli_stability": "69455095dc8fda3e14b27bae51116accdd52c98665ff3371efcd395a531d2177",
    "default/cli_stability_d9.5": "0dd2b451db98b3fa0fc27e80a1b4176d1ba64d72bc33d6e6e8f104f756045109",
    "default/cli_stability_original": "6cbd2ead64b982d10ef8567f1c8027ca87c2ee37e8a68f405c62ee6136199de1",
    "default/fig10": "7757dfbbe51a626c19a9db2763b73439b6953b77ca51a66a33d062f5c4638207",
    "default/fig10_series": "4ad6e2d4aaf06712921633c8f609990f4666fe69361dc9c2ec880c6e73c541b4",
    "default/fig11": "6edbbd8298abe03a1c50c797c1472a3890ddc7d640a6179ad66cc202016f171d",
    "default/fig11_series": "8f9e8e978e9a80716ee7c518670dfa25832cb14451b0920224b512373519e8b9",
    "default/fig12": "f658818b569d7b209f6037237d1512151a6307b45b5c7badb18fedf9028f2492",
    "default/fig12_series": "910b68a8565e65832e6c3ea3fb134e9c0af5723249bf7deb5be301c5b38609a1",
    "default/fig13": "13c1d25589b9b1e008e5c428ef844a7cb28cfbf261258e35e334384104bb39a0",
    "default/fig13_series": "0406fa448c346783059a2d3fd407db02b6a9c68b6aa0faa3c9e9cb88531b5cc6",
    "default/fig6": "8bf3c415a08e6c3a98e5afefa898d692698641c353e45fa2170921b17fe09ffb",
    "default/fig6_series": "8bf3c415a08e6c3a98e5afefa898d692698641c353e45fa2170921b17fe09ffb",
    "default/fig7": "47434f6f974ff88288b9d9a37fa1684a4231e5ae549d79892cd34916192b424d",
    "default/fig7_series": "47434f6f974ff88288b9d9a37fa1684a4231e5ae549d79892cd34916192b424d",
    "default/fig8": "342b9b1a25c9421f926d22a9ee1a24d8ecd895d710119bb131c058bf25518476",
    "default/fig8_series": "9f955cd47b9cb01ed1b57a642b05772d5565c6d1597940deee180dfe1aeb6b25",
    "default/fig9": "2d6f79c473f89d0833763f01887c9cda6ca3329833c970f594f2f3666f48b203",
    "default/fig9_series": "7bb62cfe6b7dfa35cf0f7ab204e810e6151bd2a493aa08ccd567df0be2342ff0",
    "default/save_scenario": "0480db9a85ea408d133f133d32474de30deb9c7c34e3fbe6d6bfd4808ead1819",
    "default/sweep_L1": "06d479e15b01a21bc0f30982ec2b47b0ee82ceb5448ce5099626ec57a4a31db3",
    "default/sweep_L1_bcrb": "4078edc8a9ef645134515a475721b6f2952046d1080c844509cf09b23326a8ca",
    "default/sweep_L2": "0f359649ea870295dbaf73ae2117daf948ebe75067bb4aac852cb6e6c089d632",
    "default/sweep_L2_original": "185f6ddcbc2809dbcb022f435fdbbfb1507a8b98ef3f27c52ea8b40427fa209d",
    "default/sweep_d_bcrb": "bc3dab2bd24cf33bd8f18f53fd6c568515a0dcbddeba0e7307f5560406a5127a",
    "default/sweep_d_original": "bc542c204ea2d5550aec0a6f3de94b70a85e96ae75f5d1687ad8a1c169ca1d63",
    "default/sweep_f1": "c089b961071ef38e0bfe3e43f435f1612212df7557d09f459a8c3d6c3a51d83e",
    "default/sweep_f1_original": "03b0eefb52ad394a162266e0ba6c6a47e518a6d32365c19f017655aacdc6a35e",
    "default/sweep_f_gain": "de9070bfd48f7bd08005b1f88d620806034dae6c21337d15815569787206a8d6",
    "default/sweep_f_gain_original": "89f6095f25887a01eda0f12a0596fd8759fad0acc74e562465cd29dc2e50c017",
    "default/sweep_loss_scale": "ef565b60c59973497a7bf90f8b064d5a0e7bc3232a900b0969cafe55c66c91c2",
    "default/sweep_magnification": "a77fd765eb71ae684fa48f294a3d56008ab19ef424ce296a66eac3cc25b4550a",
    "default/sweep_magnification_bcrb": "ca330baef4760049d5912bbe7875a531408f7dfa3b81fef9ff82ce45934803d0",
    "default/sweep_mu": "f00bf4324942feabb31f67f71faa1701f98de6ab2fe0a693b944e98183f3442a",
    "default/sweep_p_in": "125b5be745c15e0b67c16f68466f1b2e8339de685272b0a9088b8680717f4574",
    "default/sweep_rho1": "719ac698d3e78426d18f24fa4c7845fe62cf2794c02980de33d4a9e005a2739e",
    "default/sweep_rho1_original": "fa1460b8d84704d8c2083bbcfd50d7a2adef0153f986b8901980a16c3da38ee2",
    "default/sweep_rho2": "2ddc71e71b48eda94746a513050d6b3538ca993976fe134dbbc13d437d2150df",
    "default/sweep_rho2_original": "58e7cc8ab1dfa91370c2de5dda8735408dc32ceb499412585cebeb8584613f15",
    "default/sweep_wavelength": "fafb0ac4102079995ea304f88ed934ab79bfdc86df0232170c8a1ad23fb63c41",
    "default/sweep_wavelength_original": "fc1704e94bf72281074a0e653253ddd6189d000e12a075b8224ca16753c0d2c0",
    "no_stable/cli_stability": "3aa83a73ae3196f4881bc5f371d6c0a3abfd404764636def14752011711986a1",
    "search/max_spot_over_range": "95d773527950f1d447adaddc3b4e5f1f9ae8998f6e74d79581fe638d103aab01",
    "search/max_spot_over_range_1_10": "d0ebf305044ac56537a1660fb16b2ad58086a74e3014d54c3ad9c124a9fe5382",
    "search/max_spot_over_range_half": "e2e4330f9adcfec4ecad5649d8a249b2e0d60b3ae12109be28e720232b4cb2f1",
    "search/max_spot_over_range_point": "4801672c8e4d623ecb781c19014e48304f0e9ffced8c9bf822b08d5c8fd2f78b",
    "search/max_spot_over_range_samples1001": "1b1c79a3ebe158893f75c2ec0cf9dbcba294a1e8f9b9b95b6eb5c7a3f161e5a0",
    "search/max_spot_over_range_samples2": "a40b80aa2a3a39f8c3df4fe923fd8e6757909a9f47b2c4b5469c4ffb65609a38",
    "search/max_spot_over_range_samples3": "9fd0a1248165956e6b93c42e2271934cca1225d557af9820422dc5336499cf19",
    "search/max_spot_over_range_wide": "f15035f7446d65303277f7743ff13911c3048edaf5204d90fb9801ed37e62784",
    "search/max_stable_distance_bcrb": "66a0743992888b374078629b6097db28d44138b0b89cee25e67ee87a60c05d6d",
    "search/max_stable_distance_original": "045c29a82a4f4df2d1a4a36e33f2aa66bd0c9a728f9e9940ad7c6dea6fd6c700",
    "search/required_rho2": "c27025c1bee80e26a3c00a134c86a9a0f5278379db84b805941378b692e679e3",
    "search/required_rho2_cap2": "1449813b985f6b56813d02d4e568b8854c4a58eacb0ddddbb186d8e570884a03",
    "search/stability_bands_bcrb": "83aa806c795c57200749db83e6179464987de13184dfd2a6fb19cd2cf5a0d8ab",
    "search/stability_bands_original": "84f371701072a596787242ab14be3c1a1720464899ce02247f623cdcc0e22af2",
    "two_bands/cli_stability": "80b2d0d5776a437ce4ddef697803fc8b85ab6480d8b186781dff22e2838f71f4",
    "unclamped/sweep_d_bcrb": "fd4d206ff7e2871f9187072fc217a955ea7c2301165216bb548485298165d17f",
    "unclamped/sweep_d_original": "94954283aa4668a351b1d0c14ca2698c92eb0a58c7b723a880717c4c243503e3",
    "unclamped/sweep_mu": "e18f118d68ce1bd157e7043effb294e7477e3b9b836d88acba71dd997ab93fe9",
    "unclamped/sweep_p_in": "a215caae7831ecdb6380667ef64e9ab7b8404b336ff6e20e82991292100e6a93",
    "variant/cli_comms_d2.6": "e9a3c237fca64977978afe44c4d008a61ea62547e0a5c8c5164ccf55b83d41c4",
    "variant/cli_comms_d200": "87e183bfbd7e791243f672412cf8faceb2d613f110fe3784994cd81a10f7e7c0",
    "variant/cli_comms_d200_pin150": "26361bce21e2fa87de5645a66d83d22271c27eaeeac074f209a2c9b1d9163a5f",
    "variant/cli_power_d2.6": "9d4e926545805ad68b9df34610503a83d67d18de5d1f6f6797bc0e3294a82a1a",
    "variant/cli_power_d200": "bad7d694c2b973d6a240f90e512c9bff05358637295bb459887a663632c49403",
    "variant/cli_power_d200_pin150": "2920c5e8d9f4ae8b66f9d2087525a06617d79c946a675b32c26d32e2a553c500",
    "variant/cli_stability": "69455095dc8fda3e14b27bae51116accdd52c98665ff3371efcd395a531d2177",
    "variant/cli_stability_d9.5": "0dd2b451db98b3fa0fc27e80a1b4176d1ba64d72bc33d6e6e8f104f756045109",
    "variant/cli_stability_original": "6cbd2ead64b982d10ef8567f1c8027ca87c2ee37e8a68f405c62ee6136199de1",
    "variant/fig10": "2ff46eda8dfd87e1478467310b95b44f765394e1658d7e67dd01600efad894c2",
    "variant/fig10_series": "42f185ce689e7c095d2a9b6b2957941e7f16b2c43e583a948800f6910fa698f8",
    "variant/fig11": "6d0e0e04fda1e3ae19b43c99617314428a7119a4a45ffe1ba18c51fc3b8c15ee",
    "variant/fig11_series": "1645d837e7fd8c79270c6abc5550421464a2aac57f095a1ffca5609f9b1a303b",
    "variant/fig12": "03ac5020dc1ac99ae5afdb1c8781938ce8a572268788221891426b91905decb9",
    "variant/fig12_series": "a3d70515661564143640653055da7e90013dc0221a27f0445c3b42fa602fe0e7",
    "variant/fig13": "44cc9e505a321c79539a4417b1fea254f3ecb8df376052a1ee85aa668e91a165",
    "variant/fig13_series": "96d17f816ae27742dc70f0eec6f50b0b3e74ff69b1aa0ec1e8ba7b210c6f453c",
    "variant/fig6": "6c4527f9184767deb4961522123d9cc838ef99edc49875e8e014993808a36f18",
    "variant/fig6_series": "6c4527f9184767deb4961522123d9cc838ef99edc49875e8e014993808a36f18",
    "variant/fig7": "fd828266bc019719be36950fedd1c20f17acd126ab1ff7ad07e6e85eaecc22ba",
    "variant/fig7_series": "fd828266bc019719be36950fedd1c20f17acd126ab1ff7ad07e6e85eaecc22ba",
    "variant/fig8": "473e839e3298b20c737e6b78f1066bae5b82e1bad055d77ff78ffd15f05545b2",
    "variant/fig8_series": "e969f0cb043e5f1a2294a089294c9e4f4085fda25d54741d33b4343153f69652",
    "variant/fig9": "5f0b0fcd3ca8e7d0567cd20c2ec8a35c39c8766aa8a5f27a41563aad907c33e5",
    "variant/fig9_series": "511336de86239ddd400f29dea2e8901b36911111b70cf8fa80fa1f8c97ef64f2",
    "variant/save_scenario": "7674de911b15c6e122d3b3b0dbcf72eeaeaa1b8276d6c17d95a72ab020c9632c",
    "variant/sweep_L1": "d86773a849cd633346ab1638dcb17554b7ad22c4f0dbc6f2363fe660d24b9505",
    "variant/sweep_L1_bcrb": "343f7bcd9a2b5c0c3cc117e3b9e3a6232c8ff00a5f9ca55ff9203a5600b0a9f1",
    "variant/sweep_L2": "f09bb3e0edb9ccdc044cf26757de3cbf2a994dc8c54e6e1f8e4e7d4d8b740343",
    "variant/sweep_L2_original": "bb6c76832684b410a2d8d415cae8559ece78538707bf62652b55db490f9a3f50",
    "variant/sweep_d_bcrb": "b442977cbb3b64b33ce6dd86fb29ff584894a0125f53eb2e8cabe46847c4d3f3",
    "variant/sweep_d_original": "cdaf0cfdc1d925037c8f5fb2c1eaa659797697fc82696b34c84afebe9a3c9a7d",
    "variant/sweep_f1": "e29fb3ce4a9aa481d10dac88a5e03beda24d84946c9ab46e4b8e84f360da7d59",
    "variant/sweep_f1_original": "cc48fadc33a3586defff01023f5d4ee6a1df8fa28eb0c7abe79e4f7a6c5c2492",
    "variant/sweep_f_gain": "e0281f3ed52d3b7052613ab2fd93903845469f051780e5f1b13cef186f677520",
    "variant/sweep_f_gain_original": "5a5a51ceb3ba1c295a41aa008ad7128b1d299e58d601a1d83faa97ea3235f507",
    "variant/sweep_loss_scale": "ae7636f12ca73f7a65493d7855ebee089208c9e574dc7380a0df5b0f58c4c7d1",
    "variant/sweep_magnification": "80bc4055b7271ef7f24a80b78288c4dc93d9e379d3fefad0abd3d8deadb6a01f",
    "variant/sweep_magnification_bcrb": "6a7ab05ff84e1c3c4b8667d5a91a1888ffe03f64f544f8708c9175a260cbc478",
    "variant/sweep_mu": "85ccb2ff65bb75f03cfac10c56baaf0d962622a7f3ca705981855f68d8eb09bb",
    "variant/sweep_p_in": "1152d0255600201210962fc0d31889afb8894447a8753cdc15e5d446e7c1836d",
    "variant/sweep_rho1": "a91eba5f4a27995da9e6068c686248f5e39ae6b383fbe873b82d8050f7647965",
    "variant/sweep_rho1_original": "45de53c315968bb4cf5076e001afe4f7d0eb7900a77c3c7e4a0b96440b9c074b",
    "variant/sweep_rho2": "300cc2eb4bce917a6693896baf787610c4a87ae52b95c18039dc40f1779ca5a1",
    "variant/sweep_rho2_original": "3bcb4973b4dd596054e85e37beccc03626cfcaf8c6fa07da0f233c7bd352c353",
    "variant/sweep_wavelength": "65274de3d40cce6d03f2ae8bb93b3aa2097085fb75bace31952811e9298b1295",
    "variant/sweep_wavelength_original": "d7b692cd4923af55abf91e6d0d62e09e645f059496414f7cd93cb57c4f8060b1",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digest(case):
    assert digest(case) == GOLDEN[case]


def test_golden_covers_every_case():
    assert set(GOLDEN) == set(CASES)


def test_dark_cold_comms_reports_zero_noise():
    # The data branch alone needs a positive total noise; the power-side
    # outputs above stay available for the same receiver.
    code, _, err = cli_output("dark_cold", CLI["comms_d200"])
    assert code == 1
    assert "total noise must be > 0" in err


# name -> (scenario, variable, lo, hi): sweep grids with a point the model
# rejects.  Each must fail at the same point with the same error in both
# layouts, at 5 and at 101 samples.
FAILING_SWEEPS = {
    "d_from_-1": ("default", "d", -1.0, 1.0),
    "d_from_0": ("default", "d", 0.0, 1.0),
    "mu_0.5_1.5": ("default", "mu", 0.5, 1.5),
    "mu_-0.5_0.5": ("default", "mu", -0.5, 0.5),
    "p_in_-10_10": ("default", "p_in", -10.0, 10.0),
    "rho2_-1_1": ("default", "rho2", -1.0, 1.0),
    "rho2_-2_2": ("default", "rho2", -2.0, 2.0),
    "magnification": ("default", "magnification", -1.0, 1.0),
    "loss_scale": ("default", "loss_scale", -1.0, 1.0),
    "wavelength": ("default", "wavelength", -1e-6, 1e-6),
    "L1": ("default", "L1", -0.01, 0.01),
    "f1": ("default", "f1", -0.01, 0.01),
    "rho1": ("default", "rho1", -1.0, 1.0),
    "f_gain": ("default", "f_gain", -1.0, 1.0),
    "dark_cold_d": ("dark_cold", "d", 100.0, 400.0),
    "dark_cold_p_in": ("dark_cold", "p_in", 0.0, 300.0),
    "dark_cold_mu": ("dark_cold", "mu", 0.0, 1.0),
    "dark_cold_magnification": ("dark_cold_300m", "magnification", 1.5, 6.0),
    "dark_cold_rho2": ("dark_cold_300m", "rho2", 1.0, 50.0),
    "dark_cold_f1": ("dark_cold_300m", "f1", 0.002, 0.05),
    "dark_cold_magnification_from_-1": ("dark_cold_300m", "magnification", -1.0, 1.0),
    "dark_cold_rho2_from_0": ("dark_cold_300m", "rho2", 0.0, 1.0),
    "dark_cold_f1_from_0": ("dark_cold_300m", "f1", 0.0, 0.01),
    "unclamped_mu": ("unclamped", "mu", -0.5, 0.5),
    "unclamped_p_in": ("unclamped", "p_in", -10.0, 10.0),
}

# "<name>/<samples>" -> error type and message of run_sweep.
SWEEP_ERRORS = {
    "d_from_-1/5": "InvalidElementError: d must be > 0, got -1.0",
    "d_from_-1/101": "InvalidElementError: d must be > 0, got -1.0",
    "d_from_0/5": "InvalidElementError: d must be > 0, got 0.0",
    "d_from_0/101": "InvalidElementError: d must be > 0, got 0.0",
    "mu_0.5_1.5/5": "ValueError: split ratio mu must be in [0, 1], got 1.25",
    "mu_0.5_1.5/101": "ValueError: split ratio mu must be in [0, 1], got 1.01",
    "mu_-0.5_0.5/5": "ValueError: split ratio mu must be in [0, 1], got -0.5",
    "mu_-0.5_0.5/101": "ValueError: split ratio mu must be in [0, 1], got -0.5",
    "p_in_-10_10/5": "ValueError: input power must be >= 0, got -10.0",
    "p_in_-10_10/101": "ValueError: input power must be >= 0, got -10.0",
    "rho2_-1_1/5": "InvalidElementError: rho2 must be nonzero (use |rho| >= 1e9 for near-flat), got 0.0",
    "rho2_-1_1/101": "InvalidElementError: rho2 must be nonzero (use |rho| >= 1e9 for near-flat), got 0.0",
    "rho2_-2_2/5": "InvalidElementError: rho2 must be nonzero (use |rho| >= 1e9 for near-flat), got 0.0",
    "rho2_-2_2/101": "InvalidElementError: rho2 must be nonzero (use |rho| >= 1e9 for near-flat), got 0.0",
    "magnification/5": "InvalidElementError: magnification must be > 0, got -1.0",
    "magnification/101": "InvalidElementError: magnification must be > 0, got -1.0",
    "loss_scale/5": "ValueError: loss_scale must be > 0, got -1.0",
    "loss_scale/101": "ValueError: loss_scale must be > 0, got -1.0",
    "wavelength/5": "InvalidElementError: wavelength must be > 0, got -1e-06",
    "wavelength/101": "InvalidElementError: wavelength must be > 0, got -1e-06",
    "L1/5": "InvalidElementError: L1 must be >= 0, got -0.01",
    "L1/101": "InvalidElementError: L1 must be >= 0, got -0.01",
    "f1/5": "InvalidElementError: f1 must be > 0, got -0.01",
    "f1/101": "InvalidElementError: f1 must be > 0, got -0.01",
    "rho1/5": "InvalidElementError: rho1 must be nonzero (use |rho| >= 1e9 for near-flat), got 0.0",
    "rho1/101": "InvalidElementError: rho1 must be nonzero (use |rho| >= 1e9 for near-flat), got 0.0",
    "f_gain/5": "InvalidElementError: f_gain must be > 0, got -1.0",
    "f_gain/101": "InvalidElementError: f_gain must be > 0, got -1.0",
    "dark_cold_d/5": "ValueError: total noise must be > 0, got 0.0",
    "dark_cold_d/101": "ValueError: total noise must be > 0, got 0.0",
    "dark_cold_p_in/5": "ValueError: total noise must be > 0, got 0.0",
    "dark_cold_p_in/101": "ValueError: total noise must be > 0, got 0.0",
    "dark_cold_mu/5": "ValueError: total noise must be > 0, got 0.0",
    "dark_cold_mu/101": "ValueError: total noise must be > 0, got 0.0",
    "dark_cold_magnification/5": "ValueError: total noise must be > 0, got 0.0",
    "dark_cold_magnification/101": "ValueError: total noise must be > 0, got 0.0",
    "dark_cold_rho2/5": "ValueError: total noise must be > 0, got 0.0",
    "dark_cold_rho2/101": "ValueError: total noise must be > 0, got 0.0",
    "dark_cold_f1/5": "ValueError: total noise must be > 0, got 0.0",
    "dark_cold_f1/101": "ValueError: total noise must be > 0, got 0.0",
    "dark_cold_magnification_from_-1/5": "InvalidElementError: magnification must be > 0, got -1.0",
    "dark_cold_magnification_from_-1/101": "InvalidElementError: magnification must be > 0, got -1.0",
    "dark_cold_rho2_from_0/5": "InvalidElementError: rho2 must be nonzero (use |rho| >= 1e9 for near-flat), got 0.0",
    "dark_cold_rho2_from_0/101": "InvalidElementError: rho2 must be nonzero (use |rho| >= 1e9 for near-flat), got 0.0",
    "dark_cold_f1_from_0/5": "InvalidElementError: f1 must be > 0, got 0.0",
    "dark_cold_f1_from_0/101": "InvalidElementError: f1 must be > 0, got 0.0",
    "unclamped_mu/5": "ValueError: split ratio mu must be in [0, 1], got -0.5",
    "unclamped_mu/101": "ValueError: split ratio mu must be in [0, 1], got -0.5",
    "unclamped_p_in/5": "ValueError: input power must be >= 0, got -10.0",
    "unclamped_p_in/101": "ValueError: input power must be >= 0, got -10.0",
}


@pytest.mark.parametrize("system", ["bcrb", "original"])
@pytest.mark.parametrize("case", sorted(SWEEP_ERRORS))
def test_failing_sweep_keeps_its_error(case, system):
    name, samples = case.rsplit("/", 1)
    scenario_name, variable, lo, hi = FAILING_SWEEPS[name]
    s = scenario_from_dict(SCENARIOS[scenario_name], strict=True)
    with pytest.raises((BeamSimError, ValueError)) as info:
        run_sweep(SweepSpec(variable, lo, hi, int(samples), system), s)
    assert f"{type(info.value).__name__}: {info.value}" == SWEEP_ERRORS[case]


def _benchmark_ops():
    # The benchmark's operation lists and golden outputs (perfbench/ops.py imports nothing from bcrbsim).
    path = Path(__file__).resolve().parents[1] / "perfbench" / "ops.py"
    spec = importlib.util.spec_from_file_location("perfbench_ops", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCHMARK = _benchmark_ops()


@pytest.mark.parametrize("name", list(BENCHMARK.SWEEPS))
def test_benchmark_sweep_matches_its_golden_digest(name):
    # The benchmark's 10,001-point sweeps span many blocks of rows; their CSV bytes are those it records.
    variable, lo, hi, system = BENCHMARK.SWEEPS[name]
    ds = run_sweep(SweepSpec(variable, lo, hi, BENCHMARK.SWEEP_SAMPLES, system))
    golden = BENCHMARK.load_golden()["sweeps"][name]
    assert BENCHMARK.sha256(format_dataset_csv(ds)) == golden["sha256"]
    stable = ds.column("stable [-]")
    assert stable.count(0.0) / len(stable) == golden["unstable_frac"]


# sha256 of repr(ds.rows), recorded when a dataset was stored as row tuples: each figure on the reference
# scenario, and the benchmark's sweeps at 101 samples.
ROWS_GOLDEN = {
    "fig6": "6aa6467ef9012e521634a8354e2023bec830ef79a69b1358312fa835b4c59be1",
    "fig7": "fa031b59ebb51a6f3919e7c0f67d343c3d9528aee996a97987c50d1b0b0c600a",
    "fig8": "90d68cd6178b3579e95df35fe34584e745fdead4010423abfb1b5318a55992a3",
    "fig9": "af67da9d0ef970d9525b400fd9041b5f115239f0c79872503829bc394474b5c4",
    "fig10": "1388758b0f56f76db3e3109c3777bbc2dbe13fafcd21cf35aebc22e6b977d947",
    "fig11": "6bfef0d51573dff2ad009f5ba2b9ba7fd78d5207823a86091a6ce2a3302e56bf",
    "fig12": "3062d1a17b84605412f2deb671ab8c5a88af51a5d63b784a9b89eada285f5b61",
    "fig13": "c54e1d22d845835e25ed14158f72fbc2c4838ead945b55c3f39b7913a151ab7d",
    "d_1_6_bcrb": "bf77e2e3e2c83eeef7c2a65465237a39da7384fc432ba6db96ab3ab113852ac8",
    "d_1_60_original": "da1fe435e12f6cfee7e1f0b5a1d1274245c621e533ef1afbaf94fb973e0115e0",
    "p_in_150_300": "45d68a5427cd47070489a80f2c7c545d9be42599205582680c422d0cb7e2b7de",
    "rho2_1_50": "3a7bf643fcabb7919cfa5466c504b58c2fac55fd123af8b3be65d0d2046b8b92",
    "M_1.5_6": "461c2597025d990f13df2cdf28ab485d4590d8484a833bb50132b791c63b5e34",
}


def test_rows_golden_covers_every_figure_and_benchmark_sweep():
    assert list(ROWS_GOLDEN) == list(FIGURES) + list(BENCHMARK.SWEEPS)


@pytest.mark.parametrize("name", list(ROWS_GOLDEN))
def test_rows_and_columns_views_keep_the_row_tuples(name):
    if name in FIGURES:
        ds = generate_figure(name)
    else:
        variable, lo, hi, system = BENCHMARK.SWEEPS[name]
        ds = run_sweep(SweepSpec(variable, lo, hi, 101, system))
    rows = ds.rows
    assert type(rows) is tuple and all(type(row) is tuple for row in rows) and len(rows) == ds.n_rows
    assert hashlib.sha256(repr(rows).encode("utf-8")).hexdigest() == ROWS_GOLDEN[name]
    for k, column in enumerate(ds.columns):
        assert list(map(repr, ds.column(column))) == [repr(row[k]) for row in rows], column


if __name__ == "__main__":
    for name in sorted(CASES):
        sys.stdout.write(f'    "{name}": "{digest(name)}",\n')
