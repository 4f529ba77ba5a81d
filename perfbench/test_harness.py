"""Tests of the benchmark harness itself (not part of the repository's test suite).

    python3 -m pytest perfbench -q

They run the smoke mode of every workload, so they take about half a minute.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import time
import types

import pytest

import ops
from tracer import MODULES, Tracer

ROOT = ops.HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import bcrbsim  # noqa: E402
import bcrbsim.cli  # noqa: E402


@pytest.fixture
def tracer():
    t = Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def _public_bindings():
    """(namespace, attribute, function) for every binding of a traced public function."""
    public = set()
    for name in MODULES:
        module = sys.modules[f"bcrbsim.{name}"]
        public |= {obj for attr, obj in vars(module).items()
                   if isinstance(obj, types.FunctionType) and not attr.startswith("_")
                   and obj.__module__ == module.__name__}
    return [(ns, attr, obj) for n, ns in sorted(sys.modules.items())
            if n == "bcrbsim" or n.startswith("bcrbsim.")
            for attr, obj in vars(ns).items() if isinstance(obj, types.FunctionType) and obj in public]


def test_every_binding_is_wrapped_and_restored():
    bindings = _public_bindings()
    consumers = {ns.__name__ for ns, _, obj in bindings if obj.__module__ != ns.__name__}
    assert {"bcrbsim", "bcrbsim.sweep_search", "bcrbsim.gaussian_beam", "bcrbsim.cli"} <= consumers
    t = Tracer()
    t.install()
    try:
        for ns, attr, original in bindings:
            assert getattr(ns, attr) is not original, f"{ns.__name__}.{attr} not wrapped"
    finally:
        t.uninstall()
    for ns, attr, original in bindings:
        assert getattr(ns, attr) is original


def test_calls_through_each_consumer_module_are_counted(tracer):
    g = bcrbsim.CavityGeometry()
    for namespace in (bcrbsim, bcrbsim.ray_matrix, bcrbsim.sweep_search, bcrbsim.gaussian_beam, bcrbsim.cli):
        before = tracer.calls["ray_matrix.round_trip_bcrb"]
        namespace.round_trip_bcrb(g)
        assert tracer.calls["ray_matrix.round_trip_bcrb"] == before + 1, namespace.__name__
    # Calls made inside the package through a `from .x import y` binding count too.
    before = tracer.layer_calls["ray_matrix.round_trip"]
    bcrbsim.cli.cavity_spot_radii(g, "bcrb")
    assert tracer.layer_calls["ray_matrix.round_trip"] > before
    assert tracer.calls["gaussian_beam.cavity_spot_radii"] == 1
    bcrbsim.sweep_search.transmission_loss(2.0, 1e-3, 1064e-9, 1.0)
    assert tracer.layer_calls["link_budget"] == 1
    builds = tracer.geometry_builds
    bcrbsim.sweep_search.replace(g, d=3.0)
    assert tracer.geometry_builds == builds + 1


def test_self_time_excludes_nested_spans():
    t = Tracer()

    def inner():
        time.sleep(0.03)

    def outer():
        time.sleep(0.02)
        wrapped_inner()

    wrapped_inner = t._span("m.inner", "inner", inner)
    wrapped_outer = t._span("m.outer", "outer", outer)
    wrapped_outer()
    assert 0.02 <= t.self_s["outer"] < 0.03 + 0.02
    assert 0.03 <= t.self_s["inner"] < 0.03 + 0.02
    assert t.layer_calls == {"outer": 1, "inner": 1}


def test_numeric_checks_accept_tolerance_and_reject_a_wrong_band():
    golden = ops.load_golden()
    ref = golden["figures"]["fig8"]
    lines = [ref["header"]] + [",".join(f"{v:.9g}" for v in row) for row in ref["rows"]]
    assert ops.check_numeric_table(lines, ref, "abs", ops.DISTANCE_TOLERANCE) is None
    moved = copy.deepcopy(ref["rows"])
    moved[3][1] += 0.9 * ops.DISTANCE_TOLERANCE
    near = [ref["header"]] + [",".join(f"{v:.9g}" for v in row) for row in moved]
    assert ops.check_numeric_table(near, ref, "abs", ops.DISTANCE_TOLERANCE) is None
    moved[3][1] += 0.1  # one scan stride: another band edge
    far = [ref["header"]] + [",".join(f"{v:.9g}" for v in row) for row in moved]
    assert ops.check_numeric_table(far, ref, "abs", ops.DISTANCE_TOLERANCE) is not None

    stability = golden["cli"]["stability"]
    assert ops.check_cli("stability", 0, stability["stdout"], None, golden) is None
    shifted = stability["stdout"].replace("d_max = 8.675 [m]", "d_max = 8.6755 [m]")
    assert ops.check_cli("stability", 0, shifted, None, golden) is None
    wrong = stability["stdout"].replace("d_max = 8.675 [m]", "d_max = 8.775 [m]")
    assert ops.check_cli("stability", 0, wrong, None, golden) is not None
    assert ops.check_cli("stability", 1, stability["stdout"], None, golden) is not None


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize("workload", ["figures", "sweeps", "cli"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_reports_every_metric(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    proc = _run(["--workload", workload, "--seed", "3", "--trace", trace, "--smoke"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(ops.HERE, tmp_path / ops.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(["--workload", "figures", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
