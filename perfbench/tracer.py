"""Call tracer for the bcrbsim modules, installed from outside the package.

Every public function of the traced modules is replaced by a wrapper in
every bcrbsim namespace that binds it: the defining module, the package
``__init__`` and each module that imported it with ``from .x import y``.
Wrapping the defining module alone would miss those calls.

Functions listed in SPANS open a span at a layer boundary; a layer's self
time is the time inside its spans minus the time inside nested spans.  All
other public functions only count calls, so their time stays in the span of
their caller (the element-matrix helpers count toward the round trip that
calls them).
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import Counter, defaultdict

MODULES = ("ray_matrix", "gaussian_beam", "link_budget", "comms", "scenario", "sweep_search", "cli")

# "module.function" -> layer it reports under.
SPANS = {
    "ray_matrix.round_trip_bcrb": "ray_matrix.round_trip",
    "ray_matrix.round_trip_original": "ray_matrix.round_trip",
    "gaussian_beam.cavity_spot_radii": "gaussian_beam.spot",
    "link_budget.transmission_loss": "link_budget",
    "link_budget.beam_power": "link_budget",
    "link_budget.effective_aperture": "link_budget",
    "link_budget.pv_output": "link_budget",
    "comms.data_signal": "comms",
    "comms.shot_noise": "comms",
    "comms.thermal_noise": "comms",
    "comms.total_noise": "comms",
    "comms.spectral_efficiency": "comms",
    "scenario.default_scenario": "scenario.load",
    "scenario.scenario_from_dict": "scenario.load",
    "scenario.load_scenario": "scenario.load",
    "scenario.scenario_to_dict": "scenario.to_dict",
    "sweep_search.max_stable_distance": "sweep_search.max_stable_distance",
    "sweep_search.required_rho2": "sweep_search.required_rho2",
    "sweep_search.max_spot_over_range": "sweep_search.max_spot_over_range",
    "sweep_search.calibrate_loss_scale": "sweep_search.calibrate",
    "sweep_search.operating_point": "sweep_search.operating_point",
    "sweep_search.generate_figure": "sweep_search.figure",
    "cli.format_dataset_csv": "cli.format_csv",
}

ROUND_TRIP = "ray_matrix.round_trip"


class Tracer:
    """Counts and times calls into bcrbsim while installed."""

    def __init__(self):
        self.calls = Counter()              # "module.function" -> calls
        self.layer_calls = Counter()        # layer -> calls
        self.self_s = defaultdict(float)    # layer -> self time [s]
        self.round_trips_in = Counter()     # layer -> round trips made inside its spans
        self.figure_s = defaultdict(float)  # figure id -> generate_figure wall time [s]
        self.csv_bytes = 0
        self.geometry_builds = 0
        self._stack: list[list[float]] = []  # per open span: [time in nested spans]
        self._patched: list[tuple[object, str, object]] = []

    def _counted(self, key, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _span(self, key, layer, fn):
        calls, layer_calls, self_s, stack = self.calls, self.layer_calls, self.self_s, self._stack
        round_trips_in, clock = self.round_trips_in, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            layer_calls[layer] += 1
            trips0 = layer_calls[ROUND_TRIP]
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self_s[layer] += elapsed - frame[0]
                round_trips_in[layer] += layer_calls[ROUND_TRIP] - trips0
                if layer == "sweep_search.figure":
                    self.figure_s[args[0] if args else kwargs["figure_id"]] += elapsed
            if layer == "cli.format_csv":
                self.csv_bytes += len(result.encode("utf-8"))
            return result
        return wrapper

    def install(self) -> None:
        """Wrap every public function of MODULES wherever bcrbsim binds it."""
        import bcrbsim.cli  # noqa: F401  (loads every traced module)
        from bcrbsim.ray_matrix import CavityGeometry

        wrappers = {}
        for name in MODULES:
            module = sys.modules[f"bcrbsim.{name}"]
            for attr, obj in vars(module).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    key = f"{name}.{attr}"
                    layer = SPANS.get(key)
                    wrappers[obj] = (self._span(key, layer, obj) if layer
                                     else self._counted(key, obj))
        namespaces = [m for n, m in sys.modules.items() if n == "bcrbsim" or n.startswith("bcrbsim.")]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._patched.append((ns, attr, obj))
                    setattr(ns, attr, wrappers[obj])

        post_init = CavityGeometry.__post_init__

        def counted_post_init(geometry):
            self.geometry_builds += 1
            post_init(geometry)
        self._patched.append((CavityGeometry, "__post_init__", post_init))
        CavityGeometry.__post_init__ = counted_post_init

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def report(self) -> dict:
        """Plain-JSON snapshot of everything recorded so far."""
        return {
            "calls": dict(self.calls),
            "layer_calls": dict(self.layer_calls),
            "self_s": dict(self.self_s),
            "round_trips_in": dict(self.round_trips_in),
            "figure_s": dict(self.figure_s),
            "csv_bytes": self.csv_bytes,
            "geometry_builds": self.geometry_builds,
        }
