"""The public API: retired parameters and names stay gone, every parameter is read, every definition is used,
every float parameter rejects NaN and infinities by name, and every dataclass validates."""

import ast
import inspect
import math
import re
from fnmatch import fnmatch
from pathlib import Path

import pytest

import bcrbsim
from bcrbsim import (BeamSimError, CavityGeometry, LinkBudgetParams, ModelChoices, ReceiverParams, TransferMatrix,
                     default_scenario, gaussian_beam, max_stable_distance, ray_matrix, required_rho2,
                     round_trip_bcrb, sweep_search)

G = CavityGeometry()


@pytest.mark.parametrize("call", [
    lambda: max_stable_distance(G, 20.0, stride=0.1),
    lambda: max_stable_distance(G, 20.0, 0.1),  # tol is keyword-only: a stride by position fails
    lambda: required_rho2(G, 10.0, 80.0, samples=200),
    lambda: required_rho2(G, 10.0, 80.0, rel_tol=1e-6),
], ids=["stride", "positional_tol", "samples", "rel_tol"])
def test_retired_parameters_raise_type_error(call):
    with pytest.raises(TypeError):
        call()


def test_scan_stability_bands_is_gone():
    assert not hasattr(bcrbsim, "scan_stability_bands")
    assert not hasattr(sweep_search, "scan_stability_bands")


# The element-object layer: the round trip is built from the _LAYOUTS entry tuples only.
@pytest.mark.parametrize("name", ["Mirror", "ThinLens", "FreeSpace", "Magnifier", "OpticalElement",
                                  "element_matrix", "compose", "displacement", "close_round_trip"])
def test_element_object_layer_is_gone(name):
    with pytest.raises(ImportError):
        exec(f"from bcrbsim import {name}", {})
    assert not hasattr(ray_matrix, name)


def test_transfer_matrix_has_no_identity_or_product():
    m = TransferMatrix(1.0, 0.0, 0.0, 1.0)
    assert not hasattr(TransferMatrix, "identity")
    with pytest.raises(TypeError):
        m @ m


def test_spot_radii_helper_is_gone():
    assert not hasattr(gaussian_beam, "_spot_radii")


# (function name pattern, parameter) -> why that parameter may go unread.  A
# lambda is named by its source text.
ALLOWED_UNREAD = {
    ("_fig*", "link"): "figure builders share the signature (s, link, **constants) that generate_figure "
                       "calls; the stability figures read no link parameter",
    ("lambda g: 0.0", "g"): "every gap offset in ray_matrix._LAYOUTS is called with the geometry; "
                            "the bcrb layout's offset is 0 for every geometry",
}


def _unread_parameters():
    """(file, function, parameter) for each parameter that its function's body never reads."""
    for path in sorted(Path(bcrbsim.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name, body = node.name, node.body
            elif isinstance(node, ast.Lambda):
                name, body = ast.unparse(node), [node.body]
            else:
                continue
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p is not None]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            # `_` (as in **_) is the conventional name for a parameter taken only to be ignored.
            yield from ((path.name, name, p) for p in params if p != "_" and p not in read)


def test_every_parameter_is_read():
    unread = list(_unread_parameters())
    allowed = {key: [hit for hit in unread if fnmatch(hit[1], key[0]) and hit[2] == key[1]]
               for key in ALLOWED_UNREAD}
    assert [hit for hit in unread if not any(hit in hits for hits in allowed.values())] == []
    assert [key for key, hits in allowed.items() if not hits] == [], "allowlist entries that nothing needs"


# Module-level definitions that nothing in src/bcrbsim/ reads -> why they stay.
ALLOWED_UNUSED = {
    "bcrb_elements": "the acceptance suite pushes basis rays through the nine element matrices",
    "_stable_at": "the acceptance suite's reference stability predicate",
}


def _unused_definitions():
    """(module, name) for each module-level def or class in src/bcrbsim/ that no other code there reads.

    A definition is read when a module imports it by name (the package
    __init__ exports it that way) or when its own module loads the name
    outside the definition itself.
    """
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(bcrbsim.__file__).parent.glob("*.py"))}
    imported = {(node.module, alias.name) for tree in trees.values() for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names}
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            loaded = {n.id for other in tree.body if other is not node for n in ast.walk(other)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            if (module, node.name) not in imported and node.name not in loaded:
                yield module, node.name


def test_every_definition_is_used():
    unused = list(_unused_definitions())
    assert [hit for hit in unused if hit[1] not in ALLOWED_UNUSED] == []
    assert sorted(set(ALLOWED_UNUSED) - {name for _, name in unused}) == [], "allowlist entries that nothing needs"


# One valid call per public callable that takes a float, by keyword; each
# float parameter in turn is then set to NaN, +inf and -inf.
VALID_CALLS = {
    "CavityGeometry": {},
    "LinkBudgetParams": {},
    "ReceiverParams": {},
    "ModelChoices": {},
    "Scenario": {"geometry": G, "link": LinkBudgetParams(), "receiver": ReceiverParams(),
                 "model_choices": ModelChoices()},
    "SweepSpec": {"variable": "d", "lo": 1.0, "hi": 6.0, "samples": 5},
    "beam_power": {"p_in": 200.0, "delta_t": 0.5, "p": LinkBudgetParams()},
    "calibrate_loss_scale": {"anchor_d": 3.0, "anchor_beam_power": 5.0, "p_in": 210.0, "aperture": 1.5e-3,
                             "wavelength": 1064e-9, "p": LinkBudgetParams()},
    "data_signal": {"p_beam": 10.0, "r": ReceiverParams()},
    "max_spot_over_range": {"g": CavityGeometry(rho2=50.0), "d_lo": 1.0, "d_hi": 5.0, "samples": 11},
    "max_stable_distance": {"g": G, "d_hi": 20.0},
    "mirror_spot_radii": {"m": round_trip_bcrb(G), "wavelength": 1064e-9},
    "operating_point": {"s": default_scenario()},
    "propagate_spot": {"omega1": 1e-3, "rho1": -0.88, "L1": 1e-3, "wavelength": 1064e-9},
    "pv_output": {"p_beam": 10.0, "mu": 0.5, "p": LinkBudgetParams()},
    "required_rho2": {"g": G, "d": 10.0, "rho2_hi": 80.0},
    "shot_noise": {"p_data": 1.0, "r": ReceiverParams()},
    "spectral_efficiency": {"p_data": 1.0, "n2_total": 1.0},
    "stability_bands": {"g": G, "d_hi": 20.0},
    "total_noise": {"p_data": 1.0, "r": ReceiverParams()},
    "transmission_loss": {"d": 2.0, "b": 1e-3, "wavelength": 1064e-9, "loss_scale": 1.0},
}

# (callable, parameter) -> the words its error messages name it by, where they are not the parameter's name.
WORDING = {
    ("SweepSpec", "lo"): "sweep range",
    ("SweepSpec", "hi"): "sweep range",
    ("beam_power", "p_in"): "input power",
    ("calibrate_loss_scale", "anchor_d"): "anchor distance",
    ("calibrate_loss_scale", "anchor_beam_power"): "anchor beam power",
    ("calibrate_loss_scale", "p_in"): "anchor input power",
    ("data_signal", "p_beam"): "beam power",
    ("operating_point", "p_in"): "input power",
    ("operating_point", "mu"): "split ratio mu",
    ("pv_output", "p_beam"): "beam power",
    ("pv_output", "mu"): "split ratio mu",
    ("shot_noise", "p_data"): "signal level",
    ("spectral_efficiency", "p_data"): "signal level",
    ("spectral_efficiency", "n2_total"): "total noise",
    ("spectral_efficiency", "log_base"): "log base",
    ("total_noise", "p_data"): "signal level",
    ("transmission_loss", "d"): "distance",
    ("transmission_loss", "b"): "aperture radius",
}

# Public callables with float parameters that take NaN and infinities -> why.
ALLOWED_NON_FINITE = {
    "TransferMatrix": "an unchecked container by design: is_stable's NaN branch tests a matrix with a NaN entry",
    "RayVector": "an unchecked container by design, like TransferMatrix",
    "SpotRadii": "an unchecked container by design, like TransferMatrix",
}


def _float_parameters():
    """(callable name, parameter) for each parameter annotated float or Optional[float] of a bcrbsim export."""
    for name, obj in sorted(vars(bcrbsim).items()):
        if name.startswith("_") or not callable(obj) or (isinstance(obj, type) and issubclass(obj, BaseException)):
            continue
        for param in inspect.signature(obj).parameters.values():
            # The modules postpone annotations, so they are strings (NamedTuple fields: forward references).
            if getattr(param.annotation, "__forward_arg__", param.annotation) in ("float", "Optional[float]"):
                yield name, param.name


FLOAT_PARAMETERS = list(_float_parameters())


def test_every_float_taking_callable_has_a_valid_call_or_a_reason():
    names = {name for name, _ in FLOAT_PARAMETERS}
    assert sorted(names - set(ALLOWED_NON_FINITE)) == sorted(VALID_CALLS)
    assert set(ALLOWED_NON_FINITE) <= names, "allowlist entries that nothing needs"


@pytest.mark.parametrize("name, param", [hit for hit in FLOAT_PARAMETERS if hit[0] not in ALLOWED_NON_FINITE],
                         ids=lambda value: value)
def test_non_finite_float_rejected_by_name(name, param):
    call, kwargs = getattr(bcrbsim, name), VALID_CALLS[name]
    call(**kwargs)
    words = WORDING.get((name, param), param)
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises((ValueError, BeamSimError)) as info:
            call(**{**kwargs, param: value})
        assert re.search(rf"(^|\s){re.escape(words)}\b", str(info.value)), (value, str(info.value))


def _decorator_name(node: ast.expr) -> str:
    return ast.unparse(node.func if isinstance(node, ast.Call) else node)


def test_every_dataclass_validates():
    # A dataclass exists to check its fields; a value type without checks is a NamedTuple.
    unchecked = [(path.name, node.name) for path in sorted(Path(bcrbsim.__file__).parent.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.ClassDef) and "dataclass" in map(_decorator_name, node.decorator_list)
                 and not any(isinstance(n, ast.FunctionDef) and n.name == "__post_init__" for n in node.body)]
    assert unchecked == []
