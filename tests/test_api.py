"""The public API: retired parameters and names stay gone, every parameter is read, every definition is used,
every float parameter rejects NaN and infinities by name and gives a result or a typed error at the finite
extremes, and every dataclass validates."""

import ast
import inspect
import math
import re
import sys
from fnmatch import fnmatch
from pathlib import Path

import pytest

import bcrbsim
from bcrbsim import (BeamSimError, CavityGeometry, LinkBudgetParams, ModelChoices, ReceiverParams, TransferMatrix,
                     default_scenario, gaussian_beam, max_stable_distance, ray_matrix, required_rho2,
                     round_trip_bcrb, sweep_search)
from bcrbsim.errors import _IN_RANGE

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


def _pass_through_twins(tree: ast.Module):
    """Names of the public functions in tree whose body, after a docstring, is only
    `return _name(<their own parameters, in order>)`: the work is then in a private twin."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or node.name.startswith("_"):
            continue
        body = node.body[1:] if ast.get_docstring(node) is not None else node.body
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        if (len(body) == 1 and isinstance(body[0], ast.Return) and isinstance(call := body[0].value, ast.Call)
                and isinstance(call.func, ast.Name) and call.func.id.startswith("_") and not call.keywords
                and [arg.id if isinstance(arg, ast.Name) else None for arg in call.args] == params):
            yield node.name


@pytest.mark.parametrize("source, flagged", [
    ('def f(a, b):\n    """Doc."""\n    return _f(a, b)', ["f"]),
    ("def f(a, *, b=1):\n    return _f(a, b)", ["f"]),
    ('def f(g):\n    """Doc."""\n    return _f(g, "bcrb")', []),  # a literal argument: a layout choice
    ("def f(m):\n    return _f(m.a, m.d)", []),  # attributes: the function picks what the twin reads
    ("def f(a, b):\n    return _f(b, a)", []),
    ("def f(a, b):\n    return g(a, b)", []),
    ("def _f(a, b):\n    return _g(a, b)", []),
    ("def f(a, b):\n    x = _f(a, b)\n    return x", []),
], ids=["docstring", "keyword_only", "literal", "attributes", "reordered", "public_callee", "private", "two_lines"])
def test_pass_through_detector(source, flagged):
    assert list(_pass_through_twins(ast.parse(source))) == flagged


def test_no_public_function_is_a_pass_through_to_a_private_twin():
    # Each formula is written once: a public function holds its own body rather than forwarding to a twin.
    assert [(path.name, name) for path in sorted(Path(bcrbsim.__file__).parent.glob("*.py"))
            for name in _pass_through_twins(ast.parse(path.read_text(encoding="utf-8")))] == []


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


# The finite extremes: the least subnormal, the least normal order, a large value and the largest
# float (1.8e308 itself rounds to inf), with their negatives.
FINITE_EXTREMES = [value for magnitude in (5e-324, 1e-308, 1e308, sys.float_info.max)
                   for value in (magnitude, -magnitude)]


@pytest.mark.parametrize("name, param", [hit for hit in FLOAT_PARAMETERS if hit[0] not in ALLOWED_NON_FINITE],
                         ids=lambda value: value)
def test_finite_extremes_give_a_result_or_a_typed_error(name, param):
    # No overflow, underflow or division by zero escapes as a bare ArithmeticError.
    for value in FINITE_EXTREMES:
        _message(name, **{param: value})


# Float parameters without a range rule -> why the range-policy tests leave them out.
NO_RANGE_RULE = {
    ("CavityGeometry", "rho1"): "a signed mirror radius: any finite value but 0, whose message has its own form",
    ("CavityGeometry", "rho2"): "a signed mirror radius, like rho1",
    ("propagate_spot", "rho1"): "a signed mirror radius, like the geometry's rho1",
    ("LinkBudgetParams", "intercept"): "finite-only: a fitted intercept of either sign",
    ("LinkBudgetParams", "pv_intercept"): "finite-only: a fitted intercept of either sign",
    ("calibrate_loss_scale", "anchor_beam_power"): "finite-only: an unreachable anchor is an InfeasibleSearchError",
    ("SweepSpec", "lo"): "the sweep range is checked as one pair, lo < hi, with its own message",
    ("SweepSpec", "hi"): "the sweep range is checked as one pair, lo < hi, with its own message",
    ("max_spot_over_range", "d_hi"): "d_lo <= d_hi is checked before d_hi > 0, with its own message",
}

RANGE_PARAMETERS = [hit for hit in FLOAT_PARAMETERS if hit[0] not in ALLOWED_NON_FINITE and hit not in NO_RANGE_RULE]


def _message(name: str, **changes):
    """The message of the error that the valid call of name raises with changes, or None if it succeeds."""
    try:
        getattr(bcrbsim, name)(**{**VALID_CALLS[name], **changes})
    except (ValueError, BeamSimError) as exc:
        return str(exc)
    return None


def _range_rule(name: str, param: str) -> tuple[str, str]:
    # (words, rule) from the message at -1.0, a value that every range rule rejects.
    words = WORDING.get((name, param), param)
    message = _message(name, **{param: -1.0})
    found = re.fullmatch(rf"{re.escape(words)} must be (.+), got -1\.0", message or "")
    assert found and found[1] in _IN_RANGE, message
    return words, found[1]


def test_no_range_rule_entries_are_needed():
    for name, param in NO_RANGE_RULE:
        assert (name, param) in FLOAT_PARAMETERS
        assert not re.search(r"must be .+, got -1\.0$", _message(name, **{param: -1.0}) or ""), (name, param)


@pytest.mark.parametrize("name, param", RANGE_PARAMETERS, ids=lambda value: value)
def test_ranges_are_checked_before_finiteness(name, param):
    # -inf is out of every range; NaN and +inf are out of a two-sided range only, else merely not finite.
    words, rule = _range_rule(name, param)
    for value in (-math.inf, -1.0, 0.0):
        assert _message(name, **{param: value}) in (None, f"{words} must be {rule}, got {value!r}"), value
    for value in (math.nan, math.inf):
        expected = rule if rule.startswith("in ") else "finite"
        assert _message(name, **{param: value}) == f"{words} must be {expected}, got {value!r}"


# Callables whose float parameters are checked in stages, not in one pass -> why.
STAGED = {
    "operating_point": "it runs the model chain in order, and each step checks its own input as it is reached: "
                       "the geometry d, then beam_power p_in, then pv_output mu",
}


def _nan_then_out_of_range():
    """(callable, earlier, later): an earlier parameter that NaN leaves in range, a later one with a range rule."""
    for name in VALID_CALLS:
        params = [param for n, param in FLOAT_PARAMETERS if n == name]
        for i, earlier in enumerate(params):
            if " must be in " in (_message(name, **{earlier: -1.0}) or ""):
                continue  # a two-sided range rejects NaN itself
            yield from ((name, earlier, later) for later in params[i + 1:] if (name, later) in RANGE_PARAMETERS)


NAN_THEN_OUT_OF_RANGE = list(_nan_then_out_of_range())


@pytest.mark.parametrize("name, earlier, later", [hit for hit in NAN_THEN_OUT_OF_RANGE if hit[0] not in STAGED],
                         ids=lambda value: value)
def test_a_later_range_failure_is_named_before_an_earlier_nan(name, earlier, later):
    words, rule = _range_rule(name, later)
    assert _message(name, **{earlier: math.nan, later: -1.0}) == f"{words} must be {rule}, got -1.0"


def test_staged_callables_name_the_earlier_nan():
    for name in STAGED:
        _, earlier, later = next(hit for hit in NAN_THEN_OUT_OF_RANGE if hit[0] == name)
        words = WORDING.get((name, earlier), earlier)
        assert _message(name, **{earlier: math.nan, later: -1.0}) == f"{words} must be finite, got nan"


# Functions outside errors.py that word a range or finiteness message themselves -> why.  Every other
# check words it through errors._reject.  (scenario._string/_boolean and the d_lo <= d_hi check of
# max_spot_over_range keep their own forms too, but name no range or finiteness.)
OWN_WORDING = {
    "scenario._number": "a file value is named by its path: 'geometry.d_m: must be finite, got nan'",
    "ray_matrix._focus": "one test with one message: 'must be finite and nonzero'",
    "ray_matrix._magnifier": "one test with one message: 'must be finite and > 0'",
    "ray_matrix._require_mirror_radius": "a zero radius gets a hint: 'nonzero (use |rho| >= 1e9 for near-flat)'",
    "sweep_search._require_samples": "an integer count: 'must be >= 2'",
    "sweep_search.SweepSpec.__post_init__": "the range is one pair: 'sweep range must be finite, got [lo, hi]'",
    "gaussian_beam.mirror_spot_radii": "the stability test runs between its two wavelength checks",
}
_RULE_WORDING = re.compile(r"must be (finite|nonzero|in [\[(]|[<>]=? )")


def _own_rule_wording():
    """(module.function, text) for each string outside errors.py that words a range or finiteness rule."""
    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(child, f"{name}.{child.name}")
            elif isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant):
                continue  # a docstring
            elif isinstance(child, ast.Constant) and isinstance(child.value, str):
                if _RULE_WORDING.search(child.value):
                    yield name, child.value
            else:
                yield from visit(child, name)
    for path in sorted(Path(bcrbsim.__file__).parent.glob("*.py")):
        if path.name != "errors.py":
            yield from visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)


def test_range_and_finite_messages_are_worded_in_errors_only():
    found = {name for name, _ in _own_rule_wording()}
    assert sorted(found - set(OWN_WORDING)) == [], "word the rule through errors._reject"
    assert sorted(set(OWN_WORDING) - found) == [], "allowlist entries that nothing needs"


def _decorator_name(node: ast.expr) -> str:
    return ast.unparse(node.func if isinstance(node, ast.Call) else node)


def test_every_dataclass_validates():
    # A dataclass exists to check its fields; a value type without checks is a NamedTuple.
    unchecked = [(path.name, node.name) for path in sorted(Path(bcrbsim.__file__).parent.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.ClassDef) and "dataclass" in map(_decorator_name, node.decorator_list)
                 and not any(isinstance(n, ast.FunctionDef) and n.name == "__post_init__" for n in node.body)]
    assert unchecked == []
