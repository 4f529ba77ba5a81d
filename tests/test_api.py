"""The public API: retired parameters and names stay gone, every parameter is read, every definition is used."""

import ast
from fnmatch import fnmatch
from pathlib import Path

import pytest

import bcrbsim
from bcrbsim import (CavityGeometry, TransferMatrix, gaussian_beam, max_stable_distance, ray_matrix, required_rho2,
                     sweep_search)

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
