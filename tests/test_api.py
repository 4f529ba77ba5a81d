"""The public search API: retired parameters and names stay gone, and every parameter is read."""

import ast
from fnmatch import fnmatch
from pathlib import Path

import pytest

import bcrbsim
from bcrbsim import CavityGeometry, max_stable_distance, required_rho2, sweep_search

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
