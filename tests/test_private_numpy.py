"""The package reaches numpy only through its public API.

Private modules (`numpy._core`, `numpy.core`, `numpy.linalg._*`) move
and change between numpy releases without notice.  The one allowed use
is `seb`'s `_umath_linalg`, the LAPACK gufunc under `np.linalg.solve`,
whose reason is given in the `seb` docstring.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "supfix"
MODULES = sorted(PACKAGE.glob("*.py"))
ALLOWED = {("seb.py", "numpy.linalg._umath_linalg")}


def _private(name: str) -> bool:
    """Whether a dotted numpy name lies in a private part of numpy."""
    parts = name.split(".")
    if parts[0] not in ("numpy", "np") or len(parts) < 2:
        return False
    return parts[1] in ("_core", "core") or (parts[1] == "linalg" and len(parts) > 2
                                             and parts[2].startswith("_"))


def _dotted(node: ast.AST) -> str | None:
    """'a.b.c' for a chain of attribute reads on a name, else None."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(attrs)])


def private_numpy_uses(source: str) -> set[str]:
    """Every private numpy name the source imports or reads as an attribute
    chain, written from numpy (np.x as numpy.x)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [_dotted(node) or ""]
        else:
            continue
        for name in names:
            if _private(name):
                found.add("numpy" + name[name.index("."):])
    return found


def test_the_scan_finds_private_imports_and_reads():
    source = """
try:
    from numpy._core.multiarray import c_einsum
except ImportError:
    from numpy.core.multiarray import c_einsum
import numpy.linalg._linalg
from numpy.linalg import _umath_linalg, norm
import numpy as np
gram = np._core.multiarray.c_einsum("ij->j", np.eye(2))
fine = np.linalg.norm(np.core_like)
"""
    assert private_numpy_uses(source) == {
        "numpy._core.multiarray.c_einsum", "numpy.core.multiarray.c_einsum",
        "numpy.linalg._linalg", "numpy.linalg._umath_linalg", "numpy._core.multiarray",
        "numpy._core"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_numpy(path):
    uses = private_numpy_uses(path.read_text())
    assert {(path.name, name) for name in uses} <= ALLOWED, sorted(uses)
