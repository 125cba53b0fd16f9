"""Every name a package module imports is read somewhere in that module.

An import counts as used when the module loads its name, names it in a
string annotation, or lists it in `__all__`; an import line marked
`# noqa: F401` is kept on purpose.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "supfix"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imported(tree: ast.Module, lines: list[str]) -> dict[str, int]:
    """Bound name -> line of every import outside `__future__` not marked noqa."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            if "noqa: F401" in lines[alias.lineno - 1] or "noqa: F401" in lines[node.lineno - 1]:
                continue
            names[alias.asname or alias.name.partition(".")[0]] = alias.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _read(tree: ast.Module) -> set[str]:
    """Names the module loads, including those inside string annotations."""
    trees = [tree]
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                trees.append(ast.parse(node.value, mode="eval"))
    return {node.id for t in trees for node in ast.walk(t)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    used = _read(tree) | _exported(tree)
    return sorted((name, line) for name, line in _imported(tree, source.splitlines()).items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_finds_what_it_should():
    source = '''
from __future__ import annotations
import os.path
import json as js
from typing import Iterable, Sequence
from .a import kept  # noqa: F401
from .b import (
    listed,
    dropped,
)
__all__ = ["listed"]

def f(x: "Sequence[int]") -> int:
    return os.getpid()
'''
    assert unused_imports(source) == [("Iterable", 5), ("dropped", 9), ("js", 4)]
