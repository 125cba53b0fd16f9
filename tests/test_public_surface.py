"""Every public name the package defines is used outside the tests.

A public function, class, method or property defined in `src/supfix` is
used when something outside its own definition refers to it: code in a
package module or under `perfbench/`, or a string literal without
whitespace under `perfbench/`, in BENCHMARK.json or in pyproject.toml,
which name spans, metrics and entry points ("unitary.UnitaryGroup.cayley",
"supfix.cli:main").  A function or class is referred to by a name, an
attribute or an import; a method or property only by an attribute.  A
definition marked `# public: <reason>` on its `def` or `class` line is
kept on purpose.  The check matches names, not types: a method counts as
used once an attribute of that name is read anywhere.

The benchmark's tracer (perfbench/tracing.py) wraps only the plain
functions of its layer modules, so a public name a layer defines must be a
plain function or a class; a caching wrapper around a function would hide
that layer from the per-layer metrics without a word.
"""

import ast
import functools
import importlib
import importlib.util
import inspect
import re
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "supfix"
OUTSIDE = [*sorted((ROOT / "perfbench").rglob("*.py")), ROOT / "BENCHMARK.json",
           ROOT / "pyproject.toml"]
TRACING = ROOT / "perfbench" / "tracing.py"
MARKER = "# public:"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(tree: ast.Module, lines: list[str]) -> list[tuple[str, str, bool]]:
    """(qualified name, name, is a method) of every unmarked public
    module-level def or class and every unmarked public def of a public class."""
    found = []

    def visit(body, prefix):
        for node in body:
            if not isinstance(node, DEFINITIONS) or node.name.startswith("_"):
                continue
            if MARKER not in lines[node.lineno - 1]:
                found.append((prefix + node.name, node.name, bool(prefix)))
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.")

    visit(tree.body, "")
    return found


def _references(node: ast.AST, inside: frozenset = frozenset()) -> tuple[set, set]:
    """(names, attributes) that node's code reads, imports counted as names,
    leaving out those a definition makes of its own name."""
    if isinstance(node, DEFINITIONS):
        inside = inside | {node.name}
    names, attrs = set(), set()
    if isinstance(node, ast.Name):
        names.add(node.id)
    elif isinstance(node, ast.alias):
        names.add(node.name.rpartition(".")[2])
    elif isinstance(node, ast.Attribute):
        attrs.add(node.attr)
    for child in ast.iter_child_nodes(node):
        child_names, child_attrs = _references(child, inside)
        names |= child_names
        attrs |= child_attrs
    return names - inside, attrs - inside


def _identifiers(literals) -> set[str]:
    """Identifiers inside the whitespace-free strings among literals."""
    return {word for literal in literals if not re.search(r"\s", literal)
            for word in re.findall(r"[A-Za-z_]\w*", literal)}


def unreferenced(package: dict[str, str], outside: dict[str, str]) -> list[str]:
    """Qualified names ('module.Class.name') of the unmarked public
    definitions in the package sources (module -> source) that neither the
    package nor the outside files (file name -> text) refer to."""
    trees = {module: ast.parse(source) for module, source in package.items()}
    named = set()  # identifiers in the outside files' whitespace-free strings
    for name, text in outside.items():
        if name.endswith(".py"):
            trees[name] = ast.parse(text)
            named |= _identifiers(node.value for node in ast.walk(trees[name])
                                  if isinstance(node, ast.Constant) and isinstance(node.value, str))
        else:
            named |= _identifiers(re.findall(r'"([^"]*)"', text))
    names, attrs = set(), set()
    for tree in trees.values():
        tree_names, tree_attrs = _references(tree)
        names |= tree_names
        attrs |= tree_attrs
    return sorted(f"{module}.{qualified}"
                  for module, source in package.items()
                  for qualified, name, method in _definitions(trees[module], source.splitlines())
                  if name not in named | attrs and (method or name not in names))


def test_every_public_name_is_used_outside_the_tests():
    package = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    outside = {str(path.relative_to(ROOT)): path.read_text() for path in OUTSIDE}
    assert unreferenced(package, outside) == []


def test_the_check_finds_what_it_should():
    package = {
        "a": '''
def used():
    """Unlike only_in_docs, called from b."""
def recursive(n): return recursive(n - 1)
def only_in_docs(): pass
def kept(): pass  # public: the planted marker
def _private(): pass
def in_benchmark(): pass

class Shape:
    def area(self): return self.side
    @property
    def side(self): return 1
    def unused_method(self): return Shape
    def edges(self): return 4
''',
        "b": '''
from .a import used
def caller():
    edges = 3  # a local variable, not the method
    return used() + Shape().area() + edges
''',
    }
    outside = {"BENCHMARK.json": '{"metric": "a.in_benchmark.self_s", "why": "see only_in_docs"}',
               "bench.py": 'CALLS = ("b", "caller")  # "unused_method"'}
    assert unreferenced(package, outside) == ["a.Shape.edges", "a.Shape.unused_method",
                                              "a.only_in_docs", "a.recursive"]


def untraceable(modules) -> list[str]:
    """'module.name' of every public name a module defines (its __module__ is
    the module's) that is neither a plain function nor a class."""
    return sorted(f"{mod.__name__}.{attr}" for mod in modules
                  for attr, obj in vars(mod).items()
                  if not attr.startswith("_")
                  and getattr(obj, "__module__", None) == mod.__name__
                  and not (inspect.isfunction(obj) or inspect.isclass(obj)))


def _traced_layers() -> tuple[str, ...]:
    spec = importlib.util.spec_from_file_location("_tracing_layers", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.LAYERS


def test_traced_layers_define_only_functions_and_classes():
    layers = _traced_layers()
    assert len(layers) == 12
    modules = [importlib.import_module(f"supfix.{layer}") for layer in layers]
    assert untraceable(modules) == []


def test_the_layer_check_finds_a_cached_function():
    layer = types.ModuleType("supfix.planted")

    def plain(n):
        return n

    def looked_up(n):
        return n

    for fn in (plain, looked_up):
        fn.__module__ = layer.__name__
    layer.plain = plain
    layer.looked_up = functools.cache(looked_up)  # copies __module__, is no function
    layer.LIMIT = 3
    layer.imported = re.compile  # defined elsewhere
    layer._private = functools.cache(plain)
    assert untraceable([layer]) == ["supfix.planted.looked_up"]
