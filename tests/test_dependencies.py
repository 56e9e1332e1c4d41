"""The package runs on the standard library alone, and its public
functions, classes and constants all have a use."""
import ast
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
MODULES = sorted((ROOT / "src" / "diracrates").glob("*.py"))


def imported_names(tree):
    """The top-level name of every module that `tree` imports, at any depth;
    relative imports count as the package itself."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "diracrates" if node.level else node.module.split(".")[0]


def test_modules_found():
    assert {p.name for p in MODULES} >= {"clifford.py", "selfcheck.py", "oracle.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_the_package(path):
    names = set(imported_names(ast.parse(path.read_text(), filename=str(path))))
    assert names - sys.stdlib_module_names - {"diracrates"} == set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_parses_as_python_3_10(path):
    # pyproject.toml promises requires-python >= 3.10.
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_function_level_imports_are_seen():
    tree = ast.parse("def f():\n    import numpy\n    from .clifford import matmul\n")
    assert set(imported_names(tree)) == {"numpy", "diracrates"}


def test_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        project = tomllib.load(f)["project"]
    assert project["dependencies"] == []


def public_definitions(tree):
    """(qualified name, node) of each public top-level function of `tree`,
    and of each public method or property of its top-level classes."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        for item in members:
            if isinstance(item, functions) and not item.name.startswith("_"):
                prefix = f"{node.name}." if item is not node else ""
                yield prefix + item.name, item


def referenced_names(tree):
    """A Counter of the names `tree` reads, imports or looks up as attributes."""
    return Counter(
        node.id if isinstance(node, ast.Name)
        else node.attr if isinstance(node, ast.Attribute)
        else node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
    )


def top_level_bindings(tree):
    """(name, node) of each top-level class of `tree` and of each name that a
    top-level assignment binds (constants and type aliases), public or
    private; dunders such as __all__ are left out."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if not (name.startswith("__") and name.endswith("__")):
                yield name, node


def unused(definitions):
    """`module.name` of each of `definitions(tree)` that nothing in src/
    references outside the definition itself.  A re-export from the package
    root is not a use, so __init__.py is not searched."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}
    everywhere = sum(
        (referenced_names(tree) for path, tree in trees.items()
         if path.name != "__init__.py"),
        Counter(),
    )
    return [
        f"{path.stem}.{qualname}"
        for path, tree in trees.items()
        for qualname, node in definitions(tree)
        if everywhere[name := qualname.rpartition(".")[2]] == referenced_names(node)[name]
    ]


def test_every_public_function_has_a_caller():
    # A public function or method that nothing in src/ uses is dead code
    # that only its tests keep.
    uncalled = unused(public_definitions)
    assert not uncalled, f"no caller in src/ outside __init__.py: {', '.join(uncalled)}"


def test_every_class_and_constant_has_a_use():
    # So is a class, type alias or constant that nothing in src/ reads.
    unread = unused(top_level_bindings)
    assert not unread, f"no use in src/ outside __init__.py: {', '.join(unread)}"
