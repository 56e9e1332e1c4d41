"""The package runs on the standard library alone."""
import ast
import sys
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
    tree = ast.parse("def f():\n    import numpy\n    from .clifford import slash\n")
    assert set(imported_names(tree)) == {"numpy", "diracrates"}


def test_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        project = tomllib.load(f)["project"]
    assert project["dependencies"] == []
