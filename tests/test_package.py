"""The package's public names: the root's math-only core, and the names
that only their own modules export."""
import importlib
import re
import sys
from pathlib import Path

import pytest

import diracrates

# Each name the root exports and the module that defines it.
HOME = {
    "RateBreakdown": "rates",
    "TwoLevelAtom": "atom",
    "rate_rows": "rates",
    "rate_total": "rates",
    "si_acceleration_to_natural": "rates",
}

# Public names of the other modules, which the root does not export.
MODULE_ONLY = {
    "OracleReport": "oracle",
    "WorldlineParams": "correlators",
    "boost_matrix": "clifford",
    "gamma_matrix": "clifford",
    "trace_pair": "correlators",
    "verify_rates": "oracle",
}


def test_all_lists_the_public_names():
    assert len(HOME) == 5
    assert diracrates.__all__ == sorted(HOME)


@pytest.mark.parametrize("name", sorted({**HOME, **MODULE_ONLY}))
def test_name_is_its_home_module_object(name):
    # A root name is its home module's object; any other public name is
    # reached through its module only.
    module = HOME.get(name) or MODULE_ONLY[name]
    home = importlib.import_module(f"diracrates.{module}")
    if name in HOME:
        assert getattr(diracrates, name) is getattr(home, name)
        assert name in dir(diracrates)
    else:
        assert callable(getattr(home, name))
        with pytest.raises(AttributeError, match=name):
            getattr(diracrates, name)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from diracrates import *", namespace)
    for name in HOME:
        assert namespace[name] is getattr(diracrates, name)
    assert not set(MODULE_ONLY) & set(namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        diracrates.no_such_name  # noqa: B018


def test_version_matches_pyproject():
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    if sys.version_info >= (3, 11):
        import tomllib

        version = tomllib.loads(text)["project"]["version"]
    else:  # no tomllib: the one `version = "..."` line of [project]
        (version,) = re.findall(r'^version = "([^"]+)"$', text, re.MULTILINE)
    assert diracrates.__version__ == version
