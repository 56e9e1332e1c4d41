"""The package's public names: the root's math-only core, and the names
that only their own modules export; the version, and the outputs it names."""
import hashlib
import importlib
import re
import sys
from pathlib import Path

import pytest

import diracrates
from diracrates import cli

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
    "g_matrix_from_worldline": "selfcheck",
    "gamma_matrix": "clifford",
    "susceptibility_c": "oracle",
    "susceptibility_chi": "oracle",
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


# Requests whose stdout, JSON `version` key removed, is pinned to the
# package version: the default selfcheck and verify, and rate at a few
# points, among them the expm1 band and rates near the top of double range.
PINNED_REQUESTS = [
    ["selfcheck"],
    ["verify", "--format", "json"],
    ["rate", "--accel", "3", "--format", "json"],
    ["rate", "--omega0", "2", "--accel", "3", "--state", "excited",
     "--coupling", "0.7", "--format", "json"],
    ["rate", "--accel", "0.0086", "--format", "json"],
    ["rate", "--accel", "1", "--coupling", "4.23e155", "--format", "json"],
    ["rate", "--accel", "0.008", "--coupling", "1.336e156", "--format", "json"],
]

# sha256 of those outputs, one per version. An output change needs a new
# version and its digest here; the sweep CSVs have their own goldens. Like
# them, a digest depends on the platform's libm.
OUTPUT_DIGESTS = {
    "0.2.0": "f1a6c84f1d5dda8a1352c26b6a64083bc67ce8ebc2e309a2602beff0f39d446b",
}


def test_outputs_pinned_to_version(capsys):
    digest = hashlib.sha256()
    version = f',\n  "version": "{diracrates.__version__}"\n}}\n'
    for argv in PINNED_REQUESTS:
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        if "json" in argv:
            assert out.endswith(version)
            out = out[: -len(version)] + "\n}\n"
        digest.update(out.encode())
    assert digest.hexdigest() == OUTPUT_DIGESTS[diracrates.__version__]
