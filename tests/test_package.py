"""The package's public names: eager and lazily resolved re-exports."""
import importlib

import pytest

import diracrates

# Each public name and the module that defines it.
HOME = {
    "FourVector": "clifford",
    "OracleReport": "oracle",
    "RateBreakdown": "rates",
    "StatFunctionPair": "correlators",
    "TwoLevelAtom": "atom",
    "WorldlineParams": "correlators",
    "boost_matrix": "clifford",
    "detailed_balance_ratio": "rates",
    "effective_temperature": "rates",
    "gamma_matrix": "clifford",
    "planck_number": "rates",
    "polynomial_factor": "rates",
    "rate_rows": "rates",
    "rate_total": "rates",
    "rindler_event": "correlators",
    "si_acceleration_to_natural": "rates",
    "slash": "clifford",
    "stat_functions_closed": "correlators",
    "trace_pair": "correlators",
    "verify_rates": "oracle",
}


def test_all_lists_the_public_names():
    assert len(HOME) == 20
    assert diracrates.__all__ == sorted(HOME)


@pytest.mark.parametrize("name", sorted(HOME))
def test_name_is_its_home_module_object(name):
    home = importlib.import_module(f"diracrates.{HOME[name]}")
    assert getattr(diracrates, name) is getattr(home, name)
    assert name in dir(diracrates)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from diracrates import *", namespace)
    for name in HOME:
        assert namespace[name] is getattr(diracrates, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        diracrates.no_such_name  # noqa: B018
