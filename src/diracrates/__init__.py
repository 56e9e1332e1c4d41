"""Rates of a uniformly accelerated two-level atom coupled quadratically
to vacuum Dirac field fluctuations, with an independent quadrature oracle."""

import importlib

from .atom import TwoLevelAtom
from .rates import (
    RateBreakdown,
    detailed_balance_ratio,
    effective_temperature,
    planck_number,
    polynomial_factor,
    rate_total,
    si_acceleration_to_natural,
)

# Public names of the numpy-backed modules, resolved on first access
# (PEP 562) so that importing the package, `rate` and `sweep` never load
# numpy.
_LAZY = {
    "FourVector": "clifford",
    "boost_matrix": "clifford",
    "gamma_matrix": "clifford",
    "slash": "clifford",
    "StatFunctionPair": "correlators",
    "WorldlineParams": "correlators",
    "rindler_event": "correlators",
    "stat_functions_closed": "correlators",
    "trace_pair": "correlators",
    "OracleReport": "oracle",
    "verify_rates": "oracle",
}

__all__ = [
    "FourVector",
    "OracleReport",
    "RateBreakdown",
    "StatFunctionPair",
    "TwoLevelAtom",
    "WorldlineParams",
    "boost_matrix",
    "detailed_balance_ratio",
    "effective_temperature",
    "gamma_matrix",
    "planck_number",
    "polynomial_factor",
    "rate_total",
    "rindler_event",
    "si_acceleration_to_natural",
    "slash",
    "stat_functions_closed",
    "trace_pair",
    "verify_rates",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
