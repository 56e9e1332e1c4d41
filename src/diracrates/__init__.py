"""Rates of a uniformly accelerated two-level atom coupled quadratically
to vacuum Dirac field fluctuations, with an independent quadrature oracle."""

from .atom import TwoLevelAtom
from .clifford import FourVector, boost_matrix, gamma_matrix, slash
from .correlators import (
    StatFunctionPair,
    WorldlineParams,
    rindler_event,
    stat_functions_closed,
    trace_pair,
)
from .oracle import OracleReport, verify_rates
from .rates import (
    RateBreakdown,
    detailed_balance_ratio,
    effective_temperature,
    planck_number,
    polynomial_factor,
    rate_cross,
    rate_total,
    rate_vf,
    si_acceleration_to_natural,
)

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
    "rate_cross",
    "rate_total",
    "rate_vf",
    "rindler_event",
    "si_acceleration_to_natural",
    "slash",
    "stat_functions_closed",
    "trace_pair",
    "verify_rates",
]

__version__ = "0.1.0"
