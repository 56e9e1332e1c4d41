"""Rates of a uniformly accelerated two-level atom coupled quadratically
to vacuum Dirac field fluctuations, with an independent quadrature oracle.

The root exports the closed-form core, which computes on `math` (`atom`
also loads `cmath`, for the oracle's susceptibilities): the atom,
`rate_rows`, its one-point case `rate_total` with its `RateBreakdown`, and
the SI conversion.  The other names (`verify_rates`, `boost_matrix`, ...)
are imported from their modules: `diracrates.oracle`,
`diracrates.clifford`, `diracrates.correlators`.  Every module runs on the
standard library.
"""

from .atom import TwoLevelAtom
from .rates import RateBreakdown, rate_rows, rate_total, si_acceleration_to_natural

__all__ = [
    "RateBreakdown",
    "TwoLevelAtom",
    "rate_rows",
    "rate_total",
    "si_acceleration_to_natural",
]

__version__ = "0.2.0"
