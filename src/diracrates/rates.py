"""Closed-form rates of change of the atomic energy.

`rate_total` computes the vacuum-fluctuation and cross-term contributions
for a uniformly accelerated two-level atom and their total, with the
polynomial factor, the Planck number and the temperature a/2pi, as one
`RateBreakdown` row; it is the only place a closed-form point is computed.
Also the detailed-balance ratio, the effective temperature and an SI
acceleration conversion helper.  Natural units (hbar = c = 1) throughout;
energies per unit proper time.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .atom import CHANNEL_WEIGHT, TwoLevelAtom

SPEED_OF_LIGHT = 2.99792458e8  # m/s

# Inertial rates are mu^2 weight omega0^6 / _RATE_DENOM.
_RATE_DENOM = 120.0 * math.pi**3


class RateBreakdown(NamedTuple):
    """One point in the order of the sweep CSV's columns; the last is a/2pi."""

    accel: float
    vf: float
    cross: float
    total: float
    poly_factor: float
    planck_n: float
    effective_temperature: float


def polynomial_factor(omega: float, a: float) -> float:
    """Acceleration correction 1 + 5 a^2/omega^2 + 4 a^4/omega^4."""
    if omega == 0:
        raise ValueError("omega must be nonzero")
    if a < 0:
        raise ValueError(f"acceleration must be nonnegative, got {a}")
    r2 = (a / omega) ** 2
    return 1.0 + 5.0 * r2 + 4.0 * r2 * r2


def planck_number(omega: float, a: float) -> float:
    """Thermal occupation 1/(e^{2 pi omega / a} - 1) at temperature a/2pi.

    Beyond the range of expm1 (2 pi omega / a > ~709.78) this is
    e^{-2 pi omega / a} to double precision, subnormal and then 0.
    """
    if omega <= 0 or a <= 0:
        raise ValueError(f"omega and a must be positive, got omega={omega}, a={a}")
    x = 2.0 * math.pi * omega / a
    try:
        n = 1.0 / math.expm1(x)
    except OverflowError:  # expm1 overflows beyond x ~ 709.78
        return math.exp(-x)
    except ZeroDivisionError:  # x underflowed to 0
        n = math.inf
    if n == math.inf:
        raise OverflowError("thermal occupation out of double range")
    return n


def rate_total(atom: TwoLevelAtom, a: float, mu: float) -> RateBreakdown:
    """The closed-form rates and their factors at one point, as a sweep row."""
    if not (0 <= a < math.inf):
        raise ValueError(f"acceleration must be nonnegative and finite, got {a}")
    if not math.isfinite(mu):
        raise ValueError(f"coupling must be finite, got {mu}")
    w = atom.omega0
    f = polynomial_factor(w, a)
    n = planck_number(w, a) if a > 0 else 0.0
    base = (mu * mu / _RATE_DENOM) * CHANNEL_WEIGHT * w**6 * f
    mag = base * (1.0 + 2.0 * n)
    # The downward transition (excited) drains energy, the upward one feeds
    # it.  0.0 - x rather than -x keeps a zero rate +0.0.  The total is not
    # vf + cross, which cancels to rounding for the ground level at small n.
    if atom.omega_bd > 0:
        vf, total = 0.0 - mag, 0.0 - 2.0 * base * (1.0 + n)
    else:
        vf, total = mag, 2.0 * base * n
    cross = 0.0 - base
    # Float products overflow to inf silently, unlike float powers.
    if not (math.isfinite(vf) and math.isfinite(cross) and math.isfinite(total)):
        raise OverflowError("rate out of double range")
    return RateBreakdown(a, vf, cross, total, f, n, a / (2.0 * math.pi))


def _check_positive(omega0: float, a: float) -> None:
    if not (0 < omega0 < math.inf and 0 < a < math.inf):
        raise ValueError(
            f"omega0 and a must be positive and finite, got omega0={omega0}, a={a}"
        )


def detailed_balance_ratio(omega0: float, a: float) -> float:
    """Excitation over de-excitation rate magnitude at equal parameters.

    Equals n/(1+n) = e^{-2 pi omega0 / a}: the polynomial factor cancels
    in the quotient, leaving only the occupation number.  Evaluated as
    the exponential; the quotient of rate_total values agrees wherever
    the occupation is a normal float.
    """
    _check_positive(omega0, a)
    return math.exp(-2.0 * math.pi * omega0 / a)


def effective_temperature(omega0: float, a: float) -> float:
    """Temperature read off detailed balance, omega0 / ln(1/ratio) = a/2pi."""
    _check_positive(omega0, a)
    return a / (2.0 * math.pi)


def si_acceleration_to_natural(a_si: float) -> float:
    """Convert an acceleration in m/s^2 to its frequency scale a/c in 1/s."""
    if a_si < 0:
        raise ValueError(f"acceleration must be nonnegative, got {a_si}")
    return a_si / SPEED_OF_LIGHT
