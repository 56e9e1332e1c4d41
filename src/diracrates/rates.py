"""Closed-form rates of change of the atomic energy.

Vacuum-fluctuation and cross-term contributions for a uniformly
accelerated two-level atom, their total, the inertial limit, detailed
balance and the associated effective temperature, plus an SI
acceleration conversion helper.  Natural units (hbar = c = 1)
throughout; energies per unit proper time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .atom import TransitionChannel, TwoLevelAtom, channels

SPEED_OF_LIGHT = 2.99792458e8  # m/s

# e^x overflows double precision beyond this; thermal factor is 0 there.
_EXP_OVERFLOW = 745.0

_RR_NOTE = "order mu^3, neglected"


@dataclass(frozen=True)
class ChannelTerm:
    omega_bd: float
    poly_factor: float
    planck_n: float


@dataclass(frozen=True)
class RateBreakdown:
    vf: float
    cross: float
    total: float
    coupling: float
    channel_terms: list[ChannelTerm] = field(default_factory=list)
    # Source-field-only contribution; higher order in the coupling.
    radiation_reaction: float = 0.0
    radiation_reaction_note: str = _RR_NOTE


def polynomial_factor(omega: float, a: float) -> float:
    """Acceleration correction 1 + 5 a^2/omega^2 + 4 a^4/omega^4."""
    if omega == 0:
        raise ValueError("omega must be nonzero")
    if a < 0:
        raise ValueError(f"acceleration must be nonnegative, got {a}")
    r2 = (a / omega) ** 2
    return 1.0 + 5.0 * r2 + 4.0 * r2 * r2


def planck_number(omega: float, a: float) -> float:
    """Thermal occupation 1/(e^{2 pi omega / a} - 1) at temperature a/2pi."""
    if omega <= 0 or a <= 0:
        raise ValueError(f"omega and a must be positive, got omega={omega}, a={a}")
    x = 2.0 * math.pi * omega / a
    if x > _EXP_OVERFLOW:
        return 0.0
    return 1.0 / math.expm1(x)


def _channel_vf(ch: TransitionChannel, a: float, mu: float) -> float:
    w = abs(ch.omega_bd)
    f = polynomial_factor(w, a)
    n = planck_number(w, a) if a > 0 else 0.0
    mag = (mu * mu / (120.0 * math.pi**3)) * ch.weight * w**6 * f * (1.0 + 2.0 * n)
    # Downward channels (omega_bd > 0) drain energy, upward ones feed it.
    return -mag if ch.omega_bd > 0 else mag


def _channel_cross(ch: TransitionChannel, a: float, mu: float) -> float:
    w = abs(ch.omega_bd)
    f = polynomial_factor(w, a)
    return -(mu * mu / (120.0 * math.pi**3)) * ch.weight * w**6 * f


def _check_inputs(a: float, mu: float) -> None:
    if not (0 <= a < math.inf):
        raise ValueError(f"acceleration must be nonnegative and finite, got {a}")
    if not math.isfinite(mu):
        raise ValueError(f"coupling must be finite, got {mu}")


def _finite(rate: float) -> float:
    # Float products overflow to inf silently, unlike float powers.
    if not math.isfinite(rate):
        raise OverflowError("rate out of double range")
    return rate


def rate_vf(atom: TwoLevelAtom, a: float, mu: float) -> float:
    """Vacuum-fluctuation contribution to d<H_A>/dtau."""
    _check_inputs(a, mu)
    return _finite(sum(_channel_vf(ch, a, mu) for ch in channels(atom)))


def rate_cross(atom: TwoLevelAtom, a: float, mu: float) -> float:
    """Cross-term contribution; negative for either initial level."""
    _check_inputs(a, mu)
    return _finite(sum(_channel_cross(ch, a, mu) for ch in channels(atom)))


def rate_total(atom: TwoLevelAtom, a: float, mu: float) -> RateBreakdown:
    """Total mean rate of change of the atomic energy with its breakdown."""
    vf = rate_vf(atom, a, mu)
    cross = rate_cross(atom, a, mu)
    terms = [
        ChannelTerm(
            omega_bd=ch.omega_bd,
            poly_factor=polynomial_factor(abs(ch.omega_bd), a),
            planck_n=planck_number(abs(ch.omega_bd), a) if a > 0 else 0.0,
        )
        for ch in channels(atom)
    ]
    return RateBreakdown(
        vf=vf,
        cross=cross,
        total=_finite(vf + cross),
        coupling=mu,
        channel_terms=terms,
    )


def _check_positive(omega0: float, a: float) -> None:
    if not (0 < omega0 < math.inf and 0 < a < math.inf):
        raise ValueError(
            f"omega0 and a must be positive and finite, got omega0={omega0}, a={a}"
        )


def detailed_balance_ratio(omega0: float, a: float) -> float:
    """Excitation over de-excitation rate magnitude at equal parameters.

    Equals n/(1+n) = e^{-2 pi omega0 / a}: the polynomial factor cancels
    in the quotient, leaving only the occupation number.  Evaluated as
    the exponential; the quotient of rate_total values agrees but loses
    precision to cancellation when the occupation is tiny.
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
