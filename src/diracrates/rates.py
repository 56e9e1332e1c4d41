"""Closed-form rates of change of the atomic energy.

`rate_rows` computes the vacuum-fluctuation and cross-term contributions
for a uniformly accelerated two-level atom and their total, with the
polynomial factor, the Planck number and the temperature a/2pi, as one row
per acceleration; it is the only loop that computes closed-form points, and
`rate_total` is its one-point case, returning a `RateBreakdown`.
Also an SI acceleration conversion helper.
Natural units (hbar = c = 1) throughout; energies per unit proper time.
"""
import math
import sys
from collections import namedtuple
from collections.abc import Iterable, Iterator

from .atom import CHANNEL_WEIGHT, TwoLevelAtom

SPEED_OF_LIGHT = 2.99792458e8  # m/s

# Inertial rates are mu^2 weight omega0^6 / _RATE_DENOM.
_RATE_DENOM = 120.0 * math.pi**3


class RateBreakdown(namedtuple(
    "RateBreakdown", "accel vf cross total poly_factor planck_n effective_temperature"
)):
    """One point in the order of the sweep CSV's columns; the last is a/2pi."""

    __slots__ = ()


def rate_rows(atom: TwoLevelAtom, accels: Iterable[float], mu: float) -> Iterator[tuple]:
    """The closed-form rates and their factors at each a, as sweep rows.

    Yields plain tuples in `RateBreakdown`'s field order.  This is the only
    code that computes closed-form points, the polynomial factor
    1 + 5 a^2/w^2 + 4 a^4/w^4 and the Planck number 1/(e^{2 pi w / a} - 1)
    among them, and it does per a only what depends on a.  Each a is
    checked before mu, so a bad first point is named ahead of a bad
    coupling.
    """
    w = atom.omega0
    mu_ok = math.isfinite(mu)
    excited = atom.omega_bd > 0
    # mu^2 W w^6 f / 120 pi^3 from the mantissas of mu and w, scaled once by
    # 2^shift: exact, so mu^2 or w^6 out of double range costs no rate bits.
    (mu_m, mu_e), (w_m, w_e) = math.frexp(mu), math.frexp(w)
    pref = (mu_m * mu_m / _RATE_DENOM) * CHANNEL_WEIGHT * w_m**6
    shift = 2 * mu_e + 6 * w_e
    tiny = sys.float_info.min
    two_pi, two_pi_w = 2.0 * math.pi, 2.0 * math.pi * w
    inf, expm1, exp, ldexp = math.inf, math.expm1, math.exp, math.ldexp
    for a in accels:
        if not (0 <= a < inf):
            raise ValueError(f"acceleration must be nonnegative and finite, got {a}")
        if not mu_ok:
            raise ValueError(f"coupling must be finite, got {mu}")
        try:
            r2 = (a / w) ** 2
        except OverflowError:
            r2 = inf
        f = 1.0 + 5.0 * r2 + 4.0 * r2 * r2
        if a > 0:
            x = two_pi_w / a
            try:
                n = 1.0 / expm1(x)
            except OverflowError:  # expm1 overflows beyond x ~ 709.78
                n = exp(-x)
            except ZeroDivisionError:  # x underflowed to 0
                n = inf
            if n == inf:
                raise OverflowError("thermal occupation out of double range")
        else:  # a = -0.0 gives +0.0 in the row, a / 2pi included
            a = n = 0.0
        try:
            base = ldexp(pref * f, shift)
        except OverflowError:
            raise OverflowError("rate out of double range") from None
        # The magnitudes of vf and the total: each is base times its own
        # factor, rounded once.  The total is not vf + cross, which cancels
        # to rounding for the ground level at small n.
        f_vf, f_total = 1.0 + 2.0 * n, 2.0 * (1.0 + n) if excited else 2.0 * n
        if base < tiny and n >= tiny:
            # base is subnormal or 0, and has lost bits that vf and the
            # total, about 2n times larger, may keep: scale each factor as
            # base is scaled.
            vf, total = [ldexp(pref * f * m, shift + e)
                         for m, e in map(math.frexp, (f_vf, f_total))]
        elif n < tiny and a > 0 and not excited:
            # n is subnormal or 0 and has lost its bits, while base e^{-x}
            # may be normal: take e^{-x} in two normal halves instead.  1 + 2n
            # rounds to 1, so vf is base.
            half = exp(-0.5 * x)
            vf, total = base, base * (2.0 * half) * half
        else:
            vf, total = base * f_vf, base * f_total
        # The downward transition (excited) drains energy, the upward one
        # feeds it.  0.0 - x rather than -x keeps a zero rate +0.0.
        if excited:
            vf, total = 0.0 - vf, 0.0 - total
        cross = 0.0 - base
        # Overflow leaves inf here, or nan where a zero coupling meets inf.
        if not (-inf < vf < inf and -inf < cross < inf and -inf < total < inf):
            raise OverflowError("rate out of double range")
        yield (a, vf, cross, total, f, n, a / two_pi)


def rate_total(atom: TwoLevelAtom, a: float, mu: float) -> RateBreakdown:
    """The closed-form rates and their factors at one point, as a sweep row:
    the one-point case of `rate_rows`."""
    (row,) = rate_rows(atom, (a,), mu)
    return RateBreakdown._make(row)


def si_acceleration_to_natural(a_si: float) -> float:
    """Convert an acceleration in m/s^2 to its frequency scale a/c in 1/s."""
    if a_si < 0:
        raise ValueError(f"acceleration must be nonnegative, got {a_si}")
    return a_si / SPEED_OF_LIGHT
