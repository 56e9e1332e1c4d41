"""Field correlators along the uniformly accelerated worldline.

The worldline's parameters and the massless field's closed two-point
trace -a^6 / (64 pi^4 sinh^6(a dtau/2 - i epsilon)), which the oracle
integrates and `selfcheck` checks against the transported two-point
matrix.  For real dtau the trace's real part is the field's symmetric
statistical function C^F and i times its imaginary part the
antisymmetric one, chi^F.  The trace takes one dtau.
"""
import cmath
import math
from collections import namedtuple

_PI2 = math.pi**2


class WorldlineParams(namedtuple("WorldlineParams", "accel epsilon")):
    """Proper acceleration and the regulator of the interval function.

    epsilon is the dimensionless shift inside the sinh argument,
    sinh(a dtau/2 - i epsilon).  As a contour shift it may be anything in
    (0, pi), short of the next pole at -i pi: an integral over real dtau
    then equals its -i0 limit.
    """

    __slots__ = ()

    def __new__(cls, accel: float, epsilon: float):
        if not 0 < accel < math.inf:
            raise ValueError(f"accel must be positive and finite, got {accel}")
        if not 0 < epsilon < math.pi:
            raise ValueError(f"epsilon must lie in (0, pi), got {epsilon}")
        return super().__new__(cls, accel, epsilon)

    @classmethod
    def _make(cls, iterable):
        # namedtuple's own _make, which _replace calls, skips __new__.
        return cls(*iterable)


def trace_pair(dtau: float, params: WorldlineParams) -> complex:
    """Trace of the two-point matrix pair, in closed form:
    -a^6 / (64 pi^4 sinh^6(a dtau/2 - i epsilon)).
    """
    # cmath.isfinite takes float, numpy.float64 and complex alike.
    if not cmath.isfinite(dtau):
        raise ValueError(f"dtau must be finite, got {dtau}")
    a = params.accel
    w = cmath.sinh(0.5 * a * dtau - 1j * params.epsilon)
    w3 = w * w * w
    return -(a**6) / (64.0 * _PI2 * _PI2) / (w3 * w3)
