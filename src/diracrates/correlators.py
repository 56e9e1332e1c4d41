"""Field correlators along the uniformly accelerated worldline.

Two views of the massless field along the worldline: the transported
two-point matrix g, built from Minkowski-frame derivatives of the scalar
Wightman function 1/(4 pi^2 z^2) and the boosts of `clifford`, and the
closed two-point trace -a^6 / (64 pi^4 sinh^6(a dtau/2 - i epsilon)) that
the oracle integrates.  For real dtau the trace's real part is the field's
symmetric statistical function C^F and i times its imaginary part the
antisymmetric one, chi^F.  The trace runs on `cmath` and takes one dtau;
only the matrix function imports `clifford`, inside the function, and
returns its 4x4 tuple matrix.
"""
import cmath
import math
from typing import NamedTuple

_PI2 = math.pi**2


class SingularIntervalError(ArithmeticError):
    """Evaluation at the light-cone singularity (z = 0)."""


class WorldlineParams(NamedTuple("_Worldline", [("accel", float), ("epsilon", float)])):
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


def g_matrix_from_worldline(tau: float, tau_p: float, params: WorldlineParams):
    """Two-time construction of g via transport-conjugation of the two-point matrix.

    Builds the massless two-point matrix from Minkowski-frame derivatives
    of the scalar Wightman function between trajectory points, then
    conjugates with the transport matrices.  The regulator enters as a
    complex shift of the earlier proper time, which reduces exactly to
    the sinh(a dtau/2 - i epsilon) prescription.  Only the gamma^0
    component survives at zero mass: g = -gamma^0 dG/dz at z(tau - tau_p),
    with dG/dz = -1/(2 pi^2 z^3) and z = i (2/a) sinh(a dtau/2 - i epsilon),
    for any common shift of both times.
    """
    from .clifford import boost_matrix, combine, gamma_matrix, matmul

    for name, t in (("tau", tau), ("tau_p", tau_p)):
        if not cmath.isfinite(t):
            raise ValueError(f"{name} must be finite, got {t}")
    a = params.accel
    tau_p_c = tau_p + 2j * params.epsilon / a

    dt = (cmath.sinh(a * tau) - cmath.sinh(a * tau_p_c)) / a
    dx = (cmath.cosh(a * tau) - cmath.cosh(a * tau_p_c)) / a
    sigma = dx * dx - dt * dt  # = z^2
    if sigma == 0:
        raise SingularIntervalError("coincident trajectory points")

    # d/dx^mu of G = 1/(4 pi^2 sigma), sigma = |dx|^2 - dt^2
    dG_dt = dt / (2.0 * _PI2 * sigma * sigma)
    dG_dx = -dx / (2.0 * _PI2 * sigma * sigma)
    two_point = combine(1j * dG_dt, gamma_matrix(0), 1j * dG_dx, gamma_matrix(1))

    # The transport matrix at tau is boost_matrix(a, -tau).
    return matmul(matmul(boost_matrix(a, -tau), two_point), boost_matrix(a, tau_p_c))


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
