"""Field correlators along the uniformly accelerated worldline.

The massless two-point machinery: the regularized interval z, the
scalar Wightman function and its derivative, the transported two-point
matrix g, the two-point trace combination, and the
symmetric/antisymmetric statistical functions of the field in closed
form.  The scalar functions run on `cmath` and take one dtau or z each;
only the matrix functions import `clifford`, inside the function, and
return its 4x4 tuple matrices.
"""
from __future__ import annotations

import cmath
import math
from typing import Literal, NamedTuple

Branch = Literal["minus", "plus"]

_PI2 = math.pi**2
_PI4 = math.pi**4


class SingularIntervalError(ArithmeticError):
    """Evaluation at the light-cone singularity (z = 0)."""


class WorldlineParams(NamedTuple("_Worldline", [("accel", float), ("epsilon", float)])):
    """Proper acceleration and the regulator of the interval function.

    epsilon is the dimensionless shift inside the sinh argument,
    sinh(a dtau/2 -+ i epsilon).  As a contour shift it may be anything in
    (0, pi), short of the next pole at -+i pi: an integral over real dtau
    then equals its -+i0 limit.
    """

    __slots__ = ()

    def __new__(cls, accel: float, epsilon: float = 1e-4):
        if not 0 < accel < math.inf:
            raise ValueError(f"accel must be positive and finite, got {accel}")
        if not 0 < epsilon < math.pi:
            raise ValueError(f"epsilon must lie in (0, pi), got {epsilon}")
        return super().__new__(cls, accel, epsilon)


class StatFunctionPair(NamedTuple):
    """Symmetric (c_f) and antisymmetric (chi_f) field statistical functions."""

    c_f: complex
    chi_f: complex


def interval_z(dtau: float, params: WorldlineParams, branch: Branch = "minus") -> complex:
    """Regularized interval i (2/a) sinh(a dtau/2 -+ i epsilon)."""
    # cmath.isfinite takes float, numpy.float64 and complex alike.
    if not cmath.isfinite(dtau):
        raise ValueError(f"dtau must be finite, got {dtau}")
    shift = -1j * params.epsilon if branch == "minus" else 1j * params.epsilon
    a = params.accel
    return 1j * (2.0 / a) * cmath.sinh(0.5 * a * dtau + shift)


def wightman_massless(z: complex) -> complex:
    """Massless scalar Wightman function 1/(4 pi^2 z^2)."""
    if z == 0:
        raise SingularIntervalError("Wightman function is singular at z = 0")
    return 1.0 / (4.0 * _PI2 * z * z)


def dwightman_dz(z: complex) -> complex:
    """d/dz of the massless Wightman function: -1/(2 pi^2 z^3)."""
    if z == 0:
        raise SingularIntervalError("Wightman derivative is singular at z = 0")
    return -1.0 / (2.0 * _PI2 * (z * z * z))


def g_matrix(dtau: float, params: WorldlineParams):
    """Transported two-point matrix for the massless field, a 4x4 tuple matrix.

    Only the gamma^0 component survives at zero mass:
    g(dtau) = -gamma^0 dG/dz evaluated at z(dtau) on the minus branch.
    """
    from .clifford import _GAMMA, scale

    return scale(-dwightman_dz(interval_z(dtau, params, "minus")), _GAMMA[0])


def g_matrix_from_worldline(tau: float, tau_p: float, params: WorldlineParams):
    """Two-time construction of g via transport-conjugation of the two-point matrix.

    Builds the massless two-point matrix from Minkowski-frame derivatives
    of the scalar Wightman function between trajectory points, then
    conjugates with the transport matrices.  The regulator enters as a
    complex shift of the earlier proper time, which reduces exactly to
    the sinh(a dtau/2 - i epsilon) prescription.  Agrees with
    g_matrix(tau - tau_p, params) for any common shift of both times.
    """
    from .clifford import _GAMMA, boost_matrix, combine, matmul

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
    two_point = combine(1j * dG_dt, _GAMMA[0], 1j * dG_dx, _GAMMA[1])

    # The transport matrix at tau is boost_matrix(a, -tau).
    return matmul(matmul(boost_matrix(a, -tau), two_point), boost_matrix(a, tau_p_c))


def trace_pair(dtau: float, params: WorldlineParams, branch: Branch = "minus") -> complex:
    """Trace of the two-point matrix pair: 4 (dG/dz)^2 at z(dtau).

    Analytically -a^6 / (64 pi^4 sinh^6(a dtau/2 -+ i epsilon)).
    """
    d = dwightman_dz(interval_z(dtau, params, branch))
    return 4.0 * d * d


def stat_functions_closed(dtau: float, params: WorldlineParams) -> StatFunctionPair:
    """Closed-form symmetric and antisymmetric statistical functions."""
    if not cmath.isfinite(dtau):
        raise ValueError(f"dtau must be finite, got {dtau}")
    a = params.accel
    x = 0.5 * a * dtau
    pref = -(a**6) / (128.0 * _PI4)
    sm = cmath.sinh(x - 1j * params.epsilon) ** -6
    sp = cmath.sinh(x + 1j * params.epsilon) ** -6
    return StatFunctionPair(c_f=pref * (sm + sp), chi_f=pref * (sm - sp))
