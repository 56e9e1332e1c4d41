"""Algebra and correlator identity suites, and the two-point matrix they check."""
import cmath
import math
from collections import namedtuple

from . import clifford, correlators

_PI2 = math.pi**2


class SingularIntervalError(ArithmeticError):
    """Evaluation at the light-cone singularity (z = 0)."""


class CheckResult(namedtuple("CheckResult", "name cases max_deviation tolerance")):
    """One suite's line: it passes if its worst deviation is within tolerance."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance


def _worst(devs: list[float]) -> float:
    """The largest deviation, or nan if any is nan, so that a nan fails."""
    return math.nan if any(map(math.isnan, devs)) else max(devs)


def _max_diff(a: clifford.Matrix4C, b: clifford.Matrix4C) -> float:
    return _worst([abs(x - y) for ra, rb in zip(a, b) for x, y in zip(ra, rb)])


def _rel_dev(actual: clifford.Matrix4C, expected: clifford.Matrix4C) -> float:
    scale = max(1.0, *(abs(x) for row in expected for x in row))
    return _max_diff(actual, expected) / scale


def g_matrix_from_worldline(
    tau: float, tau_p: float, params: correlators.WorldlineParams
) -> clifford.Matrix4C:
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
    g0, g1 = clifford.gamma_matrix(0), clifford.gamma_matrix(1)
    two_point = clifford.combine(1j * dG_dt, g0, 1j * dG_dx, g1)

    # The transport matrix at tau is boost_matrix(a, -tau).
    boost, mul = clifford.boost_matrix, clifford.matmul
    return mul(mul(boost(a, -tau), two_point), boost(a, tau_p_c))


def _trace_grid():
    """(params, dtau) for a in {0.5, 1, 2}, epsilon in {1e-3, 1e-4} and 60
    dtau evenly spaced from 0.05/a to 20/a."""
    for a in (0.5, 1.0, 2.0):
        start, stop = 0.05 / a, 20.0 / a
        step = (stop - start) / 59
        for eps in (1e-3, 1e-4):
            params = correlators.WorldlineParams(accel=a, epsilon=eps)
            for i in range(60):
                yield params, (start + i * step if i < 59 else stop)


def check_gamma_algebra() -> CheckResult:
    """{gamma^mu, gamma^nu} = 2 g^{mu nu} I, exactly."""
    devs = []
    for mu in range(4):
        for nu in range(4):
            lhs = clifford.anticommutator(
                clifford.gamma_matrix(mu), clifford.gamma_matrix(nu)
            )
            rhs = clifford.scale(2.0 * clifford.METRIC[mu][nu], clifford.IDENTITY4)
            devs.append(_max_diff(lhs, rhs))
    return CheckResult("gamma anticommutators", len(devs), _worst(devs), 0.0)


def check_boost_group() -> CheckResult:
    """Composition, inverse, gamma^0 conjugation, and squared-unitarity."""
    a = 1.0
    taus = [t - 5.0 for t in range(11)]
    boost = {t: clifford.boost_matrix(a, t) for t in taus}
    g0 = clifford.gamma_matrix(0)
    mul = clifford.matmul
    devs = []
    for t1 in taus:
        s1 = boost[t1]
        g0s1 = mul(g0, s1)
        devs += [
            _rel_dev(mul(s1, boost[-t1]), clifford.IDENTITY4),
            _rel_dev(g0s1, mul(boost[-t1], g0)),
            _rel_dev(mul(g0s1, g0s1), clifford.IDENTITY4),
        ]
        for t2 in taus:
            devs.append(
                _rel_dev(mul(s1, boost[t2]), clifford.boost_matrix(a, t1 + t2))
            )
    return CheckResult("boost group identities", len(devs), _worst(devs), 1e-13)


def check_two_point_vs_trace() -> CheckResult:
    """Tr[g g] of the transported two-point matrix at tau, tau' = T +- dtau/2
    with aT = 1, where dx is not ~epsilon, vs the trace pair at dtau."""
    devs = []
    for params, dtau in _trace_grid():
        t = 1.0 / params.accel
        g = g_matrix_from_worldline(t + 0.5 * dtau, t - 0.5 * dtau, params)
        tr = sum([x * y for row, col in zip(g, zip(*g)) for x, y in zip(row, col)])
        expected = correlators.trace_pair(dtau, params)
        devs.append(abs(tr - expected) / abs(expected))
    return CheckResult("two-point matrix vs trace", len(devs), _worst(devs), 1e-10)


def run_all() -> list[CheckResult]:
    return [
        check_gamma_algebra(),
        check_boost_group(),
        check_two_point_vs_trace(),
    ]
