"""Worldline parameters, the transported two-point matrix, and the trace."""
import cmath
import math

import numpy as np
import pytest

from diracrates import correlators as co
from diracrates.correlators import WorldlineParams
from diracrates.selfcheck import (SingularIntervalError, _trace_grid,
                                  g_matrix_from_worldline)

PI2 = math.pi**2
PI4 = math.pi**4


def _interval_z(dtau, p):
    """The regularized interval z = i (2/a) sinh(a dtau/2 - i epsilon)."""
    return 2j / p.accel * cmath.sinh(0.5 * p.accel * dtau - 1j * p.epsilon)


def _dwightman_dz(z):
    """d/dz of the massless Wightman function 1/(4 pi^2 z^2)."""
    return -1 / (2 * PI2 * z**3)


class TestWorldlineParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            WorldlineParams(accel=0.0, epsilon=1e-4)
        for accel in (math.nan, math.inf):
            with pytest.raises(
                ValueError, match=rf"^accel must be positive and finite, got {accel}$"
            ):
                WorldlineParams(accel, 1e-4)
        # epsilon is a contour shift, valid short of the next pole at pi.
        for eps in (0.2, 3.0):
            assert WorldlineParams(accel=1.0, epsilon=eps).epsilon == eps
        for eps in (0.0, math.pi, math.nan):
            with pytest.raises(ValueError):
                WorldlineParams(accel=1.0, epsilon=eps)

    def test_replace_and_make_validate(self):
        # namedtuple's own _make, which _replace calls, builds the tuple
        # without __new__; both must go through the constructor's checks.
        with pytest.raises(ValueError, match=r"^epsilon must lie in \(0, pi\), got 5.0$"):
            WorldlineParams(2.0, 1.0)._replace(epsilon=5.0)
        with pytest.raises(ValueError, match=r"^accel must be positive and finite, got nan$"):
            WorldlineParams._make((math.nan, -1.0))
        changed = WorldlineParams(2.0, 1.0)._replace(epsilon=0.5)
        assert type(changed) is WorldlineParams and changed == (2.0, 0.5)
        with pytest.raises(TypeError):
            WorldlineParams._make((1.0, 0.5, 0.5))

    def test_epsilon_required(self):
        with pytest.raises(TypeError, match="epsilon"):
            WorldlineParams(accel=1.0)


class TestGMatrix:
    def test_only_gamma0_component(self):
        from diracrates import clifford

        p = WorldlineParams(accel=1.0, epsilon=1e-4)
        g = np.array(g_matrix_from_worldline(1.0, 0.0, p))
        scalar = g[0, 0]
        np.testing.assert_allclose(
            g, scalar * np.array(clifford.gamma_matrix(0)), atol=1e-13 * abs(scalar)
        )

    def test_trace_against_derivative(self):
        from diracrates import clifford

        p = WorldlineParams(accel=1.0, epsilon=1e-4)
        g = np.array(g_matrix_from_worldline(1.0, 0.0, p))
        d = _dwightman_dz(_interval_z(1.0, p))
        assert np.trace(np.array(clifford.gamma_matrix(0)) @ g) == pytest.approx(
            -4 * d, rel=1e-13
        )

    def test_stationarity(self):
        from diracrates import clifford

        p = WorldlineParams(accel=1.0, epsilon=1e-4)
        g_shifted = np.array(g_matrix_from_worldline(3.0, 2.0, p))
        g_base = np.array(g_matrix_from_worldline(1.0, 0.0, p))
        # -gamma^0 dG/dz, G = 1/(4 pi^2 z^2), at z(1.0)
        g_closed = -_dwightman_dz(_interval_z(1.0, p)) * np.array(
            clifford.gamma_matrix(0)
        )
        scale = np.max(np.abs(g_closed))
        assert np.max(np.abs(g_shifted - g_base)) / scale < 1e-12
        assert np.max(np.abs(g_shifted - g_closed)) / scale < 1e-12

    @pytest.mark.parametrize("eps", [1e-4, 0.01, 0.3, math.pi / 6, 1.0, math.pi / 2])
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_trace_on_oracle_contour(self, a, eps):
        # The oracle evaluates trace_pair at epsilon = s in (0, pi/2] and from
        # dtau = 0; selfcheck's two-point suite only at epsilon <= 1e-3 and
        # dtau >= 0.05/a. Tr[g g] at T +- dtau/2 with aT = 1, on the suite's
        # dtau and 0, must give the trace there too, to the suite's tolerance.
        dtaus = {0.0} | {dtau for p, dtau in _trace_grid() if p.accel == a}
        assert len(dtaus) == 61
        p, t = WorldlineParams(a, eps), 1.0 / a
        for dtau in sorted(dtaus):
            g = np.array(g_matrix_from_worldline(t + 0.5 * dtau, t - 0.5 * dtau, p))
            assert np.trace(g @ g) == pytest.approx(co.trace_pair(dtau, p),
                                                    rel=1e-10, abs=0)


class TestTracePair:
    def test_closed_form(self):
        p = WorldlineParams(accel=1.5, epsilon=1e-4)
        got = co.trace_pair(0.8, p)
        expected = -(1.5**6) / (
            64 * PI4 * cmath.sinh(0.75 * 0.8 - 1e-4j) ** 6
        )
        assert got == pytest.approx(expected, rel=1e-12)

    def test_returns_complex(self):
        p = WorldlineParams(accel=0.7, epsilon=2.0)
        for dtau in (0.0, -30.0, np.float64(12.5)):
            assert type(co.trace_pair(dtau, p)) is complex

    def test_asymptotic_decay(self):
        a = 1.0
        p = WorldlineParams(accel=a, epsilon=1e-4)
        dtau = 20.0 / a
        ratio = abs(co.trace_pair(dtau, p)) / (
            a**6 / PI4 * math.exp(-3 * a * dtau)
        )
        assert ratio == pytest.approx(1.0, rel=0.01)


class TestStatFunctions:
    """For real dtau the trace's real part is the symmetric statistical
    function C^F and i times its imaginary part the antisymmetric one, chi^F."""

    def test_parity(self):
        p = WorldlineParams(accel=1.0, epsilon=1e-3)
        fwd = co.trace_pair(0.6, p)
        bwd = co.trace_pair(-0.6, p)
        assert fwd.real == pytest.approx(bwd.real, rel=1e-13)
        assert fwd.imag == pytest.approx(-bwd.imag, rel=1e-13)

    def test_small_regulator_limit(self):
        p = WorldlineParams(accel=1.0, epsilon=1e-9)
        c_f = co.trace_pair(math.pi, p).real
        expected = -1 / (64 * PI4) * math.sinh(math.pi / 2) ** -6
        assert c_f == pytest.approx(expected, rel=1e-6)

    def test_symmetry_classes_shrink_with_regulator(self):
        # Off the light cone the massless field's commutator vanishes:
        # chi^F at dtau != 0 is O(epsilon), and halves with it.
        dtau = 0.9
        prev = None
        for eps in (4e-3, 2e-3, 1e-3):
            chi_f = co.trace_pair(dtau, WorldlineParams(accel=1.0, epsilon=eps)).imag
            if prev is not None:
                assert abs(chi_f) <= 0.55 * abs(prev)
            prev = chi_f

    def test_exponential_envelope(self):
        for a in (0.7, 1.0, 2.0):
            p = WorldlineParams(accel=a, epsilon=1e-4)
            for adt in np.linspace(5.0, 12.0, 8):
                c = abs(co.trace_pair(adt / a, p).real)
                fitted = c * math.exp(3 * adt)
                assert fitted == pytest.approx(a**6 / PI4, rel=0.05)

    def test_returns_complex(self):
        p = WorldlineParams(accel=0.7, epsilon=2.0)
        for dtau in (0.0, -30.0, np.float64(12.5)):
            tp = co.trace_pair(dtau, p)
            c_f, chi_f = tp.real, 1j * tp.imag
            assert type(c_f) is float and type(chi_f) is complex


NON_FINITE = [math.nan, math.inf, -math.inf, complex(1.0, math.nan),
              complex(-math.inf, 0.0), np.float64(math.inf)]


class TestNonFiniteTime:
    """A nan or infinite time is refused with its name, not turned into nan."""

    @pytest.mark.parametrize("dtau", NON_FINITE)
    def test_interval_and_trace(self, dtau):
        p = WorldlineParams(1.0, 1e-4)
        with pytest.raises(ValueError, match=r"^dtau must be finite, got "):
            co.trace_pair(dtau, p)

    @pytest.mark.parametrize("t", NON_FINITE)
    def test_g_matrix_from_worldline(self, t):
        p = WorldlineParams(1.0, 1e-4)
        with pytest.raises(ValueError, match=r"^tau must be finite, got "):
            g_matrix_from_worldline(t, 0.0, p)
        with pytest.raises(ValueError, match=r"^tau_p must be finite, got "):
            g_matrix_from_worldline(0.5, t, p)
        # Both bad: the first time is named.
        with pytest.raises(ValueError, match=r"^tau must be finite, got "):
            g_matrix_from_worldline(t, t, p)

    def test_complex_times_still_accepted(self):
        # The oracle's lines and the regulated matrix route pass complex times.
        p = WorldlineParams(1.0, 0.3)
        assert cmath.isfinite(co.trace_pair(complex(0.4, -0.2), p))


class TestSingularPoints:
    def test_raises(self):
        # The shift 2 i epsilon / a of the earlier time rounds away at
        # epsilon = 1e-300, so the two trajectory points coincide.
        p = WorldlineParams(1.0, 1e-300)
        with pytest.raises(SingularIntervalError, match="^coincident trajectory"):
            g_matrix_from_worldline(0.3, 0.3, p)
        # sinh(a dtau/2 - i epsilon)^6 underflows to 0 at the light cone ...
        with pytest.raises(ZeroDivisionError):
            co.trace_pair(0.0, p)
        # ... and leaves float range at a dtau/2 = 1000.
        with pytest.raises(OverflowError):
            co.trace_pair(2000.0, WorldlineParams(1.0, 1e-4))
