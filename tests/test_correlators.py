"""Worldline geometry, Wightman functions, and statistical functions."""
import cmath
import math

import numpy as np
import pytest

from diracrates import correlators as co
from diracrates.correlators import SingularIntervalError, WorldlineParams

PI2 = math.pi**2
PI4 = math.pi**4


class TestWorldlineParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            WorldlineParams(accel=0.0)
        for accel in (math.nan, math.inf):
            with pytest.raises(
                ValueError, match=rf"^accel must be positive and finite, got {accel}$"
            ):
                WorldlineParams(accel)
        # epsilon is a contour shift, valid short of the next pole at pi.
        for eps in (0.2, 3.0):
            assert WorldlineParams(accel=1.0, epsilon=eps).epsilon == eps
        for eps in (0.0, math.pi, math.nan):
            with pytest.raises(ValueError):
                WorldlineParams(accel=1.0, epsilon=eps)


class TestIntervalZ:
    def test_zero_dtau(self):
        p = WorldlineParams(accel=1.0, epsilon=0.01)
        z = co.interval_z(0.0, p, "minus")
        assert z == pytest.approx(2 * math.sin(0.01), abs=1e-15)
        assert abs(z.imag) < 1e-15

    def test_reflection_conjugates(self):
        # sinh oddness: z(-dtau) on the minus branch is the conjugate of
        # z(dtau) on the same branch.
        p = WorldlineParams(accel=1.0, epsilon=1e-3)
        z1 = co.interval_z(0.5, p, "minus")
        z2 = co.interval_z(-0.5, p, "minus")
        assert z2 == pytest.approx(z1.conjugate(), rel=1e-14)

    def test_vanishing_regulator_limit(self):
        p = WorldlineParams(accel=1.0, epsilon=1e-12)
        z = co.interval_z(2 * math.pi, p, "minus")
        assert z == pytest.approx(2j * math.sinh(math.pi), rel=1e-9)

    def test_branches_conjugate(self):
        p = WorldlineParams(accel=1.5, epsilon=1e-3)
        zm = co.interval_z(0.7, p, "minus")
        zp = co.interval_z(0.7, p, "plus")
        assert zp == pytest.approx(-zm.conjugate(), rel=1e-14)

    def test_returns_complex(self):
        p = WorldlineParams(accel=1.5, epsilon=0.4)
        for branch in ("minus", "plus"):
            for dtau in (0.0, -8.0, np.float64(3.5)):
                assert type(co.interval_z(dtau, p, branch)) is complex


class TestWightman:
    def test_values(self):
        assert co.wightman_massless(1j) == pytest.approx(-1 / (4 * PI2))
        assert co.wightman_massless(1.0) == pytest.approx(1 / (4 * PI2))

    def test_substituted_interval(self):
        p = WorldlineParams(accel=1.0, epsilon=1e-3)
        dtau = 0.8
        z = co.interval_z(dtau, p, "minus")
        expected = -1.0 / (16 * PI2 * cmath.sinh(0.5 * dtau - 1e-3j) ** 2)
        assert co.wightman_massless(z) == pytest.approx(expected, rel=1e-13)

    def test_singularity(self):
        with pytest.raises(SingularIntervalError):
            co.wightman_massless(0.0)


class TestWightmanDerivative:
    def test_value_at_one(self):
        assert co.dwightman_dz(1.0) == pytest.approx(-1 / (2 * PI2))

    def test_value_at_i(self):
        assert co.dwightman_dz(1j) == pytest.approx(-1 / (2 * PI2 * (1j) ** 3))

    def test_finite_difference(self):
        z, h = 1 + 0.5j, 1e-5
        fd = (co.wightman_massless(z + h) - co.wightman_massless(z - h)) / (2 * h)
        assert co.dwightman_dz(z) == pytest.approx(fd, abs=1e-8)

    def test_singularity(self):
        with pytest.raises(SingularIntervalError):
            co.dwightman_dz(0.0)

    def test_singularity_at_complex_zero(self):
        for z in (0j, complex(-0.0, 0.0)):
            with pytest.raises(SingularIntervalError):
                co.dwightman_dz(z)
            with pytest.raises(SingularIntervalError):
                co.wightman_massless(z)


class TestGMatrix:
    def test_only_gamma0_component(self):
        from diracrates import clifford

        p = WorldlineParams(accel=1.0, epsilon=1e-4)
        g = np.array(co.g_matrix(1.0, p))
        scalar = g[0, 0]
        np.testing.assert_allclose(g, scalar * np.array(clifford.gamma_matrix(0)))

    def test_trace_against_derivative(self):
        from diracrates import clifford

        p = WorldlineParams(accel=1.0, epsilon=1e-4)
        g = np.array(co.g_matrix(1.0, p))
        d = co.dwightman_dz(co.interval_z(1.0, p, "minus"))
        assert np.trace(np.array(clifford.gamma_matrix(0)) @ g) == pytest.approx(
            -4 * d, rel=1e-13
        )

    def test_stationarity(self):
        p = WorldlineParams(accel=1.0, epsilon=1e-4)
        g_shifted = np.array(co.g_matrix_from_worldline(3.0, 2.0, p))
        g_base = np.array(co.g_matrix_from_worldline(1.0, 0.0, p))
        g_closed = np.array(co.g_matrix(1.0, p))
        scale = np.max(np.abs(g_closed))
        assert np.max(np.abs(g_shifted - g_base)) / scale < 1e-12
        assert np.max(np.abs(g_shifted - g_closed)) / scale < 1e-12


class TestTracePair:
    def test_closed_form(self):
        p = WorldlineParams(accel=1.5, epsilon=1e-4)
        got = co.trace_pair(0.8, p, "minus")
        expected = -(1.5**6) / (
            64 * PI4 * cmath.sinh(0.75 * 0.8 - 1e-4j) ** 6
        )
        assert got == pytest.approx(expected, rel=1e-12)

    def test_returns_complex(self):
        p = WorldlineParams(accel=0.7, epsilon=2.0)
        for branch in ("minus", "plus"):
            for dtau in (0.0, -30.0, np.float64(12.5)):
                assert type(co.trace_pair(dtau, p, branch)) is complex

    def test_branch_swap_conjugates(self):
        p = WorldlineParams(accel=1.0, epsilon=1e-3)
        assert co.trace_pair(0.6, p, "plus") == pytest.approx(
            co.trace_pair(0.6, p, "minus").conjugate(), rel=1e-14
        )

    def test_asymptotic_decay(self):
        a = 1.0
        p = WorldlineParams(accel=a, epsilon=1e-4)
        dtau = 20.0 / a
        ratio = abs(co.trace_pair(dtau, p, "minus")) / (
            a**6 / PI4 * math.exp(-3 * a * dtau)
        )
        assert ratio == pytest.approx(1.0, rel=0.01)


class TestStatFunctions:
    def test_parity(self):
        p = WorldlineParams(accel=1.0, epsilon=1e-3)
        fwd = co.stat_functions_closed(0.6, p)
        bwd = co.stat_functions_closed(-0.6, p)
        assert fwd.c_f == pytest.approx(bwd.c_f, rel=1e-13)
        assert fwd.chi_f == pytest.approx(-bwd.chi_f, rel=1e-13)

    def test_small_regulator_limit(self):
        p = WorldlineParams(accel=1.0, epsilon=1e-9)
        pair = co.stat_functions_closed(math.pi, p)
        expected = -1 / (64 * PI4) * math.sinh(math.pi / 2) ** -6
        assert pair.c_f.real == pytest.approx(expected, rel=1e-6)

    def test_trace_route_equivalence(self):
        for a in (0.5, 1.0, 2.0):
            for eps in (1e-3, 1e-4):
                p = WorldlineParams(accel=a, epsilon=eps)
                for dtau in np.linspace(0.05 / a, 20.0 / a, 25):
                    pair = co.stat_functions_closed(dtau, p)
                    tm = co.trace_pair(dtau, p, "minus")
                    tp = co.trace_pair(dtau, p, "plus")
                    scale = max(abs(pair.c_f), abs(pair.chi_f))
                    assert abs(0.5 * (tm + tp) - pair.c_f) / scale < 1e-10
                    assert abs(0.5 * (tm - tp) - pair.chi_f) / scale < 1e-10

    def test_symmetry_classes_shrink_with_regulator(self):
        dtau = 0.9
        prev_imag, prev_real = None, None
        for eps in (4e-3, 2e-3, 1e-3):
            p = WorldlineParams(accel=1.0, epsilon=eps)
            pair = co.stat_functions_closed(dtau, p)
            floor = 1e-13 * abs(pair.c_f)
            if prev_imag is not None:
                assert abs(pair.c_f.imag) <= max(0.55 * prev_imag, floor)
                assert abs(pair.chi_f.real) <= max(0.55 * prev_real, floor)
            prev_imag = abs(pair.c_f.imag)
            prev_real = abs(pair.chi_f.real)

    def test_exponential_envelope(self):
        for a in (0.7, 1.0, 2.0):
            p = WorldlineParams(accel=a, epsilon=1e-4)
            for adt in np.linspace(5.0, 12.0, 8):
                c = abs(co.stat_functions_closed(adt / a, p).c_f)
                fitted = c * math.exp(3 * adt)
                assert fitted == pytest.approx(a**6 / PI4, rel=0.05)

    def test_returns_complex(self):
        p = WorldlineParams(accel=0.7, epsilon=2.0)
        for dtau in (0.0, -30.0, np.float64(12.5)):
            pair = co.stat_functions_closed(dtau, p)
            assert type(pair.c_f) is complex and type(pair.chi_f) is complex


NON_FINITE = [math.nan, math.inf, -math.inf, complex(1.0, math.nan),
              complex(-math.inf, 0.0), np.float64(math.inf)]


class TestNonFiniteTime:
    """A nan or infinite time is refused with its name, not turned into nan."""

    @pytest.mark.parametrize("dtau", NON_FINITE)
    @pytest.mark.parametrize("branch", ["minus", "plus"])
    def test_interval_and_trace(self, dtau, branch):
        p = WorldlineParams(1.0)
        for f in (co.interval_z, co.trace_pair):
            with pytest.raises(ValueError, match=r"^dtau must be finite, got "):
                f(dtau, p, branch)

    @pytest.mark.parametrize("dtau", NON_FINITE)
    def test_stat_functions(self, dtau):
        with pytest.raises(ValueError, match=r"^dtau must be finite, got "):
            co.stat_functions_closed(dtau, WorldlineParams(1.0))

    @pytest.mark.parametrize("t", NON_FINITE)
    def test_g_matrix_from_worldline(self, t):
        p = WorldlineParams(1.0)
        with pytest.raises(ValueError, match=r"^tau must be finite, got "):
            co.g_matrix_from_worldline(t, 0.0, p)
        with pytest.raises(ValueError, match=r"^tau_p must be finite, got "):
            co.g_matrix_from_worldline(0.5, t, p)
        # Both bad: the first time is named.
        with pytest.raises(ValueError, match=r"^tau must be finite, got "):
            co.g_matrix_from_worldline(t, t, p)

    def test_complex_times_still_accepted(self):
        # The oracle's lines and the regulated matrix route pass complex times.
        p = WorldlineParams(1.0, 0.3)
        assert cmath.isfinite(co.trace_pair(complex(0.4, -0.2), p))
        assert cmath.isfinite(co.interval_z(complex(0.4, -0.2), p, "plus"))
