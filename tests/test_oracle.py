"""Quadrature oracle: shifted-line grid, convergence, and closed-form agreement."""
import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracrates import oracle, rates
from diracrates.atom import TwoLevelAtom
from diracrates.oracle import ConvergenceError

QUADRATURE_KEYS = {
    "s", "h", "nodes", "Y", "error_estimate_vf", "error_estimate_cross"
}


class TestShiftedLine:
    def test_default_grid(self):
        for a in (1e-3, 0.1, 1.0, 100.0):
            _, _, grid = oracle._line_sums(TwoLevelAtom(1.0, "excited"), a)
            assert oracle._line_sums(TwoLevelAtom(1.0, "ground"), a)[2] == grid
            assert grid["s"] == min(math.pi / 2, 3 * a)
            assert grid["h"] == pytest.approx(0.1 * min(grid["s"], a / 2))
            assert grid["nodes"] % 4 == 1

    def test_difference_without_cancellation(self):
        # At a >> omega the two integrals agree to ~log10(a/omega) digits;
        # the difference must still match the closed form.
        rep = oracle.verify_rates(TwoLevelAtom(1.0, "ground"), 1e48, 1.0)
        assert rep.rel_err_cross < 1e-12

    def test_node_limit(self):
        with pytest.raises(ConvergenceError) as err:
            oracle._line_sums(TwoLevelAtom(1.0, "excited"), 1e-5)
        assert err.value.diagnostics["nodes"] > oracle._MAX_NODES

    @pytest.mark.parametrize("a", [5e-324, 1e-320])
    def test_node_limit_subnormal_accel(self, a):
        # h underflows to 0 (5e-324) or Y/2h overflows (1e-320): the count
        # has no float value and is reported as None.
        with pytest.raises(ConvergenceError, match="above the limit") as err:
            oracle.verify_rates(TwoLevelAtom(1.0, "ground"), a, 1.0)
        assert err.value.diagnostics["nodes"] is None
        assert set(err.value.diagnostics) == {"s", "h", "nodes", "Y"}


class TestVfIntegral:
    def test_matches_closed_form(self):
        got = oracle.verify_rates(TwoLevelAtom(1.0, "excited"), 1.0, 1.0).numeric_vf
        expected = rates.rate_total(TwoLevelAtom(1.0, "excited"), 1.0, 1.0).vf
        assert got == pytest.approx(expected, rel=1e-9, abs=0)

    def test_ratio_across_parameters(self):
        num_ratio = (
            oracle.verify_rates(TwoLevelAtom(1.0, "excited"), 1.0, 1.0).numeric_vf
            / oracle.verify_rates(TwoLevelAtom(2.0, "excited"), 1.0, 1.0).numeric_vf
        )
        closed_ratio = (
            rates.rate_total(TwoLevelAtom(1.0, "excited"), 1.0, 1.0).vf
            / rates.rate_total(TwoLevelAtom(2.0, "excited"), 1.0, 1.0).vf
        )
        assert num_ratio == pytest.approx(closed_ratio, rel=1e-9, abs=0)

    def test_truncation_point_is_quiet(self):
        for a in (1e-3, 1.0, 1e6):
            _, _, grid = oracle._line_sums(TwoLevelAtom(1.0, "excited"), a)
            s, u_max = grid["s"], (grid["nodes"] // 2) * grid["h"]
            assert u_max >= grid["Y"]
            tail = abs(cmath.sinh(u_max - 1j * s)) ** -6
            peak = abs(cmath.sinh(-1j * s)) ** -6
            assert tail < 1e-16 * peak


class TestCrossIntegral:
    def test_matches_closed_form(self):
        got = oracle.verify_rates(TwoLevelAtom(1.0, "excited"), 1.0, 1.0).numeric_cross
        expected = rates.rate_total(TwoLevelAtom(1.0, "excited"), 1.0, 1.0).cross
        assert got == pytest.approx(expected, rel=1e-9, abs=0)

    def test_imaginary_residue_small(self):
        # I(nu) is real: the integrand at -tau is the conjugate of that at tau.
        for a in (1e-3, 1.0, 1e6):
            t_h, _, _ = oracle._line_sums(TwoLevelAtom(1.0, "excited"), a)
            assert all(abs(t_h.imag) < 1e-12 * abs(t_h.real))

    def test_negative_and_level_independent(self):
        down = oracle.verify_rates(TwoLevelAtom(1.0, "excited"), 1.0, 1.0)
        up = oracle.verify_rates(TwoLevelAtom(1.0, "ground"), 1.0, 1.0)
        assert down.numeric_cross < 0
        assert up.numeric_cross == pytest.approx(down.numeric_cross, rel=1e-12, abs=0)


class TestVerifyRates:
    @pytest.mark.parametrize("a", [0.1, 1.0, 10.0, 100.0, 1e4, 1e6])
    @pytest.mark.parametrize("level", ["ground", "excited"])
    def test_passes_default_grid_points(self, a, level):
        rep = oracle.verify_rates(TwoLevelAtom(1.0, level), a, 1.0)
        assert rep.passed
        assert rep.rel_err_vf < 1e-9
        assert rep.rel_err_cross < 1e-9
        assert set(rep.quadrature) == QUADRATURE_KEYS

    def test_tol_validation(self):
        for tol in (0.0, -1e-3, math.nan, math.inf):
            with pytest.raises(ValueError):
                oracle.verify_rates(TwoLevelAtom(1.0, "ground"), 1.0, 1.0, tol=tol)

    @pytest.mark.parametrize("a, mu", [(0.0, 1.0), (math.nan, 1.0),
                                       (math.inf, 1.0), (1.0, math.nan)])
    def test_invalid_inputs(self, a, mu):
        with pytest.raises(ValueError):
            oracle.verify_rates(TwoLevelAtom(1.0, "ground"), a, mu)

    def test_unreachable_tolerance_raises(self):
        # At a/omega = 10 the 2h sum is off by ~1e-8; no tolerance below
        # that can be met.
        with pytest.raises(ConvergenceError) as err:
            oracle.verify_rates(TwoLevelAtom(1.0, "ground"), 10.0, 1.0, tol=1e-12)
        assert "error estimate" in str(err.value)
        assert set(err.value.diagnostics) == QUADRATURE_KEYS

    def test_node_halving_stability(self):
        # The h-step value lies within |T_h - T_2h| of the closed form.
        rep = oracle.verify_rates(TwoLevelAtom(1.0, "ground"), 10.0, 1.0)
        q = rep.quadrature
        assert abs(rep.numeric_vf - rep.closed_vf) < q["error_estimate_vf"]
        assert abs(rep.numeric_cross - rep.closed_cross) < q["error_estimate_cross"]

    def test_thermal_structure(self):
        # Numeric vf divided by the inertial-scale magnitude reproduces
        # the (1 + 2n) occupation structure at a = omega0.
        omega0 = a = mu = 1.0
        numeric = oracle.verify_rates(TwoLevelAtom(omega0, "excited"), a, mu).numeric_vf
        base = -(mu**2 / (480 * math.pi**3)) * rates.polynomial_factor(omega0, a)
        n = rates.planck_number(omega0, a)
        assert numeric / base == pytest.approx(1 + 2 * n, rel=1e-9, abs=0)

    def test_coupling_scaling(self):
        atom = TwoLevelAtom(1.0, "excited")
        assert oracle.verify_rates(atom, 1.0, 2.0).numeric_vf == pytest.approx(
            4 * oracle.verify_rates(atom, 1.0, 1.0).numeric_vf, rel=1e-12, abs=0
        )

    @settings(max_examples=40, deadline=None, database=None)
    @given(
        log_ratio=st.floats(min_value=-3.0, max_value=6.0),
        log_omega0=st.floats(min_value=-1.0, max_value=1.0),
        level=st.sampled_from(["ground", "excited"]),
    )
    def test_matches_closed_forms_log_uniform(self, log_ratio, log_omega0, level):
        omega0 = 10.0**log_omega0
        rep = oracle.verify_rates(
            TwoLevelAtom(omega0, level), omega0 * 10.0**log_ratio, 1.0
        )
        assert rep.rel_err_vf < 1e-9
        assert rep.rel_err_cross < 1e-9
