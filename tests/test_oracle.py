"""Quadrature oracle: shifted-line grid, convergence, and closed-form agreement."""
import cmath
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracrates import correlators, oracle, rates
from diracrates.atom import TwoLevelAtom, susceptibility_c, susceptibility_chi
from diracrates.oracle import ConvergenceError

QUADRATURE_KEYS = {
    "s", "h", "nodes", "Y", "error_estimate_vf", "error_estimate_cross"
}


class TestShiftedLine:
    def test_default_grid(self):
        for a in (1e-3, 0.1, 1.0, 100.0):
            _, _, grid = oracle._line_sums(1.0, a)
            assert grid["s"] == min(math.pi / 2, 3 * a)
            assert grid["h"] == pytest.approx(0.1 * grid["s"])
            assert grid["nodes"] % 4 == 1

    def test_difference_without_cancellation(self):
        # At a >> omega the two integrals agree to ~log10(a/omega) digits;
        # the difference must still match the closed form.
        rep = oracle.verify_rates(1.0, 1e48, 1.0, ["ground"], tol=1e-3)[0]
        assert rep.rel_err_cross < 1e-12

    @pytest.mark.parametrize("omega0", [0.37, 1.0, 8.0])
    def test_levels_mirror(self, omega0):
        # The levels differ only in the sign of omega_bd: the ground level's
        # own line has the same vf sums and cross sums of the opposite sign,
        # bit for bit, so the oracle integrates one line for both.
        for ratio in (1e-3, 1e-2, 0.1, 1.0, 10.0, 1e3, 1e6):
            a = ratio * omega0
            g_h, g_2h = ground_line_sums(omega0, a)
            e_h, e_2h, _ = oracle._line_sums(omega0, a)
            for (g_vf, g_cross), (e_vf, e_cross) in ((g_h, e_h), (g_2h, e_2h)):
                assert g_vf == e_vf
                assert g_cross == -e_cross

    # [vf, cross] at steps h and 2h on lines of thousands of nodes, where
    # each parity sum takes over a thousand terms.
    @pytest.mark.parametrize("omega0, a, nodes, t_h, t_2h", [
        (1.0, 1e-3, 48_117, [2150113046066.7102, 2150113046066.7104],
         [2150113046593.8015, 2150113046460.6028]),
        (0.37, 3.7e-3, 4_813, [21511774.32698499, 21511774.32698499],
         [21511774.332255978, 21511774.33092396]),
    ])
    def test_sums_pinned_below_pi_over_6(self, omega0, a, nodes, t_h, t_2h):
        got_h, got_2h, grid = oracle._line_sums(omega0, a)
        assert grid["nodes"] == nodes
        assert (got_h, got_2h) == (t_h, t_2h)

    def test_node_limit(self):
        with pytest.raises(ConvergenceError) as err:
            oracle._line_sums(1.0, 1e-5)
        assert err.value.diagnostics["nodes"] > oracle._MAX_NODES

    @pytest.mark.parametrize("a, count", [(4e-5, "1.2e+06"), (1e-300, "4.81e+301")])
    def test_node_limit_message(self, a, count):
        # One line: the count to 3 significant digits, not its 305 digits at
        # 1e-300; the diagnostics keep the exact integer.
        with pytest.raises(ConvergenceError) as err:
            oracle.verify_rates(1.0, a, 1.0, ["ground"], tol=1e-3)
        assert str(err.value) == (
            f"quadrature needs {count} nodes, above the limit 1000000"
        )
        nodes = err.value.diagnostics["nodes"]
        assert isinstance(nodes, int) and f"{nodes:.3g}" == count

    @pytest.mark.parametrize("a", [5e-324, 1e-320])
    def test_node_limit_subnormal_accel(self, a):
        # h underflows to 0 (5e-324) or Y/2h overflows (1e-320): the count
        # has no float value and is reported as None.
        with pytest.raises(ConvergenceError, match="above the limit") as err:
            oracle.verify_rates(1.0, a, 1.0, ["ground"], tol=1e-3)
        assert err.value.diagnostics["nodes"] is None
        assert set(err.value.diagnostics) == {"s", "h", "nodes", "Y"}


def verify_or_error(omega0, a, mu, levels, tol):
    """verify_rates' reports, or the type, message and diagnostics of its error."""
    try:
        return oracle.verify_rates(omega0, a, mu, levels, tol=tol)
    except (ConvergenceError, OverflowError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "diagnostics", None)


def ground_line_sums(omega0, a):
    """The [vf, cross] sums at steps h and 2h of the ground level's own line,
    at w = -2 omega0 / a: the oracle's node loop as it was when each level
    integrated its own line."""
    s = min(math.pi / 2, 3.0 * a / omega0)
    h = 0.1 * s
    n = math.ceil(oracle._Y / (2.0 * h))
    line = correlators.WorldlineParams(2.0, epsilon=s)
    w = -2.0 * omega0 / a

    def sums(ks):
        vf, cross = [], []
        for k in ks:
            u = k * h
            g = correlators.trace_pair(u, line)
            z = u - 1j * s
            vf.append((g * susceptibility_c(w, z)).real)
            cross.append((g * susceptibility_chi(w, z)).real)
        return [math.fsum(vf), math.fsum(cross)]

    zero = sums(range(1))
    even, odd = sums(range(2, 2 * n + 1, 2)), sums(range(1, 2 * n, 2))
    t_h = [h * (z + 2.0 * (e + o)) for z, e, o in zip(zero, even, odd)]
    t_2h = [2.0 * h * (z + 2.0 * e) for z, e in zip(zero, even)]
    return t_h, t_2h


def y_of_s(s):
    """The former cut-off, where 64 e^{-6|u|} falls below _TAIL sin^6 s:
    beyond the oracle's one Y for s < pi/2, and equal to it at pi/2."""
    return (math.log(64.0 / oracle._TAIL) - 6.0 * math.log(math.sin(s))) / 6.0


def sums_cut_at_y_of_s(omega0, a):
    """The oracle's [vf, cross] sums at steps h and 2h; the same on the grid
    cut at y_of_s, as the oracle's sums plus the nodes between the two
    cut-offs; and the number of those extra nodes."""
    t_h, t_2h, grid = oracle._line_sums(omega0, a)
    s, h, nodes = grid["s"], grid["h"], grid["nodes"]
    n, n_former = nodes // 4, math.ceil(y_of_s(s) / (2.0 * h))
    line = correlators.WorldlineParams(2.0, epsilon=s)
    w = 2.0 * omega0 / a
    # extra[parity][integrand]: Re f at the nodes beyond the one Y
    extra = [[[], []], [[], []]]
    for k in range(2 * n + 1, 2 * n_former + 1):
        u = k * h
        g, z = correlators.trace_pair(u, line), u - 1j * s
        extra[k % 2][0].append((g * susceptibility_c(w, z)).real)
        extra[k % 2][1].append((g * susceptibility_chi(w, z)).real)
    even, odd = extra
    ref_h = [t + 2.0 * h * (math.fsum(e) + math.fsum(o))
             for t, e, o in zip(t_h, even, odd)]
    ref_2h = [t + 4.0 * h * math.fsum(e) for t, e in zip(t_2h, even)]
    return (t_h, t_2h), (ref_h, ref_2h), 4 * n_former + 1 - nodes


class TestCutOff:
    """The line is cut at one Y for every s. Below a/omega0 = pi/6 that cuts
    it short of the former Y(s); the sums grow like 1/sin^5 s there, and the
    nodes between the two change nothing."""

    def test_one_cut_off(self):
        y = math.log(64.0 / oracle._TAIL) / 6.0
        for a in (1e-3, 0.1, math.pi / 6, 1e6):
            assert oracle._line_sums(1.0, a)[2]["Y"] == y
        for a in (1e-300, 1e-5):
            with pytest.raises(ConvergenceError) as err:
                oracle._line_sums(1.0, a)
            assert err.value.diagnostics["Y"] == y

    @pytest.mark.parametrize("omega0, ratio", [
        (1.0, 1.1e-4), (0.37, 1e-3), (8.0, 1e-3), (0.37, 1e-2), (8.0, 0.1),
        (0.37, 0.3),
    ])
    def test_matches_former_cut_off(self, omega0, ratio):
        got, ref, extra = sums_cut_at_y_of_s(omega0, ratio * omega0)
        assert extra > 0
        for sums, ref_sums in zip(got, ref):
            for value, expected in zip(sums, ref_sums):
                assert abs(value - expected) <= 1e-15 * abs(expected)

    # [vf, cross] at steps h and 2h, as the former Y(s) cut-off gave them;
    # the ground level's own line would negate cross.
    @pytest.mark.parametrize("omega0, a, t_h, t_2h", [
        (1.0, math.pi / 6, [0.1459533702439487, 0.14595157671796757],
         [0.14595366698517673, 0.14595187345554914]),
        (0.37, 1.0, [0.004552846539259971, 0.003741606715403435],
         [0.004552846593851397, 0.0037416067602675973]),
        (8.0, 1e3, [0.0027383907051362994, 6.880877778982343e-05],
         [0.002738390725664197, 6.880877830563717e-05]),
    ])
    def test_grid_and_sums_unchanged_above_pi_over_6(self, omega0, a, t_h, t_2h):
        s = math.pi / 2
        former_grid = {"s": s, "h": 0.1 * s, "nodes": 93, "Y": y_of_s(s)}
        assert oracle._line_sums(omega0, a) == (t_h, t_2h, former_grid)


class TestVfIntegral:
    def test_matches_closed_form(self):
        atom = TwoLevelAtom(1.0, "excited")
        got = oracle.verify_rates(1.0, 1.0, 1.0, ["excited"], tol=1e-3)[0].numeric_vf
        expected = rates.rate_total(atom, 1.0, 1.0).vf
        assert got == pytest.approx(expected, rel=1e-9, abs=0)

    def test_ratio_across_parameters(self):
        def numeric_vf(omega0):
            (rep,) = oracle.verify_rates(omega0, 1.0, 1.0, ["excited"], tol=1e-3)
            return rep.numeric_vf

        num_ratio = numeric_vf(1.0) / numeric_vf(2.0)
        closed_ratio = (
            rates.rate_total(TwoLevelAtom(1.0, "excited"), 1.0, 1.0).vf
            / rates.rate_total(TwoLevelAtom(2.0, "excited"), 1.0, 1.0).vf
        )
        assert num_ratio == pytest.approx(closed_ratio, rel=1e-9, abs=0)

    def test_truncation_point_is_quiet(self):
        for a in (1e-3, 1.0, 1e6):
            _, _, grid = oracle._line_sums(1.0, a)
            s, u_max = grid["s"], (grid["nodes"] // 2) * grid["h"]
            assert u_max >= grid["Y"]
            tail = abs(cmath.sinh(u_max - 1j * s)) ** -6
            peak = abs(cmath.sinh(-1j * s)) ** -6
            assert tail < 1e-16 * peak


class TestCrossIntegral:
    def test_matches_closed_form(self):
        atom = TwoLevelAtom(1.0, "excited")
        got = oracle.verify_rates(1.0, 1.0, 1.0, ["excited"], tol=1e-3)[0].numeric_cross
        expected = rates.rate_total(atom, 1.0, 1.0).cross
        assert got == pytest.approx(expected, rel=1e-9, abs=0)

    def test_integrands_conjugate_symmetric(self):
        # f(-u) = conj f(u) for both integrands on the oracle's line u - i s,
        # so the sums over u >= 0 give the real integrals.
        def integrands(u, line, w):
            g = correlators.trace_pair(u, line)
            z = u - 1j * line.epsilon
            return g * susceptibility_c(w, z), g * susceptibility_chi(w, z)

        for a in (1e-3, 1.0, 1e6):
            _, _, grid = oracle._line_sums(1.0, a)
            s, h = grid["s"], grid["h"]
            line = correlators.WorldlineParams(2.0, epsilon=s)
            for level in ("ground", "excited"):
                w = 2.0 * TwoLevelAtom(1.0, level).omega_bd / a
                for k in (1, 2, 7, 50, 333):
                    pairs = zip(integrands(-k * h, line, w),
                                integrands(k * h, line, w))
                    for f_minus, f_plus in pairs:
                        assert f_minus == pytest.approx(
                            f_plus.conjugate(), rel=1e-15, abs=0
                        )

    def test_negative_and_level_independent(self):
        down = oracle.verify_rates(1.0, 1.0, 1.0, ["excited"], tol=1e-3)[0]
        up = oracle.verify_rates(1.0, 1.0, 1.0, ["ground"], tol=1e-3)[0]
        assert down.numeric_cross < 0
        assert up.numeric_cross == pytest.approx(down.numeric_cross, rel=1e-12, abs=0)


class TestVerifyRates:
    @pytest.mark.parametrize("a", [0.1, 1.0, 10.0, 100.0, 1e4, 1e6])
    @pytest.mark.parametrize("level", ["ground", "excited"])
    def test_passes_default_grid_points(self, a, level):
        rep = oracle.verify_rates(1.0, a, 1.0, [level], tol=1e-3)[0]
        assert rep.passed
        assert rep.rel_err_vf < 1e-9
        assert rep.rel_err_cross < 1e-9
        assert set(rep.quadrature) == QUADRATURE_KEYS

    @pytest.mark.parametrize("omega0, a, mu", [
        (1e10, 1e10, 1e-160),
        (1e60, 1e60, 1e-100),
        (1e-51, 1e-40, 1e-3),
        (1e-60, 1e-55, 1e150),
    ])
    @pytest.mark.parametrize("level", ["ground", "excited"])
    def test_passes_where_factors_leave_double_range(self, omega0, a, mu, level):
        # mu^2, omega0^6 or (a/2)^5 is out of double range, the rates are not.
        rep = oracle.verify_rates(omega0, a, mu, [level], tol=1e-3)[0]
        assert rep.passed
        assert max(rep.rel_err_vf, rep.rel_err_cross) < 1e-14

    def test_tol_is_required(self):
        with pytest.raises(TypeError, match="tol"):
            oracle.verify_rates(1.0, 1.0, 1.0, ["ground"])

    def test_tol_validation(self):
        for tol in (0.0, -1e-3, math.nan, math.inf):
            with pytest.raises(ValueError):
                oracle.verify_rates(1.0, 1.0, 1.0, ["ground"], tol=tol)

    @pytest.mark.parametrize("a, mu", [(0.0, 1.0), (math.nan, 1.0),
                                       (math.inf, 1.0), (1.0, math.nan)])
    def test_invalid_inputs(self, a, mu):
        with pytest.raises(ValueError):
            oracle.verify_rates(1.0, a, mu, ["ground"], tol=1e-3)

    def test_quadrature_overflow(self, monkeypatch):
        # Sums that overflow once scaled by -mu^2 omega_bd (a/2)^5 = -500^5.
        grid = {"s": 1.0, "h": 0.1, "nodes": 1, "Y": 1.0}
        monkeypatch.setattr(oracle, "_line_sums",
                            lambda omega0, a: ([1e308] * 2, [1e308] * 2, grid))
        with pytest.raises(OverflowError) as err:
            oracle.verify_rates(1.0, 1e3, 1.0, ["ground"], tol=1e-3)
        assert str(err.value) == "quadrature value out of double range"

    def test_unreachable_tolerance_raises(self):
        # At a/omega = 10 the 2h sum is off by ~1e-8; no tolerance below
        # that can be met.
        with pytest.raises(ConvergenceError) as err:
            oracle.verify_rates(1.0, 10.0, 1.0, ["ground"], tol=1e-12)
        assert "error estimate" in str(err.value)
        assert set(err.value.diagnostics) == QUADRATURE_KEYS

    @pytest.mark.parametrize("omega0", [0.37, 1.0, 8.0])
    def test_levels_mirror_in_reports(self, omega0):
        # The levels share one line (TestShiftedLine::test_levels_mirror):
        # their reports differ only in the sign of vf, and where one level
        # raises, the other raises the same error. Off this grid the totals
        # break the mirror: at omega0 = a = 1 and mu = 4.23e155 vf and cross
        # add up to an overflow for the excited level alone. A call for both
        # levels returns the two one-level reports, or raises their error.
        for ratio, mu, tol in itertools.product(
            (4e-5, 1e-3, 1e-2, 0.1, 0.3, 1.0, 3.0, 10.0, 100.0, 1e3, 1e6, 1e48),
            (1.0, 1e-150, 4.23e154),
            (1e-3, 1e-12),
        ):
            ground, excited, both = (
                verify_or_error(omega0, ratio * omega0, mu, levels, tol)
                for levels in (["ground"], ["excited"], ["ground", "excited"])
            )
            if isinstance(excited, list):
                assert both == ground + excited, (ratio, mu, tol)
                excited = [excited[0]._replace(
                    numeric_vf=-excited[0].numeric_vf, closed_vf=-excited[0].closed_vf
                )]
            else:
                assert both == excited, (ratio, mu, tol)
            assert ground == excited, (ratio, mu, tol)

    def test_node_halving_stability(self):
        # The h-step value lies within |T_h - T_2h| of the closed form.
        rep = oracle.verify_rates(1.0, 10.0, 1.0, ["ground"], tol=1e-3)[0]
        q = rep.quadrature
        assert abs(rep.numeric_vf - rep.closed_vf) < q["error_estimate_vf"]
        assert abs(rep.numeric_cross - rep.closed_cross) < q["error_estimate_cross"]

    def test_thermal_structure(self):
        # Numeric vf divided by the inertial-scale magnitude reproduces
        # the (1 + 2n) occupation structure at a = omega0.
        omega0 = a = mu = 1.0
        numeric = oracle.verify_rates(omega0, a, mu, ["excited"], tol=1e-3)[0].numeric_vf
        f = 1 + 5 * (a / omega0) ** 2 + 4 * (a / omega0) ** 4
        base = -(mu**2 / (480 * math.pi**3)) * f
        n = 1 / math.expm1(2 * math.pi * omega0 / a)
        assert numeric / base == pytest.approx(1 + 2 * n, rel=1e-9, abs=0)

    def test_coupling_scaling(self):
        double = oracle.verify_rates(1.0, 1.0, 2.0, ["excited"], tol=1e-3)[0].numeric_vf
        single = oracle.verify_rates(1.0, 1.0, 1.0, ["excited"], tol=1e-3)[0].numeric_vf
        assert double == pytest.approx(4 * single, rel=1e-12, abs=0)

    @settings(max_examples=40, deadline=None, database=None)
    @given(
        log_ratio=st.floats(min_value=-3.95, max_value=6.0),
        log_omega0=st.floats(min_value=-1.0, max_value=1.0),
        level=st.sampled_from(["ground", "excited"]),
    )
    def test_matches_closed_forms_log_uniform(self, log_ratio, log_omega0, level):
        omega0 = 10.0**log_omega0
        rep = oracle.verify_rates(
            omega0, omega0 * 10.0**log_ratio, 1.0, [level], tol=1e-3
        )[0]
        assert rep.rel_err_vf < 1e-12
        assert rep.rel_err_cross < 1e-12
