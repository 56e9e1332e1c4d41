"""Closed-form rate formulas and their structural properties."""
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diracrates import rates
from diracrates.atom import TwoLevelAtom

PI3 = math.pi**3


class TestPolynomialFactor:
    def test_inertial(self):
        assert rates.polynomial_factor(2.0, 0.0) == 1.0

    def test_printed_values(self):
        assert rates.polynomial_factor(1.0, 2.0) == pytest.approx(85.0)

    def test_quartic_dominance(self):
        value = rates.polynomial_factor(1.0, 100.0)
        assert 1.0 <= value / 4e8 <= 1.002

    def test_zero_frequency_rejected(self):
        with pytest.raises(ValueError):
            rates.polynomial_factor(0.0, 1.0)


class TestPlanckNumber:
    def test_ln2_point(self):
        # 2 pi omega / a = ln 2  =>  occupation exactly 1
        omega = 1.0
        a = 2 * math.pi * omega / math.log(2.0)
        assert rates.planck_number(omega, a) == pytest.approx(1.0, rel=1e-14, abs=0)

    def test_boltzmann_suppression(self):
        assert rates.planck_number(1.0, 1e-3) == 0.0

    def test_unruh_scale(self):
        assert rates.planck_number(1.0, 2 * math.pi) == pytest.approx(
            1 / (math.e - 1), rel=1e-14, abs=0
        )

    def test_beyond_expm1_range(self):
        # expm1 overflows for 2 pi omega / a above ~709.78; n is e^{-x} there.
        assert rates.planck_number(1.0, 0.0086) == math.exp(-2 * math.pi / 0.0086) > 0
        assert rates.planck_number(1.0, 2 * math.pi / 709.7) == pytest.approx(
            math.exp(-709.7), rel=1e-12, abs=0
        )

    def test_occupation_overflow(self):
        # 2 pi omega / a underflows to 0, or its reciprocal overflows.
        for omega, a in [(1e-200, 1e200), (1e-310, 1.0)]:
            with pytest.raises(OverflowError):
                rates.planck_number(omega, a)

    def test_invalid(self):
        with pytest.raises(ValueError):
            rates.planck_number(-1.0, 1.0)
        with pytest.raises(ValueError):
            rates.planck_number(1.0, 0.0)


class TestRateVf:
    def test_ground_inertial(self):
        got = rates.rate_total(TwoLevelAtom(1.0, "ground"), 0.0, 1.0).vf
        assert got == pytest.approx(1 / (480 * PI3), rel=1e-14, abs=0)

    def test_excited_inertial(self):
        got = rates.rate_total(TwoLevelAtom(1.0, "excited"), 0.0, 1.0).vf
        assert got == pytest.approx(-1 / (480 * PI3), rel=1e-14, abs=0)
        assert got == pytest.approx(-6.72e-5, rel=1e-2, abs=0)

    def test_signs_for_all_accelerations(self):
        for a in (0.0, 0.5, 1.0, 10.0):
            assert rates.rate_total(TwoLevelAtom(1.0, "ground"), a, 1.0).vf > 0
            assert rates.rate_total(TwoLevelAtom(1.0, "excited"), a, 1.0).vf < 0


class TestRateCross:
    def test_level_independent(self):
        for a in (0.0, 1.0, 7.0):
            g = rates.rate_total(TwoLevelAtom(2.0, "ground"), a, 0.3).cross
            e = rates.rate_total(TwoLevelAtom(2.0, "excited"), a, 0.3).cross
            assert g == e

    def test_inertial_value(self):
        got = rates.rate_total(TwoLevelAtom(1.0, "ground"), 0.0, 1.0).cross
        assert got == pytest.approx(-1 / (480 * PI3), rel=1e-14, abs=0)

    def test_always_negative(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            omega0, a, mu = rng.uniform(0.1, 5.0, size=3)
            assert rates.rate_total(TwoLevelAtom(omega0, "ground"), a, mu).cross < 0


class TestRateTotal:
    def test_ground_inertial_is_zero(self):
        rb = rates.rate_total(TwoLevelAtom(1.0, "ground"), 0.0, 1.0)
        assert rb.total == 0.0

    def test_excited_inertial(self):
        rb = rates.rate_total(TwoLevelAtom(1.0, "excited"), 0.0, 1.0)
        assert rb.total == pytest.approx(-1 / (240 * PI3), rel=1e-13, abs=0)

    def test_ground_unruh_scale(self):
        omega0, a = 1.0, 2 * math.pi
        rb = rates.rate_total(TwoLevelAtom(omega0, "ground"), a, 1.0)
        f = rates.polynomial_factor(omega0, a)
        expected = (1 / (60 * PI3)) * 0.25 * f / (math.e - 1)
        assert rb.total == pytest.approx(expected, rel=1e-12, abs=0)

    def test_additivity_random_tuples(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            omega0, a, mu = rng.uniform(0.05, 20.0, size=3)
            level = "ground" if rng.random() < 0.5 else "excited"
            rb = rates.rate_total(TwoLevelAtom(omega0, level), a, mu)
            # The total is computed directly; vf + cross differs from it by
            # the rounding of that sum.
            assert abs(rb.total - (rb.vf + rb.cross)) <= 1e-15 * (
                abs(rb.vf) + abs(rb.cross)
            )

    @pytest.mark.parametrize("ratio", [0.01, 0.1, 0.15, 0.2, 0.3])
    def test_ground_total_without_cancellation(self, ratio):
        # vf + cross = base (1 + 2n) - base is off from 2 base n by ~1e-16/n
        # relative: by 1.2e-3 at a/omega0 = 0.2, and it is 0 below 0.15.
        omega0, a = 1.7, ratio * 1.7
        rb = rates.rate_total(TwoLevelAtom(omega0, "ground"), a, 1.0)
        base = omega0**6 / (480 * PI3) * rates.polynomial_factor(omega0, a)
        n = rates.planck_number(omega0, a)
        assert rb.total == pytest.approx(2 * base * n, rel=1e-14, abs=0)

    def test_coupling_scaling_exact(self):
        atom = TwoLevelAtom(1.3, "ground")
        base = rates.rate_total(atom, 2.0, 0.7)
        doubled = rates.rate_total(atom, 2.0, 1.4)
        assert doubled.vf == 4 * base.vf
        assert doubled.cross == 4 * base.cross
        assert doubled.total == 4 * base.total

    def test_ground_rate_monotone_in_acceleration(self):
        atom = TwoLevelAtom(1.0, "ground")
        grid = np.linspace(0.1, 20.0, 80)
        totals = [rates.rate_total(atom, a, 1.0).total for a in grid]
        assert all(t2 > t1 for t1, t2 in zip(totals, totals[1:]))

    def test_breakdown_factors(self):
        for a in (0.0, 0.0086, 1.0, 1e3):
            rb = rates.rate_total(TwoLevelAtom(1.7, "excited"), a, 1.0)
            assert rb.poly_factor == rates.polynomial_factor(1.7, a)
            assert rb.planck_n == (rates.planck_number(1.7, a) if a > 0 else 0.0)

    def test_zero_coupling_gives_positive_zero(self):
        for level in ("ground", "excited"):
            rb = rates.rate_total(TwoLevelAtom(1.0, level), 1.0, 0.0)
            for value in (rb.vf, rb.cross, rb.total):
                assert math.copysign(1.0, value) == 1.0

    def test_inertial_cancellation(self):
        rb = rates.rate_total(TwoLevelAtom(1.0, "ground"), 0.0, 1.0)
        assert rb.vf == -rb.cross
        assert rb.vf > 0

    @pytest.mark.parametrize(
        "a, mu", [(math.nan, 1.0), (math.inf, 1.0), (-1.0, 1.0), (1.0, math.nan)]
    )
    def test_invalid_inputs_rejected(self, a, mu):
        with pytest.raises(ValueError):
            rates.rate_total(TwoLevelAtom(1.0, "ground"), a, mu)

    def test_sweep_row(self):
        # The fields are the sweep CSV's columns in order.
        rb = rates.rate_total(TwoLevelAtom(1.7, "excited"), 2.0, 0.3)
        assert rb._fields == ("accel", "vf", "cross", "total", "poly_factor",
                              "planck_n", "effective_temperature")
        assert rb[0] == rb.accel == 2.0
        assert rb[6] == rb.effective_temperature == 2.0 / (2 * math.pi)
        assert rates.rate_total(TwoLevelAtom(1.7), 0.0, 0.3)[6] == 0.0


class TestDetailedBalance:
    def test_ln2_ratio(self):
        omega0 = 1.0
        a = 2 * math.pi * omega0 / math.log(2.0)
        assert rates.detailed_balance_ratio(omega0, a) == pytest.approx(
            0.5, rel=1e-12, abs=0
        )

    def test_high_temperature_limit(self):
        assert rates.detailed_balance_ratio(1.0, 1e6) == pytest.approx(
            1.0, rel=1e-5, abs=0
        )

    def test_boltzmann_factor(self):
        assert rates.detailed_balance_ratio(1.0, 3.0) == pytest.approx(
            math.exp(-2 * math.pi / 3.0), rel=1e-12, abs=0
        )
        assert rates.detailed_balance_ratio(1.0, 1e-3) == 0.0

    def test_rate_total_quotient_agrees(self):
        omega0, a = 1.0, 3.0
        up = rates.rate_total(TwoLevelAtom(omega0, "ground"), a, 1.0).total
        down = rates.rate_total(TwoLevelAtom(omega0, "excited"), a, 1.0).total
        assert up / abs(down) == pytest.approx(
            math.exp(-2 * math.pi * omega0 / a), rel=1e-12, abs=0
        )

    def test_invalid(self):
        for omega0, a in [(0.0, 1.0), (math.nan, 1.0), (1.0, math.inf)]:
            with pytest.raises(ValueError):
                rates.detailed_balance_ratio(omega0, a)
            with pytest.raises(ValueError):
                rates.effective_temperature(omega0, a)


class TestEffectiveTemperature:
    def test_unruh_value(self):
        assert rates.effective_temperature(1.0, 2 * math.pi) == pytest.approx(
            1.0, rel=1e-12, abs=0
        )
        assert rates.effective_temperature(3.0, 1.0) == pytest.approx(
            1 / (2 * math.pi), rel=1e-12, abs=0
        )
        for a in (1e-3, 1e12):
            assert rates.effective_temperature(1.0, a) == pytest.approx(
                a / (2 * math.pi), rel=1e-15, abs=0
            )

    def test_frequency_independent(self):
        assert rates.effective_temperature(1.0, 4.0) == pytest.approx(
            rates.effective_temperature(5.0, 4.0), rel=1e-12, abs=0
        )


class TestSiConversion:
    def test_hydrogen_scale(self):
        got = rates.si_acceleration_to_natural(3.0e24)
        assert got == pytest.approx(1.0e16, rel=0.01, abs=0)

    def test_edge_values(self):
        assert rates.si_acceleration_to_natural(0.0) == 0.0
        assert rates.si_acceleration_to_natural(rates.SPEED_OF_LIGHT) == 1.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            rates.si_acceleration_to_natural(-1.0)


# Log-uniform a/omega0 and omega0; mu away from 0 so the rates do not underflow.
# a/omega0 reaches down to where n = 1/(e^{2 pi omega0/a} - 1) leaves the
# normal floats (2 pi omega0/a ~ 708).
log_ratio = st.floats(min_value=math.log10(2 * math.pi / 708.0), max_value=6.0)
log_omega0 = st.floats(min_value=-1.0, max_value=1.0)
coupling = st.floats(min_value=1e-3, max_value=1e3)


class TestProperties:
    @settings(max_examples=100, database=None, deadline=None)
    @given(log_ratio, log_omega0, coupling)
    def test_detailed_balance_quotient(self, log_ratio, log_omega0, mu):
        # The ground total 2 base n has n's precision while it is a normal
        # float itself; near n's limit a small mu can make it subnormal.
        omega0 = 10.0**log_omega0
        a = omega0 * 10.0**log_ratio
        up = rates.rate_total(TwoLevelAtom(omega0, "ground"), a, mu).total
        assume(up >= sys.float_info.min)
        down = rates.rate_total(TwoLevelAtom(omega0, "excited"), a, mu).total
        assert up / abs(down) == pytest.approx(
            rates.detailed_balance_ratio(omega0, a), rel=1e-12, abs=0
        )

    @settings(max_examples=100, database=None, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=1e6),
        log_omega0,
        coupling,
        st.sampled_from(["ground", "excited"]),
    )
    def test_cross_negative(self, a, log_omega0, mu, level):
        assert rates.rate_total(TwoLevelAtom(10.0**log_omega0, level), a, mu).cross < 0

    @settings(max_examples=100, database=None, deadline=None)
    @given(log_ratio, st.floats(min_value=1e-3, max_value=10.0), log_omega0)
    def test_ground_total_monotone(self, log_ratio, step, log_omega0):
        atom = TwoLevelAtom(10.0**log_omega0, "ground")
        a = atom.omega0 * 10.0**log_ratio
        lower = rates.rate_total(atom, a, 1.0).total
        assert rates.rate_total(atom, a * (1.0 + step), 1.0).total > lower
