"""Closed-form rate formulas and their structural properties."""
import decimal
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diracrates import rates
from diracrates.atom import CHANNEL_WEIGHT, TwoLevelAtom

PI3 = math.pi**3


def poly(w, a):
    """The polynomial factor 1 + 5 a^2/w^2 + 4 a^4/w^4, in `rate_rows`'s
    operation order."""
    try:
        r2 = (a / w) ** 2
    except OverflowError:  # a float power raises where a product gives inf
        r2 = math.inf
    return 1.0 + 5.0 * r2 + 4.0 * r2 * r2


def planck(w, a):
    """The Planck number 1/(e^{2 pi w / a} - 1), e^{-2 pi w / a} where
    expm1 overflows and 0 at a = 0, in `rate_rows`'s operation order."""
    if a == 0:
        return 0.0
    x = 2.0 * math.pi * w / a
    try:
        return 1.0 / math.expm1(x)
    except OverflowError:
        return math.exp(-x)


def factors(omega0, a):
    """The breakdown of a ground atom at unit coupling, for its factors."""
    return rates.rate_total(TwoLevelAtom(omega0, "ground"), a, 1.0)


class TestPolynomialFactor:
    def test_inertial(self):
        assert factors(2.0, 0.0).poly_factor == 1.0

    def test_printed_values(self):
        assert factors(1.0, 2.0).poly_factor == pytest.approx(85.0)

    def test_quartic_dominance(self):
        value = factors(1.0, 100.0).poly_factor
        assert 1.0 <= value / 4e8 <= 1.002

    def test_zero_frequency_rejected(self):
        with pytest.raises(ValueError):
            factors(0.0, 1.0)

    @pytest.mark.parametrize(
        "omega, a", [(1.0, math.nan), (1.0, math.inf), (math.nan, 1.0),
                     (math.inf, 1.0), (-math.inf, 1.0)]
    )
    def test_non_finite_rejected(self, omega, a):
        with pytest.raises(ValueError, match="finite"):
            factors(omega, a)


class TestPlanckNumber:
    def test_ln2_point(self):
        # 2 pi omega / a = ln 2  =>  occupation exactly 1
        omega = 1.0
        a = 2 * math.pi * omega / math.log(2.0)
        assert factors(omega, a).planck_n == pytest.approx(1.0, rel=1e-14, abs=0)

    def test_boltzmann_suppression(self):
        assert factors(1.0, 1e-3).planck_n == 0.0

    def test_unruh_scale(self):
        assert factors(1.0, 2 * math.pi).planck_n == pytest.approx(
            1 / (math.e - 1), rel=1e-14, abs=0
        )

    def test_beyond_expm1_range(self):
        # expm1 overflows for 2 pi omega / a above ~709.78; n is e^{-x} there.
        n = factors(1.0, 0.0086).planck_n
        assert n == math.exp(-2 * math.pi / 0.0086) > 0
        assert factors(1.0, 2 * math.pi / 709.7).planck_n == pytest.approx(
            math.exp(-709.7), rel=1e-12, abs=0
        )

    def test_occupation_overflow(self):
        # 2 pi omega / a underflows to 0, or its reciprocal overflows.
        for omega, a in [(1e-200, 1e200), (1e-310, 1.0)]:
            with pytest.raises(OverflowError, match="thermal occupation"):
                factors(omega, a)

    def test_invalid(self):
        with pytest.raises(ValueError):
            factors(-1.0, 1.0)
        with pytest.raises(ValueError):
            factors(1.0, -1.0)

    @pytest.mark.parametrize(
        "omega, a", [(1.0, math.nan), (math.nan, 1.0), (math.inf, 1.0),
                     (1.0, math.inf)]
    )
    def test_non_finite_rejected(self, omega, a):
        with pytest.raises(ValueError, match="finite"):
            factors(omega, a)


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
        f = 1 + 5 * (a / omega0) ** 2 + 4 * (a / omega0) ** 4
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
        base = omega0**6 / (480 * PI3) * poly(omega0, a)
        n = planck(omega0, a)
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
            assert rb.poly_factor == poly(1.7, a)
            assert rb.planck_n == planck(1.7, a)

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

    @pytest.mark.parametrize("level", ["ground", "excited"])
    def test_negative_zero_acceleration_reads_positive_zero(self, level):
        rb = rates.rate_total(TwoLevelAtom(1.0, level), -0.0, 1.0)
        assert rb == rates.rate_total(TwoLevelAtom(1.0, level), 0.0, 1.0)
        for value in (rb.accel, rb.effective_temperature):
            assert math.copysign(1.0, value) == 1.0


class TestSmallOmega0:
    # omega0^6 is subnormal or 0 below omega0 ~ 1.2e-51, while f is huge and
    # the rate ~4 a^4 omega0^2 is a normal float: rate_rows forms it from
    # omega0's mantissa and applies the exponent once.
    def test_rates_not_zero(self):
        omega0 = 1e-60
        rb = rates.rate_total(TwoLevelAtom(omega0, "ground"), 1.0, 1.0)
        assert rb.cross == pytest.approx(-4e-120 / (480 * PI3), rel=1e-14, abs=0)
        n = planck(omega0, 1.0)
        assert rb.planck_n == n
        assert rb.vf == rb.total == pytest.approx(-2 * rb.cross * n, rel=1e-14, abs=0)

    def test_excited_level(self):
        rb = rates.rate_total(TwoLevelAtom(1e-60, "excited"), 1.0, 1.0)
        assert rb.cross == pytest.approx(-4e-120 / (480 * PI3), rel=1e-14, abs=0)
        n = rb.planck_n
        assert rb.vf == pytest.approx(rb.cross * (1 + 2 * n), rel=1e-14, abs=0)
        assert rb.total == pytest.approx(2 * rb.cross * (1 + n), rel=1e-14, abs=0)

    def test_infinite_factor_still_overflows(self):
        # f itself is out of double range, and it is a printed field.
        with pytest.raises(OverflowError, match="rate out of double range"):
            rates.rate_total(TwoLevelAtom(1e-100, "ground"), 1.0, 1.0)


def bits(values):
    """Each value's exact bits, with the sign of a zero."""
    return [float(v).hex() for v in values]


# A grid of accelerations as ratios to omega0: a = 0, the expm1 overflow
# band, and log-uniform ratios up to 1e6.
ratios = st.lists(
    st.sampled_from([0.0, 2 * math.pi / 720.0, 2 * math.pi / 744.0])
    | st.floats(min_value=2 * math.pi / 745.0, max_value=2 * math.pi / 709.0)
    | st.floats(min_value=-3.0, max_value=6.0).map(lambda x: 10.0**x),
    min_size=1, max_size=20,
)


class TestRateRows:
    @settings(max_examples=100, database=None, deadline=None)
    @given(ratios, st.floats(min_value=-60.0, max_value=40.0),
           st.floats(min_value=1e-3, max_value=1e3),
           st.sampled_from(["ground", "excited"]))
    def test_each_row_is_rate_total(self, ratios, log_omega0, mu, level):
        atom = TwoLevelAtom(10.0**log_omega0, level)
        grid = [atom.omega0 * r for r in ratios]
        rows = list(rates.rate_rows(atom, grid, mu))
        assert len(rows) == len(grid)
        for a, row in zip(grid, rows):
            assert type(row) is tuple
            assert bits(row) == bits(rates.rate_total(atom, a, mu))

    @settings(max_examples=100, database=None, deadline=None)
    @given(ratios, st.floats(min_value=-60.0, max_value=40.0),
           st.floats(min_value=1e-3, max_value=1e3),
           st.sampled_from(["ground", "excited"]))
    def test_inlined_factors_match(self, ratios, log_omega0, mu, level):
        # The factors are bit for bit the test-local formulas, and the cross
        # term is -(m_mu^2 / 120 pi^3) W m_w^6 f in that order, scaled by
        # 2^(2 e_mu + 6 e_w), where mu = m_mu 2^e_mu and w = m_w 2^e_w.
        w = 10.0**log_omega0
        (mu_m, mu_e), (w_m, w_e) = math.frexp(mu), math.frexp(w)
        grid = [w * r for r in ratios]
        for a, row in zip(grid, rates.rate_rows(TwoLevelAtom(w, level), grid, mu)):
            f, n = row[4], row[5]
            assert bits([f]) == bits([poly(w, a)])
            assert bits([n]) == bits([planck(w, a)])
            base = math.ldexp(
                (mu_m * mu_m / (120.0 * PI3)) * 0.25 * w_m**6 * f, 2 * mu_e + 6 * w_e
            )
            assert bits([row[2]]) == bits([0.0 - base])


def exact_rates(omega0, a, mu, n, level):
    """vf, cross and total in exact rational arithmetic from the floats
    omega0, a, mu, pi and the row's own n: the magnitude
    mu^2 W omega0^6 (1 + 5 r^2 + 4 r^4) / 120 pi^3, r = a / omega0, then
    (1 + 2n), -1 and 2n, or -(1 + 2n), -1 and -2(1 + n) when excited."""
    r2 = (Fraction(a) / Fraction(omega0)) ** 2
    base = (Fraction(mu) ** 2 * Fraction(CHANNEL_WEIGHT) * Fraction(omega0) ** 6
            * (1 + 5 * r2 + 4 * r2 * r2) / (120 * Fraction(math.pi) ** 3))
    n = Fraction(n)
    if level == "excited":
        return -base * (1 + 2 * n), -base, -2 * base * (1 + n)
    return base * (1 + 2 * n), -base, 2 * base * n


def rel_errors(row, exact, tiny=0.0):
    """|got - exact| / |exact| of vf, cross and total, exactly, then
    rounded; only of those whose |exact| is at least `tiny`."""
    return [float(abs(Fraction(got) - want) / abs(want))
            for got, want in zip(row[1:4], exact) if abs(want) >= tiny]


# (log10 omega0, log10 mu) ranges: around the benchmark's inputs, the
# hypothesis tests' domain, and far out, where omega0^6 and mu^2 leave
# double range while the rates need not.
RANGE_DOMAINS = {
    "benchmark": ((-1.0, 1.0), (-0.3, 0.3)),
    "tests": ((-60.0, 40.0), (-3.0, 3.0)),
    "wide": ((-100.0, 100.0), (-160.0, 160.0)),
}

# (omega0, a, mu) where the rates were 0, a false overflow, off by 3.1e-8
# in cross, and 0, before the magnitude was scaled by one power of two.
RANGE_REGRESSIONS = [
    (1e10, 1e10, 1e-160),
    (1e60, 1e60, 1e-100),
    (1e-51, 1e-40, 1e-3),
    (1e-60, 1e-55, 1e150),
]


# (omega0, a, mu) where cross is subnormal or 0 and vf and the total were
# off by 3.3e-5, 4.6e-11 and 1 (printed 0) before each was scaled by its
# own factor's exponent.
SUBNORMAL_CROSS = [
    (1.0, 1e15, 1e-188),
    (1.0, 1e15, 1e-185),
    (1.0, 1e20, 1e-201),
]


class TestRangeRule:
    @pytest.mark.parametrize("domain", RANGE_DOMAINS)
    def test_matches_exact_arithmetic(self, domain):
        # Wherever no exact rate overflows, rate_total gives each that is a
        # normal float to a few roundings, with no OverflowError.
        (w_lo, w_hi), (mu_lo, mu_hi) = RANGE_DOMAINS[domain]
        rng = random.Random(f"range-rule:{domain}")
        tiny, huge = sys.float_info.min, sys.float_info.max
        checked, overflows, worst = 0, [], 0.0
        for _ in range(1500):
            omega0 = 10.0 ** rng.uniform(w_lo, w_hi)
            mu = 10.0 ** rng.uniform(mu_lo, mu_hi)
            a = omega0 * 10.0 ** rng.uniform(-2.0, 6.0)
            for level in ("ground", "excited"):
                n = planck(omega0, a)
                exact = exact_rates(omega0, a, mu, n, level)
                if not all(abs(x) <= huge for x in exact):
                    continue
                checked += all(tiny <= abs(x) for x in exact)
                try:
                    row = rates.rate_total(TwoLevelAtom(omega0, level), a, mu)
                except OverflowError:
                    overflows.append((omega0, a, mu, level))
                    continue
                assert row.planck_n == n
                worst = max([worst, *rel_errors(row, exact, tiny)])
        assert checked > 1000
        assert overflows == []
        assert worst <= 2e-15

    def test_top_of_double_range(self):
        # base = |cross| in (0.3, 1) MAX: 2 base leaves double range where
        # the ground total 2 base n does not.  Each rate is base times its
        # own factor, so none overflows unless it is itself out of range.
        rng = random.Random("range-rule:top")
        tiny, huge = sys.float_info.min, sys.float_info.max
        checked, overflows, worst = 0, [], 0.0
        for _ in range(1500):
            omega0 = 10.0 ** rng.uniform(-3.0, 3.0)
            a = omega0 * 10.0 ** rng.uniform(-2.8, 3.0)
            unit = CHANNEL_WEIGHT * omega0**6 * poly(omega0, a) / (120.0 * PI3)
            mu = math.sqrt(rng.uniform(0.3, 1.0) * huge) / math.sqrt(unit)
            n = planck(omega0, a)
            for level in ("ground", "excited"):
                exact = exact_rates(omega0, a, mu, n, level)
                if not all(abs(x) <= huge for x in exact):
                    continue
                try:
                    row = rates.rate_total(TwoLevelAtom(omega0, level), a, mu)
                except OverflowError:
                    overflows.append((omega0, a, mu, level))
                    continue
                if n < tiny and level == "ground":  # the row's own n is lossy
                    exact = (*exact[:2], Fraction(exact_ground_total(row, omega0)))
                checked += 1
                worst = max([worst, *rel_errors(row, exact, tiny)])
        assert overflows == []
        assert checked > 1000
        assert worst <= 2e-15

    @pytest.mark.parametrize("omega0, a, mu", RANGE_REGRESSIONS)
    @pytest.mark.parametrize("level", ["ground", "excited"])
    def test_regressions(self, omega0, a, mu, level):
        row = rates.rate_total(TwoLevelAtom(omega0, level), a, mu)
        exact = exact_rates(omega0, a, mu, row.planck_n, level)
        assert max(rel_errors(row, exact)) <= 2e-15

    @pytest.mark.parametrize("omega0, a, mu", SUBNORMAL_CROSS)
    @pytest.mark.parametrize("level", ["ground", "excited"])
    def test_subnormal_cross(self, omega0, a, mu, level):
        # cross is subnormal or 0 and has lost bits; vf and the total, which
        # are normal, have not.
        tiny = sys.float_info.min
        row = rates.rate_total(TwoLevelAtom(omega0, level), a, mu)
        exact = exact_rates(omega0, a, mu, row.planck_n, level)
        assert abs(row.cross) < tiny and abs(exact[1]) < tiny
        errors = rel_errors(row, exact, tiny)  # of vf and the total
        assert len(errors) == 2 and max(errors) <= 2e-15


def balance(omega0, a):
    """Excitation over de-excitation: the ground total over |excited total|,
    in which the polynomial factor cancels, leaving e^{-2 pi omega0 / a}."""
    up = rates.rate_total(TwoLevelAtom(omega0, "ground"), a, 1.0).total
    down = rates.rate_total(TwoLevelAtom(omega0, "excited"), a, 1.0).total
    return up / abs(down)


class TestDetailedBalance:
    def test_ln2_ratio(self):
        omega0 = 1.0
        a = 2 * math.pi * omega0 / math.log(2.0)
        assert balance(omega0, a) == pytest.approx(0.5, rel=1e-12, abs=0)

    def test_high_temperature_limit(self):
        assert balance(1.0, 1e6) == pytest.approx(1.0, rel=1e-5, abs=0)

    def test_boltzmann_factor(self):
        for a in (0.5, 30.0):
            assert balance(1.0, a) == pytest.approx(
                math.exp(-2 * math.pi / a), rel=1e-12, abs=0
            )
        assert balance(1.0, 1e-3) == 0.0

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
                balance(omega0, a)


class TestEffectiveTemperature:
    @staticmethod
    def t_eff(omega0, a):
        atom = TwoLevelAtom(omega0, "ground")
        return rates.rate_total(atom, a, 1.0).effective_temperature

    def test_unruh_value(self):
        assert self.t_eff(1.0, 2 * math.pi) == pytest.approx(1.0, rel=1e-12, abs=0)
        assert self.t_eff(3.0, 1.0) == pytest.approx(
            1 / (2 * math.pi), rel=1e-12, abs=0
        )
        for a in (1e-3, 1e12):
            assert self.t_eff(1.0, a) == pytest.approx(
                a / (2 * math.pi), rel=1e-15, abs=0
            )

    def test_frequency_independent(self):
        assert self.t_eff(1.0, 4.0) == pytest.approx(
            self.t_eff(5.0, 4.0), rel=1e-12, abs=0
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
            math.exp(-2 * math.pi * omega0 / a), rel=1e-12, abs=0
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


def exact_ground_total(row, omega0):
    """2 base e^{-x} for a ground row, with x = 2 pi omega0 / a as the
    closed forms round it, base = |cross|, and e^{-x} and the product in
    28-digit decimal arithmetic."""
    x = 2.0 * math.pi * omega0 / row.accel
    return float(2 * decimal.Decimal(-row.cross) * decimal.Decimal(-x).exp())


class TestSubnormalOccupation:
    # Beyond 2 pi omega0 / a ~ 708.4 the Planck number n is subnormal, then
    # 0, while the ground total 2 base n ~ 2 base e^{-x} stays a normal float
    # up to x ~ 708 + ln(2 base), a band that widens with omega0 and mu.
    @pytest.mark.parametrize("a, expected", [
        (8e7, 1.0824e-285),  # n is 0
        (2 * math.pi * 1e10 / 745, 3.7941e-268),  # n is subnormal
    ])
    def test_ground_total(self, a, expected):
        row = rates.rate_total(TwoLevelAtom(1e10, "ground"), a, 1.0)
        exact = exact_ground_total(row, 1e10)
        assert row.planck_n < sys.float_info.min
        assert row.total == pytest.approx(exact, rel=2e-15, abs=0)
        assert row.total == pytest.approx(expected, rel=1e-4, abs=0)

    @settings(max_examples=200, database=None, deadline=None)
    @given(st.floats(min_value=0.0, max_value=50.0), coupling,
           st.floats(min_value=0.0, max_value=1.0))
    def test_ground_total_in_band(self, log_omega0, mu, t):
        omega0 = 10.0**log_omega0
        ln_2base = math.log(mu * mu * omega0**6 / (240 * PI3))
        x = 708.4 + t * max(ln_2base + 1.0, 0.0)
        a = 2 * math.pi * omega0 / x
        row = rates.rate_total(TwoLevelAtom(omega0, "ground"), a, mu)
        exact = exact_ground_total(row, omega0)
        assume(row.planck_n < sys.float_info.min <= exact)
        assert row.total == pytest.approx(exact, rel=2e-15, abs=0)
