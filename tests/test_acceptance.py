"""Acceptance suite: one test per criterion, with a printed pass/fail line."""
import math
import time

import numpy as np
import pytest

from diracrates import clifford, correlators, oracle, rates, selfcheck
from diracrates.atom import TwoLevelAtom
from diracrates.clifford import FourVector

PI3 = math.pi**3


def _report(num: int, description: str, passed: bool) -> None:
    print(f"criterion {num:2d} [{'PASS' if passed else 'FAIL'}] {description}")
    assert passed, f"criterion {num} failed: {description}"


def test_criterion_1_gamma_algebra():
    start = time.monotonic()
    result = selfcheck.check_gamma_algebra()
    elapsed = time.monotonic() - start
    _report(
        1,
        f"16 anticommutator identities exact ({elapsed:.3f}s)",
        result.cases == 16 and result.max_deviation == 0.0 and elapsed < 1.0,
    )


def test_criterion_2_boost_group():
    result = selfcheck.check_boost_group()
    _report(
        2,
        f"boost group identities, max dev {result.max_deviation:.2e}",
        result.max_deviation < 1e-13,
    )


def test_criterion_3_spin_sums():
    result = selfcheck.check_spin_sums(n_momenta=100)
    _report(
        3,
        f"spin sums at m=1 over 100 momenta, max dev {result.max_deviation:.2e}",
        result.max_deviation < 1e-12,
    )


def test_criterion_4_trace_route_vs_closed_forms():
    start = time.monotonic()
    result = selfcheck.check_trace_vs_closed()
    elapsed = time.monotonic() - start
    _report(
        4,
        f"trace route vs closed forms, max dev {result.max_deviation:.2e} "
        f"({elapsed:.2f}s)",
        result.max_deviation < 1e-10 and elapsed < 5.0,
    )


def test_criterion_5_oracle_equivalence():
    start = time.monotonic()
    worst = 0.0
    ok = True
    for ratio in (0.1, 0.3, 1.0, 3.0, 10.0, 100.0, 1e4, 1e6):
        for level in ("ground", "excited"):
            rep = oracle.verify_rates(TwoLevelAtom(1.0, level), ratio, 1.0)
            worst = max(worst, rep.rel_err_vf, rep.rel_err_cross)
            ok = ok and rep.rel_err_vf < 1e-9 and rep.rel_err_cross < 1e-9
    elapsed = time.monotonic() - start
    _report(
        5,
        f"quadrature vs closed forms on the (a/omega0) grid, worst rel err "
        f"{worst:.2e} ({elapsed:.1f}s)",
        ok and elapsed < 120.0,
    )


def test_criterion_6_inertial_limit():
    ground = rates.rate_total(TwoLevelAtom(1.0, "ground"), 0.0, 1.0).total
    ok = ground == 0.0
    worst = 0.0
    for omega0, mu in [(1.0, 1.0), (2.5, 0.3), (0.7, 2.0)]:
        got = rates.rate_total(TwoLevelAtom(omega0, "excited"), 0.0, mu).total
        expected = -(mu**2) * omega0**6 / (240 * PI3)
        worst = max(worst, abs(got - expected) / abs(expected))
    _report(
        6,
        f"inertial limit: ground total exactly 0, excited rel dev {worst:.2e}",
        ok and worst < 1e-13,
    )


def test_criterion_7_detailed_balance():
    worst_ratio = 0.0
    worst_temp = 0.0
    for omega0 in (0.5, 1.0, 2.0):
        for a in (0.1 * omega0, 0.2 * omega0, 2.0, 4.0, 8.0, 16.0):
            up = rates.rate_total(TwoLevelAtom(omega0, "ground"), a, 1.0).total
            down = rates.rate_total(TwoLevelAtom(omega0, "excited"), a, 1.0).total
            boltzmann = math.exp(-2 * math.pi * omega0 / a)
            worst_ratio = max(
                worst_ratio,
                abs(up / abs(down) - boltzmann) / boltzmann,
                abs(rates.detailed_balance_ratio(omega0, a) - boltzmann)
                / boltzmann,
            )
            temp = rates.effective_temperature(omega0, a)
            worst_temp = max(
                worst_temp, abs(temp - a / (2 * math.pi)) / (a / (2 * math.pi))
            )
    _report(
        7,
        f"detailed balance rel dev {worst_ratio:.2e}, Unruh temperature rel "
        f"dev {worst_temp:.2e}",
        worst_ratio < 1e-12 and worst_temp < 1e-12,
    )


def test_criterion_8_quartic_dominance():
    omega0, a = 1.0, 100.0
    total = rates.rate_total(TwoLevelAtom(omega0, "ground"), a, 1.0).total
    quartic_only = (
        (1 / (60 * PI3))
        * 0.25
        * omega0**6
        * (4 * a**4 / omega0**4)
        * rates.planck_number(omega0, a)
    )
    ratio = total / quartic_only
    _report(
        8,
        f"a^4 term dominates at a/omega0=100, ratio {ratio:.5f}",
        0.99 <= ratio <= 1.01,
    )


def test_criterion_9_cross_term_structure():
    ok = True
    worst = 0.0
    for omega0, a, mu in [(1.0, 0.0, 1.0), (1.0, 1.0, 1.0), (2.0, 5.0, 0.4)]:
        g = rates.rate_total(TwoLevelAtom(omega0, "ground"), a, mu).cross
        e = rates.rate_total(TwoLevelAtom(omega0, "excited"), a, mu).cross
        ok = ok and g < 0 and e < 0
        worst = max(worst, abs(abs(g) - abs(e)) / abs(g))
    _report(
        9,
        f"cross term negative for both levels, level asymmetry {worst:.2e}",
        ok and worst < 1e-14,
    )


def test_criterion_10_si_estimate():
    got = rates.si_acceleration_to_natural(3.0e24)
    _report(
        10,
        f"a = 3e24 m/s^2 maps to {got:.4e} 1/s (hydrogen-scale omega ~ 1e16)",
        abs(got - 1.0e16) / 1.0e16 < 0.01,
    )
