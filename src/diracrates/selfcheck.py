"""Algebra and correlator identity suites, shared by the CLI and tests."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import clifford, correlators
from .clifford import FourVector


@dataclass(frozen=True)
class CheckResult:
    name: str
    cases: int
    max_deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance


def _rel_dev(actual: np.ndarray, expected: np.ndarray) -> float:
    scale = max(np.max(np.abs(expected)), 1.0)
    return float(np.max(np.abs(actual - expected)) / scale)


def check_gamma_algebra() -> CheckResult:
    """{gamma^mu, gamma^nu} = 2 g^{mu nu} I, exactly."""
    worst = 0.0
    cases = 0
    for mu in range(4):
        for nu in range(4):
            lhs = clifford.anticommutator(
                clifford.gamma_matrix(mu), clifford.gamma_matrix(nu)
            )
            rhs = 2.0 * clifford.METRIC[mu, nu] * clifford.IDENTITY4
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
            cases += 1
    return CheckResult("gamma anticommutators", cases, worst, 0.0)


def check_boost_group() -> CheckResult:
    """Composition, inverse, gamma^0 conjugation, and squared-unitarity."""
    a = 1.0
    taus = np.arange(-5.0, 5.5, 1.0)
    g0 = clifford.gamma_matrix(0)
    worst = 0.0
    cases = 0
    for t1 in taus:
        s1 = clifford.boost_matrix(a, t1)
        worst = max(
            worst,
            _rel_dev(s1 @ clifford.boost_matrix(a, -t1), clifford.IDENTITY4),
            _rel_dev(g0 @ s1, clifford.boost_matrix(a, -t1) @ g0),
            _rel_dev((g0 @ s1) @ (g0 @ s1), clifford.IDENTITY4),
        )
        cases += 3
        for t2 in taus:
            worst = max(
                worst,
                _rel_dev(
                    s1 @ clifford.boost_matrix(a, t2),
                    clifford.boost_matrix(a, t1 + t2),
                ),
            )
            cases += 1
    return CheckResult("boost group identities", cases, worst, 1e-13)


def check_spin_sums() -> CheckResult:
    """Spin sums reproduce (slash(k) +- m)/2m for 100 random on-shell momenta."""
    n_momenta, m = 100, 1.0
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(n_momenta):
        kvec = rng.normal(scale=2.0, size=3)
        k = FourVector(math.sqrt(float(kvec @ kvec) + m * m), *kvec)
        sk = clifford.slash(k)
        worst = max(
            worst,
            _rel_dev(
                clifford.spin_sum_u(k, m), (sk + m * clifford.IDENTITY4) / (2 * m)
            ),
            _rel_dev(
                clifford.spin_sum_v(k, m), (sk - m * clifford.IDENTITY4) / (2 * m)
            ),
        )
    return CheckResult("spin sums", 2 * n_momenta, worst, 1e-12)


def check_trace_vs_closed() -> CheckResult:
    """Statistical functions from trace combinations vs the sinh^-6 closed forms."""
    worst = 0.0
    cases = 0
    for a in (0.5, 1.0, 2.0):
        for eps in (1e-3, 1e-4):
            params = correlators.WorldlineParams(accel=a, epsilon=eps)
            for dtau in np.linspace(0.05 / a, 20.0 / a, 60).tolist():
                closed = correlators.stat_functions_closed(dtau, params)
                tp_m = correlators.trace_pair(dtau, params, "minus")
                tp_p = correlators.trace_pair(dtau, params, "plus")
                scale = max(abs(closed.c_f), abs(closed.chi_f))
                worst = max(
                    worst,
                    abs(0.5 * (tp_m + tp_p) - closed.c_f) / scale,
                    abs(0.5 * (tp_m - tp_p) - closed.chi_f) / scale,
                )
                cases += 2
    return CheckResult("trace route vs closed forms", cases, worst, 1e-10)


def run_all() -> list[CheckResult]:
    return [
        check_gamma_algebra(),
        check_boost_group(),
        check_spin_sums(),
        check_trace_vs_closed(),
    ]
