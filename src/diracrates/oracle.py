"""Numerical verification of the closed-form rates by direct quadrature.

Each rate is the paper's DDC integral of the field correlation function
`correlators.trace_pair` against an `atom` susceptibility C or chi,
-mu^2 omega_bd Re integral trace_pair(dtau) {C, chi}(dtau) ddtau, with the
trace at a dtau/2 - i0.  Moving the line to Im(a dtau/2) = -s, short of
the next pole at -i pi, makes the -i0 limit exact; on that line the
integrand is analytic in a strip and decays like e^{-6|u|}, so the plain
trapezoidal rule converges geometrically (Trefethen & Weideman, SIAM
Rev. 56, 2014).  The route uses only Cauchy deformation, never the
residue sums behind the closed forms, so agreement is an independent check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import correlators, rates
from .atom import TwoLevelAtom, susceptibility_c, susceptibility_chi

# The line is cut off where the integrand's envelope 64 e^{-6|u|} falls
# below _TAIL sin^6 s, i.e. _TAIL sin^12 s of the peak 1/sin^6 s: stricter
# for small s, where the oscillating factor cancels most of the peak.
_TAIL = 1e-17

# Nodes grow like |omega|/a and cost ~100 bytes each at peak; this many
# (a/|omega| ~ 5.4e-4) take ~0.3 s and ~100 MB.
_MAX_NODES = 1_000_000


class ConvergenceError(RuntimeError):
    """The quadrature cannot meet the tolerance, or its grid would be too large."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass(frozen=True)
class OracleReport:
    numeric_vf: float
    numeric_cross: float
    closed_vf: float
    closed_cross: float
    rel_err_vf: float
    rel_err_cross: float
    tol: float
    quadrature: dict

    @property
    def passed(self) -> bool:
        return self.rel_err_vf < self.tol and self.rel_err_cross < self.tol


def _line_sums(atom: TwoLevelAtom, a: float) -> tuple[np.ndarray, np.ndarray, dict]:
    """Trapezoid sums of the vf and cross integrals in u = a dtau/2, before
    the scale -mu^2 omega_bd (a/2)^5.

    On the line u - i s the trace at acceleration a is (a/2)^6 times the
    trace at acceleration 2 and dtau = u, regulator s; the susceptibilities
    of the atom with omega0 scaled by 2/a take dtau = u - i s.  Factoring
    out (a/2)^6 keeps the sums in double range for any a.  i W sin keeps
    the cross sum accurate for a >> omega, where the integrals at +-omega
    agree to about log10(a/omega) digits.  The shift
    s = min(pi/2, 3a/|omega|) keeps |Im(omega dtau)| <= 6; the step h
    resolves both the distance s to the pole and the oscillation.
    Returns the sums at steps h and 2h (even-indexed nodes) and the grid.
    """
    s = min(math.pi / 2, 3.0 * a / abs(atom.omega_bd))
    h = 0.1 * min(s, a / (2.0 * abs(atom.omega_bd)))
    # For subnormal a, h underflows to 0 or the node count leaves float
    # range; a quantity with no float value is reported as null.
    y = (math.log(64.0 / _TAIL) - 6.0 * math.log(math.sin(s))) / 6.0 if h > 0 else None
    half = y / (2.0 * h) if h > 0 else math.inf
    n = math.ceil(half) if half < math.inf else None
    grid = {"s": s, "h": h, "nodes": None if n is None else 4 * n + 1, "Y": y}
    if n is None or grid["nodes"] > _MAX_NODES:
        raise ConvergenceError(
            f"quadrature needs {grid['nodes'] or 'over 1e308'} nodes, "
            f"above the limit {_MAX_NODES}",
            grid,
        )
    u = h * np.arange(-2 * n, 2 * n + 1)
    g = correlators.trace_pair(u, correlators.WorldlineParams(2.0, epsilon=s))
    scaled = TwoLevelAtom(2.0 * atom.omega0 / a, atom.level)
    c = g * susceptibility_c(scaled, u - 1j * s)
    chi = g * susceptibility_chi(scaled, u - 1j * s)
    t_h = h * np.array([c.sum(), chi.sum()])
    t_2h = 2.0 * h * np.array([c[::2].sum(), chi[::2].sum()])
    return t_h, t_2h, grid


def verify_rates(
    atom: TwoLevelAtom, a: float, mu: float, *, tol: float = 1e-3
) -> OracleReport:
    """Compare quadrature and closed-form vf/cross rates for one atom.

    Raises ConvergenceError, with the quadrature block as diagnostics,
    when |T_h - T_2h| of either rate exceeds tol times its value, and
    OverflowError when a rate leaves double range (from a ~ 2.9e62 on at
    omega0 = mu = 1, where the closed forms do too).
    """
    if not (0 < a < math.inf):
        raise ValueError(f"acceleration must be positive and finite, got {a}")
    if not math.isfinite(mu):
        raise ValueError(f"coupling must be finite, got {mu}")
    if not (0 < tol < math.inf):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    closed = rates.rate_total(atom, a, mu)
    if closed.vf == 0 or closed.cross == 0:
        raise ValueError(
            f"rates underflow to zero at omega0={atom.omega0}, a={a}, mu={mu}"
        )
    with np.errstate(all="ignore"):  # an overflow leaves a sum inf or nan
        t_h, t_2h, grid = _line_sums(atom, a)
    # The scale -mu^2 omega_bd (a/2)^5 in float products, which overflow
    # to inf without a warning; one factor a/2 goes on the sums first, so
    # that the scale stays finite wherever the closed forms do.
    half = a / 2.0
    pref = -mu * mu * atom.omega_bd * half * half * half * half
    vf, cross = [pref * (half * t) for t in t_h.real.tolist()]
    if not (math.isfinite(vf) and math.isfinite(cross)):
        raise OverflowError("quadrature value out of double range")
    vf_2h, cross_2h = [pref * (half * t) for t in t_2h.real.tolist()]
    quadrature = {
        **grid,
        "error_estimate_vf": abs(vf - vf_2h),
        "error_estimate_cross": abs(cross - cross_2h),
    }
    for name, value in (("vf", vf), ("cross", cross)):
        estimate = quadrature[f"error_estimate_{name}"]
        if estimate > tol * abs(value):
            raise ConvergenceError(
                f"{name} error estimate {estimate:.3e} exceeds tol "
                f"{tol:.1e} x |{value:.6e}|",
                quadrature,
            )
    return OracleReport(
        numeric_vf=vf,
        numeric_cross=cross,
        closed_vf=closed.vf,
        closed_cross=closed.cross,
        rel_err_vf=abs(vf - closed.vf) / abs(closed.vf),
        rel_err_cross=abs(cross - closed.cross) / abs(closed.cross),
        tol=tol,
        quadrature=quadrature,
    )
