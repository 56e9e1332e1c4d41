"""Numerical verification of the closed-form rates by direct quadrature.

Both rates reduce to I(nu) = integral over the real line of
sinh^-6(a tau/2 - i0) e^{i nu tau} dtau at nu = +-omega_bd.  Moving the
integration line to Im(a tau/2) = -s, short of the next pole at -i pi,
makes the -i0 limit exact; on that line the integrand is analytic in a
strip and decays like e^{-6|u|}, so the plain trapezoidal rule converges
geometrically (Trefethen & Weideman, SIAM Rev. 56, 2014).  The route
uses only Cauchy deformation, never the residue sums behind the closed
forms, so agreement is an independent check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rates
from .atom import CHANNEL_WEIGHT, TwoLevelAtom

_PI4 = math.pi**4

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


def _line_sums(omega: float, a: float) -> tuple[np.ndarray, np.ndarray, dict]:
    """Trapezoid sums of I(omega) + I(-omega) and I(omega) - I(-omega).

    With a tau/2 = u - i s and z = 2 omega (s + i u)/a,
    I(+-omega) = (2/a) integral sinh^-6(u - i s) e^{+-z} du,
    so the sum and difference carry 2 cosh z and 2 sinh z.  Taking
    sinh z directly keeps the difference accurate for a >> omega, where
    I(omega) and I(-omega) agree to about log10(a/omega) digits.  The
    shift s = min(pi/2, 3a/|omega|) keeps |Re z| <= 6; the step h
    resolves both the distance s to the pole and the oscillation.
    Returns both sums at steps h and 2h (the even-indexed nodes), and
    the grid.
    """
    s = min(math.pi / 2, 3.0 * a / abs(omega))
    h = 0.1 * min(s, a / (2.0 * abs(omega)))
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
    w = np.sinh(u - 1j * s) ** -6
    z = (2.0 * omega / a) * (s + 1j * u)
    f = np.stack([w * np.cosh(z), w * np.sinh(z)])
    t_h = (4.0 / a) * h * f.sum(axis=1)
    t_2h = (4.0 / a) * 2.0 * h * f[:, ::2].sum(axis=1)
    return t_h, t_2h, grid


def verify_rates(
    atom: TwoLevelAtom, a: float, mu: float, *, tol: float = 1e-3
) -> OracleReport:
    """Compare quadrature and closed-form vf/cross rates for one atom.

    vf    = P [Re I(omega_bd) + Re I(-omega_bd)]
    cross = P [Re I(omega_bd) - Re I(-omega_bd)]
    with P = mu^2 a^6 weight omega_bd / (128 pi^4).  Raises
    ConvergenceError, with the quadrature block as diagnostics, when
    |T_h - T_2h| of either rate exceeds tol times its value.
    """
    if not (0 < a < math.inf):
        raise ValueError(f"acceleration must be positive and finite, got {a}")
    if not math.isfinite(mu):
        raise ValueError(f"coupling must be finite, got {mu}")
    if not (0 < tol < math.inf):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    closed_vf = rates.rate_vf(atom, a, mu)
    closed_cross = rates.rate_cross(atom, a, mu)
    if closed_vf == 0 or closed_cross == 0:
        raise ValueError(
            f"rates underflow to zero at omega0={atom.omega0}, a={a}, mu={mu}"
        )
    pref = (mu * mu * a**6 / (128.0 * _PI4)) * CHANNEL_WEIGHT * atom.omega_bd
    t_h, t_2h, grid = _line_sums(atom.omega_bd, a)
    vf, cross = (pref * t_h.real).tolist()
    if not (math.isfinite(vf) and math.isfinite(cross)):
        raise OverflowError("quadrature value out of double range")
    vf_2h, cross_2h = (pref * t_2h.real).tolist()
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
        closed_vf=closed_vf,
        closed_cross=closed_cross,
        rel_err_vf=abs(vf - closed_vf) / abs(closed_vf),
        rel_err_cross=abs(cross - closed_cross) / abs(closed_cross),
        tol=tol,
        quadrature=quadrature,
    )
