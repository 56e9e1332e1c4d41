"""Numerical verification of the closed-form rates by direct quadrature.

Each rate is the paper's DDC integral of the field correlation function
`correlators.trace_pair` against the atom's susceptibility C or chi below,
-mu^2 omega_bd Re integral trace_pair(dtau) {C, chi}(dtau) ddtau, with the
trace at a dtau/2 - i0.  Moving the line to Im(a dtau/2) = -s, short of
the next pole at -i pi, makes the -i0 limit exact; on that line the
integrand is analytic in a strip and decays like e^{-6|u|}, so the plain
trapezoidal rule converges geometrically (Trefethen & Weideman, SIAM
Rev. 56, 2014).  The route uses only Cauchy deformation, never the
residue sums behind the closed forms, so agreement is an independent check.
"""
import cmath
import math
import sys
from collections import namedtuple
from collections.abc import Iterable

from . import correlators, rates
from .atom import CHANNEL_WEIGHT, TwoLevelAtom

# The line is cut off at |u| = _Y, where the envelope 64 e^{-6|u|} falls below
# _TAIL for every s; the sums grow like 1/sin^5 s, so their tail only shrinks.
_TAIL = 1e-17
_Y = math.log(64.0 / _TAIL) / 6.0

# h = s/10 resolves the pole and the oscillation (see _line_sums), so below
# a/|omega| = pi/6 nodes grow like |omega|/a. Half are evaluated, and each value
# kept until the sums; this many (a/|omega| ~ 4.81e-5): ~0.85 s and a ~55 MB
# process peak per acceleration, 2-vCPU x86-64 VM.
_MAX_NODES = 1_000_000


def susceptibility_c(omega_bd: float, dtau: complex) -> complex:
    """Symmetric W cos(omega_bd dtau), even in dtau; dtau may be complex."""
    return CHANNEL_WEIGHT * cmath.cos(omega_bd * dtau)


def susceptibility_chi(omega_bd: float, dtau: complex) -> complex:
    """Antisymmetric i W sin(omega_bd dtau), odd in dtau; sign flips with omega_bd."""
    return 1j * CHANNEL_WEIGHT * cmath.sin(omega_bd * dtau)


class ConvergenceError(RuntimeError):
    """The quadrature cannot meet the tolerance, or its grid would be too large."""

    def __init__(self, message: str, diagnostics: dict):
        super().__init__(message)
        self.diagnostics = diagnostics


class OracleReport(namedtuple("OracleReport", (
    "numeric_vf", "closed_vf", "numeric_cross", "closed_cross",
    "rel_err_vf", "rel_err_cross", "quadrature", "passed",
))):
    """One verify entry, its fields in the verify JSON's key order."""

    __slots__ = ()


def _line_sums(omega0: float, a: float) -> tuple[list, list, dict]:
    """Trapezoid sums of the vf and cross integrals in u = a dtau/2, before the
    scale -mu^2 omega0 (a/2)^5.  The line depends on omega0 and a alone: the
    ground level's omega_bd = -omega0 negates the odd chi, not the even C, and
    the scale, so its vf alone changes sign.  On the line u - i s the trace at
    acceleration a is (a/2)^6 times the trace at acceleration 2 and dtau = u,
    regulator s; the susceptibilities take the frequency w = 2 omega0 / a and
    dtau = u - i s.  Factoring out (a/2)^6 keeps the sums in double range for
    any a.  i W sin keeps the cross sum accurate for a >> omega, where the
    integrals at +-omega agree to about log10(a/omega) digits.  The shift
    s = min(pi/2, 3a/omega0) keeps |Im(omega dtau)| <= 6; h = s/10 takes ten
    steps to the pole and, as w h <= 0.6, ten a period.  Both integrands
    satisfy f(-u) = conj f(u), as sinh, cos and i sin of -u - i s are -+ the
    conjugates of theirs at u - i s, so only u >= 0 is evaluated: Re f
    weighted 1 at u = 0 and 2 elsewhere.  Returns the [vf, cross] sums at
    steps h and 2h (even-indexed nodes) and the grid.
    """
    s = min(math.pi / 2, 3.0 * a / omega0)
    h = 0.1 * s
    # For subnormal a, h underflows to 0 or the node count leaves float
    # range; a count with no float value is reported as null.
    half = _Y / (2.0 * h) if h > 0 else math.inf
    nodes = 4 * math.ceil(half) + 1 if half < math.inf else None
    grid = {"s": s, "h": h, "nodes": nodes, "Y": _Y}
    if nodes is None or nodes > _MAX_NODES:
        # to 3 digits: the count may have hundreds
        count = "over 1e308" if nodes is None or nodes > 1e308 else f"{nodes:.3g}"
        raise ConvergenceError(
            f"quadrature needs {count} nodes, above the limit {_MAX_NODES}", grid
        )
    line = correlators.WorldlineParams(2.0, epsilon=s)
    w = 2.0 * omega0 / a
    # Re f of the vf and the cross integrand at u = k h, k = 0 ... nodes // 2
    vf, cross = [], []
    for k in range(nodes // 2 + 1):
        u = k * h
        g = correlators.trace_pair(u, line)
        z = u - 1j * s
        vf.append((g * susceptibility_c(w, z)).real)
        cross.append((g * susceptibility_chi(w, z)).real)
    t_h, t_2h = [], []
    for f in (vf, cross):
        even = math.fsum(f[2::2])
        t_h.append(h * (f[0] + 2.0 * (even + math.fsum(f[1::2]))))
        t_2h.append(2.0 * h * (f[0] + 2.0 * even))
    return t_h, t_2h, grid


def verify_rates(
    omega0: float, a: float, mu: float, levels: Iterable[str], *, tol: float
) -> list[OracleReport]:
    """Compare quadrature and closed-form vf/cross rates for each of `levels`,
    one report per level in their order, all from the one line they share.

    Raises ConvergenceError, with the quadrature block as diagnostics,
    when |T_h - T_2h| of either rate exceeds tol times its value, and
    OverflowError when a rate leaves double range (from a ~ 2.9e62 on at
    omega0 = mu = 1, where the closed forms do too).
    """
    atoms = [TwoLevelAtom(omega0, level) for level in levels]
    if not (0 < a < math.inf):
        raise ValueError(f"acceleration must be positive and finite, got {a}")
    if not (0 < tol < math.inf):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    closed = [rates.rate_total(atom, a, mu) for atom in atoms]  # checks the coupling
    # A subnormal closed rate carries too few bits for a relative check.
    if any(min(abs(c.vf), abs(c.cross)) < sys.float_info.min for c in closed):
        raise ValueError(
            f"rates underflow to subnormal or zero at omega0={omega0}, "
            f"a={a}, mu={mu}"
        )
    t_h, t_2h, grid = _line_sums(omega0, a)
    # The scale -mu^2 omega0 (a/2)^5 from mantissas and one power of two.
    (mu_m, mu_e), (w_m, w_e) = math.frexp(mu), math.frexp(omega0)
    h_m, h_e = math.frexp(a / 2.0)
    pref, shift = -mu_m * mu_m * w_m * h_m * h_m * h_m * h_m, 2 * mu_e + w_e + 5 * h_e
    try:
        vf, cross, vf_2h, cross_2h = [
            math.ldexp(pref * (h_m * t), shift) for t in t_h + t_2h
        ]
    except OverflowError:
        raise OverflowError("quadrature value out of double range") from None
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
                f"{tol:.1e} x |{abs(value):.6e}|",
                quadrature,
            )
    reports = []
    for atom, c in zip(atoms, closed):
        # ground: -mu^2 omega_bd negates vf (see _line_sums)
        numeric_vf = -vf if atom.omega_bd < 0 else vf
        rel_err_vf = abs(numeric_vf - c.vf) / abs(c.vf)
        rel_err_cross = abs(cross - c.cross) / abs(c.cross)
        reports.append(OracleReport(
            numeric_vf=numeric_vf, closed_vf=c.vf, numeric_cross=cross,
            closed_cross=c.cross, rel_err_vf=rel_err_vf, rel_err_cross=rel_err_cross,
            quadrature=quadrature, passed=rel_err_vf < tol and rel_err_cross < tol,
        ))
    return reports
