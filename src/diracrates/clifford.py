"""Gamma-matrix algebra in the Dirac representation.

Provides the four gamma matrices, Feynman-slash contraction, massive
spinors with their spin sums, and the boost matrices that implement
Fermi-Walker transport of spinors along a uniformly accelerated
worldline.  Everything is a plain 4x4 complex128 numpy array with copy
semantics; metric signature is (+,-,-,-).
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

# 4x4 complex numpy array; alias used in signatures for readability.
Matrix4C = np.ndarray

METRIC = np.diag([1.0, -1.0, -1.0, -1.0])

_ID2 = np.eye(2, dtype=complex)
_SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


@dataclass(frozen=True)
class FourVector:
    """Contravariant four-vector (t, x, y, z) in natural units."""

    t: float
    x: float
    y: float
    z: float

    def dot(self, other: "FourVector") -> float:
        return (
            self.t * other.t
            - self.x * other.x
            - self.y * other.y
            - self.z * other.z
        )

    @property
    def spatial_norm2(self) -> float:
        return self.x**2 + self.y**2 + self.z**2


def _build_gamma() -> tuple[Matrix4C, ...]:
    g0 = np.zeros((4, 4), dtype=complex)
    g0[:2, :2] = _ID2
    g0[2:, 2:] = -_ID2
    out = [g0]
    for sig in _SIGMA:
        g = np.zeros((4, 4), dtype=complex)
        g[:2, 2:] = sig
        g[2:, :2] = -sig
        out.append(g)
    return tuple(out)


_GAMMA = _build_gamma()
IDENTITY4 = np.eye(4, dtype=complex)


def gamma_matrix(mu: int) -> Matrix4C:
    """Return gamma^mu for mu in 0..3 (fresh copy)."""
    if mu not in (0, 1, 2, 3):
        raise ValueError(f"gamma index must be in 0..3, got {mu!r}")
    return _GAMMA[mu].copy()


def anticommutator(a: Matrix4C, b: Matrix4C) -> Matrix4C:
    return a @ b + b @ a


def slash(k: FourVector) -> Matrix4C:
    """Contraction k^mu gamma_mu with the index lowered by the metric."""
    return (
        k.t * _GAMMA[0] - k.x * _GAMMA[1] - k.y * _GAMMA[2] - k.z * _GAMMA[3]
    )


def boost_matrix(a: float, tau: complex) -> Matrix4C:
    """cosh(a tau/2) I + gamma^0 gamma^1 sinh(a tau/2), for real or complex tau.

    One-parameter group of boosts in the t-x plane; the spinor transport
    matrix along the accelerated worldline is this with tau negated
    (the transport generator carries lowered indices, gamma_0 gamma_1 =
    -gamma^0 gamma^1).
    """
    if a <= 0:
        raise ValueError(f"acceleration must be positive, got {a}")
    half = 0.5 * a * tau
    return cmath.cosh(half) * IDENTITY4 + cmath.sinh(half) * (_GAMMA[0] @ _GAMMA[1])


def _rest_spinor(s: int, lower: bool) -> np.ndarray:
    if s not in (1, 2):
        raise ValueError(f"spin index must be 1 or 2, got {s!r}")
    w = np.zeros(4, dtype=complex)
    w[s - 1 + (2 if lower else 0)] = 1.0
    return w


def _check_on_shell(k: FourVector, m: float) -> float:
    if m <= 0:
        raise ValueError(f"spinor mass must be positive, got {m}")
    omega = math.sqrt(k.spatial_norm2 + m * m)
    if abs(k.t - omega) > 1e-9 * omega:
        raise ValueError(
            f"momentum is off shell: k0={k.t}, sqrt(|k|^2+m^2)={omega}"
        )
    return omega


def spinor_u(k: FourVector, s: int, m: float) -> np.ndarray:
    """Particle spinor (slash(k)+m) u(0,s) / sqrt(2m(omega+m))."""
    omega = _check_on_shell(k, m)
    norm = math.sqrt(2.0 * m * (omega + m))
    return (slash(k) + m * IDENTITY4) @ _rest_spinor(s, lower=False) / norm


def spinor_v(k: FourVector, s: int, m: float) -> np.ndarray:
    """Antiparticle spinor (-slash(k)+m) v(0,s) / sqrt(2m(omega+m))."""
    omega = _check_on_shell(k, m)
    norm = math.sqrt(2.0 * m * (omega + m))
    return (-slash(k) + m * IDENTITY4) @ _rest_spinor(s, lower=True) / norm


def dirac_adjoint(psi: np.ndarray) -> np.ndarray:
    """psi-bar = psi^dagger gamma^0, as a row vector."""
    return psi.conj() @ _GAMMA[0]


def spin_sum_u(k: FourVector, m: float) -> Matrix4C:
    """Sum over spins of u u-bar, equals (slash(k)+m)/2m on shell."""
    return sum(
        np.outer(spinor_u(k, s, m), dirac_adjoint(spinor_u(k, s, m)))
        for s in (1, 2)
    )


def spin_sum_v(k: FourVector, m: float) -> Matrix4C:
    """Sum over spins of v v-bar, equals (slash(k)-m)/2m on shell."""
    return sum(
        np.outer(spinor_v(k, s, m), dirac_adjoint(spinor_v(k, s, m)))
        for s in (1, 2)
    )
