"""Gamma-matrix algebra in the Dirac representation.

Provides the four gamma matrices and the boost matrices that implement
Fermi-Walker transport of spinors along a uniformly accelerated
worldline.  Everything runs on the standard library: a matrix is an
immutable tuple of four row tuples of Python complex, and `matmul`,
`combine` and `scale` are the only arithmetic on them.  Metric signature
is (+,-,-,-).
"""
import cmath
import math

# A 4x4 complex matrix: four row tuples of four Python complex.
Matrix4C = tuple[tuple[complex, ...], ...]

METRIC = (
    (1.0, 0.0, 0.0, 0.0),
    (0.0, -1.0, 0.0, 0.0),
    (0.0, 0.0, -1.0, 0.0),
    (0.0, 0.0, 0.0, -1.0),
)


def _matrix(*rows) -> Matrix4C:
    return tuple(tuple(complex(x) for x in row) for row in rows)


IDENTITY4 = _matrix((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


# The helpers below spell out the four entries of a row: in pure Python
# that is about twice as fast as a nested comprehension.


def matmul(a: Matrix4C, b: Matrix4C) -> Matrix4C:
    """The matrix product a b."""
    (
        (b00, b01, b02, b03),
        (b10, b11, b12, b13),
        (b20, b21, b22, b23),
        (b30, b31, b32, b33),
    ) = b
    return tuple([(
        r0 * b00 + r1 * b10 + r2 * b20 + r3 * b30,
        r0 * b01 + r1 * b11 + r2 * b21 + r3 * b31,
        r0 * b02 + r1 * b12 + r2 * b22 + r3 * b32,
        r0 * b03 + r1 * b13 + r2 * b23 + r3 * b33,
    ) for r0, r1, r2, r3 in a])


def combine(ca: complex, a: Matrix4C, cb: complex, b: Matrix4C) -> Matrix4C:
    """The linear combination ca a + cb b."""
    return tuple([
        (ca * x0 + cb * y0, ca * x1 + cb * y1, ca * x2 + cb * y2, ca * x3 + cb * y3)
        for (x0, x1, x2, x3), (y0, y1, y2, y3) in zip(a, b)
    ])


def scale(c: complex, a: Matrix4C) -> Matrix4C:
    """The matrix c a."""
    return tuple([(c * x0, c * x1, c * x2, c * x3) for x0, x1, x2, x3 in a])


# Dirac representation: gamma^0 = diag(I, -I), and gamma^k has sigma^k in
# its upper right block and -sigma^k in its lower left one.
_GAMMA = (
    _matrix((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1)),
    _matrix((0, 0, 0, 1), (0, 0, 1, 0), (0, -1, 0, 0), (-1, 0, 0, 0)),
    _matrix((0, 0, 0, -1j), (0, 0, 1j, 0), (0, 1j, 0, 0), (-1j, 0, 0, 0)),
    _matrix((0, 0, 1, 0), (0, 0, 0, -1), (-1, 0, 0, 0), (0, 1, 0, 0)),
)
# gamma^0 gamma^1, the generator of boosts in the t-x plane
_G0G1 = matmul(_GAMMA[0], _GAMMA[1])


def gamma_matrix(mu: int) -> Matrix4C:
    """Return gamma^mu for mu in 0..3."""
    if mu not in (0, 1, 2, 3):
        raise ValueError(f"gamma index must be in 0..3, got {mu!r}")
    return _GAMMA[mu]


def anticommutator(a: Matrix4C, b: Matrix4C) -> Matrix4C:
    return combine(1.0, matmul(a, b), 1.0, matmul(b, a))


def boost_matrix(a: float, tau: complex) -> Matrix4C:
    """cosh(a tau/2) I + gamma^0 gamma^1 sinh(a tau/2), for real or complex tau.

    One-parameter group of boosts in the t-x plane; the spinor transport
    matrix along the accelerated worldline is this with tau negated
    (the transport generator carries lowered indices, gamma_0 gamma_1 =
    -gamma^0 gamma^1).
    """
    if not 0 < a < math.inf:
        raise ValueError(f"acceleration must be positive and finite, got {a}")
    if not cmath.isfinite(tau):
        raise ValueError(f"tau must be finite, got {tau}")
    half = 0.5 * a * tau
    return combine(cmath.cosh(half), IDENTITY4, cmath.sinh(half), _G0G1)
