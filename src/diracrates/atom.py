"""Two-level atom model: the single transition and susceptibility functions."""
import cmath
import math
from collections import namedtuple

LEVELS = ("ground", "excited")

# |<b|R2(0)|d>|^2 for the single transition of a two-level atom;
# R2 = i(R_- - R_+)/2 gives matrix element i/2, modulus squared 1/4.
CHANNEL_WEIGHT = 0.25


class TwoLevelAtom(namedtuple("TwoLevelAtom", "omega0 level")):
    """Level splitting omega0 and initial level, validated on construction.
    omega_bd is the signed transition frequency omega_b - omega_d from the
    initial level: +omega0 down from the excited level, -omega0 up from the
    ground one.
    """

    __slots__ = ()

    def __new__(cls, omega0: float, level: str = "ground"):
        if not (0 < omega0 < math.inf):
            raise ValueError(f"omega0 must be positive and finite, got {omega0}")
        if level not in LEVELS:
            names = " or ".join(map(repr, LEVELS))
            raise ValueError(f"level must be {names}, got {level!r}")
        return super().__new__(cls, omega0, level)

    @classmethod
    def _make(cls, iterable):
        # namedtuple's own _make, which _replace calls, skips __new__.
        return cls(*iterable)

    @property
    def omega_bd(self) -> float:
        return self.omega0 if self.level == "excited" else -self.omega0


def susceptibility_c(omega_bd: float, dtau: complex) -> complex:
    """Symmetric atomic susceptibility W cos(omega_bd dtau), even in dtau;
    dtau may be complex."""
    return CHANNEL_WEIGHT * cmath.cos(omega_bd * dtau)


def susceptibility_chi(omega_bd: float, dtau: complex) -> complex:
    """Antisymmetric i W sin(omega_bd dtau), odd in dtau; sign flips with omega_bd."""
    return 1j * CHANNEL_WEIGHT * cmath.sin(omega_bd * dtau)
