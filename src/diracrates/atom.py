"""Two-level atom model: the single transition and susceptibility functions."""
import cmath
import math

LEVELS = ("ground", "excited")

# |<b|R2(0)|d>|^2 for the single transition of a two-level atom;
# R2 = i(R_- - R_+)/2 gives matrix element i/2, modulus squared 1/4.
CHANNEL_WEIGHT = 0.25


class TwoLevelAtom:
    """Level splitting omega0 and initial level: a frozen value, validated
    on construction, equal and hashed by (omega0, level).  omega_bd is the
    signed transition frequency omega_b - omega_d from the initial level:
    +omega0 down from the excited level, -omega0 up from the ground one.

    A slotted class, not a dataclass: `dataclasses` imports `inspect`,
    which would double what importing this package adds to the start-up
    of `rate` and `sweep`.
    """

    __slots__ = ("omega0", "level", "omega_bd")

    def __init__(self, omega0: float, level: str = "ground") -> None:
        if not (0 < omega0 < math.inf):
            raise ValueError(f"omega0 must be positive and finite, got {omega0}")
        if level not in LEVELS:
            names = " or ".join(map(repr, LEVELS))
            raise ValueError(f"level must be {names}, got {level!r}")
        object.__setattr__(self, "omega0", omega0)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "omega_bd", omega0 if level == "excited" else -omega0)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.omega0, self.level) == (other.omega0, other.level)

    def __hash__(self) -> int:
        return hash((self.omega0, self.level))

    def __repr__(self) -> str:
        return f"TwoLevelAtom(omega0={self.omega0!r}, level={self.level!r})"

    def __reduce__(self):
        return (self.__class__, (self.omega0, self.level))


def susceptibility_c(atom: TwoLevelAtom, dtau: complex) -> complex:
    """Symmetric atomic susceptibility W cos(omega_bd dtau), even in dtau;
    dtau may be complex."""
    return CHANNEL_WEIGHT * cmath.cos(atom.omega_bd * dtau)


def susceptibility_chi(atom: TwoLevelAtom, dtau: complex) -> complex:
    """Antisymmetric i W sin(omega_bd dtau), odd in dtau; sign flips with level."""
    return 1j * CHANNEL_WEIGHT * cmath.sin(atom.omega_bd * dtau)
