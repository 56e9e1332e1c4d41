"""Two-level atom model: transition channels and susceptibility functions."""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Literal

Level = Literal["ground", "excited"]

# |<b|R2(0)|d>|^2 for the single transition of a two-level atom;
# R2 = i(R_- - R_+)/2 gives matrix element i/2, modulus squared 1/4.
CHANNEL_WEIGHT = 0.25


@dataclass(frozen=True)
class TwoLevelAtom:
    omega0: float
    level: Level = "ground"

    def __post_init__(self) -> None:
        if not (0 < self.omega0 < math.inf):
            raise ValueError(f"omega0 must be positive and finite, got {self.omega0}")
        if self.level not in ("ground", "excited"):
            raise ValueError(f"level must be 'ground' or 'excited', got {self.level!r}")


@dataclass(frozen=True)
class TransitionChannel:
    """Signed transition frequency omega_b - omega_d and matrix-element weight."""

    omega_bd: float
    weight: float = CHANNEL_WEIGHT


def channels(atom: TwoLevelAtom) -> list[TransitionChannel]:
    """Transition channels from the atom's initial level.

    Kept as a list so rate sums read like the general multi-level sum,
    though a two-level atom has exactly one channel.
    """
    sign = 1.0 if atom.level == "excited" else -1.0
    return [TransitionChannel(omega_bd=sign * atom.omega0)]


def susceptibility_c(atom: TwoLevelAtom, dtau: float) -> complex:
    """Symmetric atomic susceptibility, even in dtau."""
    return 0.5 * sum(
        ch.weight
        * (cmath.exp(1j * ch.omega_bd * dtau) + cmath.exp(-1j * ch.omega_bd * dtau))
        for ch in channels(atom)
    )


def susceptibility_chi(atom: TwoLevelAtom, dtau: float) -> complex:
    """Antisymmetric atomic susceptibility, odd in dtau; sign flips with level."""
    return 0.5 * sum(
        ch.weight
        * (cmath.exp(1j * ch.omega_bd * dtau) - cmath.exp(-1j * ch.omega_bd * dtau))
        for ch in channels(atom)
    )
