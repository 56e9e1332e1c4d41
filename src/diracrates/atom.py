"""Two-level atom model: the single transition and susceptibility functions."""
from __future__ import annotations

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

    @property
    def omega_bd(self) -> float:
        """Signed transition frequency omega_b - omega_d from the initial level:
        +omega0 down from the excited level, -omega0 up from the ground one."""
        return self.omega0 if self.level == "excited" else -self.omega0


def susceptibility_c(atom: TwoLevelAtom, dtau: complex) -> complex:
    """Symmetric atomic susceptibility W cos(omega_bd dtau), even in dtau.

    dtau may be complex or an ndarray.  numpy is imported on call, so that
    importing this module, as `rate` and `sweep` do, does not load it.
    """
    import numpy as np
    return CHANNEL_WEIGHT * np.cos(atom.omega_bd * dtau)


def susceptibility_chi(atom: TwoLevelAtom, dtau: complex) -> complex:
    """Antisymmetric i W sin(omega_bd dtau), odd in dtau; sign flips with level."""
    import numpy as np
    return 1j * CHANNEL_WEIGHT * np.sin(atom.omega_bd * dtau)
