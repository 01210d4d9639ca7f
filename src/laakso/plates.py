"""Conducting-plate configurations on constant-j Laakso spaces.

Two perfectly conducting plates are attached symmetrically to level-1
nodes of a j=N Laakso space, with Z nodes strictly between them, and then
moved to distance X0 from the center x = 1/2.  Moving the plates
compresses or stretches the interior and exterior regions; cell lengths
scale accordingly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


class PlateConfigError(ValueError):
    """Invalid conducting-plate configuration."""


@dataclass(frozen=True)
class PlateConfig:
    """Plate configuration (N, Z, X0) with quantum of action hbar.

    Parameters
    ----------
    N : int
        Constant subdivision count, j_n = N for all n.  N >= 2.
    Z : int
        Number of level-1 nodes strictly between the plates.
    x0 : float
        Distance from each plate to the center, 0 < x0 < 1/2.
    hbar : float
        Energy scale multiplying zero-point sums (default 1).

    The plates must attach to existing symmetric level-1 nodes, which
    forces Z <= N - 2 and N - (Z + 1) even.  There are then Z + 1
    interior cells and N - (Z + 1) exterior cells per row at level 1.
    """

    N: int
    Z: int
    x0: float
    hbar: float = 1.0

    def __post_init__(self):
        if int(self.N) != self.N or self.N < 2:
            raise PlateConfigError(f"N must be an integer >= 2, got {self.N}")
        if int(self.Z) != self.Z or self.Z < 0:
            raise PlateConfigError(f"Z must be a nonnegative integer, got {self.Z}")
        object.__setattr__(self, "N", int(self.N))
        object.__setattr__(self, "Z", int(self.Z))
        if self.Z > self.N - 2:
            raise PlateConfigError(
                f"Z={self.Z} leaves no room for plates on level-1 nodes of N={self.N}"
            )
        if (self.N - (self.Z + 1)) % 2 != 0:
            raise PlateConfigError(
                f"N - (Z+1) = {self.N - (self.Z + 1)} must be even for plates "
                "placed symmetrically about x = 1/2"
            )
        if not (0.0 < self.x0 < 0.5):
            raise PlateConfigError(f"x0 must lie in (0, 1/2), got {self.x0}")
        if not (math.isfinite(self.hbar) and self.hbar > 0):
            raise PlateConfigError(f"hbar must be finite and positive, got {self.hbar}")

    @property
    def left_node(self) -> int:
        """Level-1 column index of the left plate: (N - Z - 1)/2."""
        return (self.N - self.Z - 1) // 2

    @property
    def right_node(self) -> int:
        return self.N - self.left_node

    @property
    def x0_exact(self) -> Fraction:
        """The plate distance as the exact rational value of the float."""
        return Fraction(self.x0)

    def interior_scale(self) -> Fraction:
        """Interior cell lengths are interior_scale / I_n."""
        return 2 * self.N * self.x0_exact / (self.Z + 1)

    def exterior_scale(self) -> Fraction:
        """Exterior cell lengths are exterior_scale / I_n."""
        return (1 - 2 * self.x0_exact) / Fraction(self.N - (self.Z + 1), self.N)

    def outside_double_range(self, detail: str) -> ValueError:
        """The error for a quantity of this configuration that no double holds."""
        return ValueError(f"(N, Z, x0, hbar) = ({self.N}, {self.Z}, {self.x0!r}, "
                          f"{self.hbar!r}) is outside double range: {detail}")
