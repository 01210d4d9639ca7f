"""Regularized Casimir energy and force for conducting plates.

The zero-point energy (hbar/2) sum of sqrt(lambda) over the plate
spectrum diverges; it is regularized by evaluating the spectral zeta
function at s = -1/2.  The coefficients come from the plate family
table (`laakso.spectra.plate_level`) summed by
`laakso.zeta.continued_sum`, with the continued values
zeta_R(-1) = -1/12, sum (k+1/2) -> 1/24 and sum r^n -> 1/(1-r).  Every
family scales as 1/x0 or 1/(1-2x0) at s = -1/2, so the energy decomposes
exactly as

    E(x0) = a/x0 + b/(1 - 2 x0),

with a and b rational multiples of hbar*pi depending only on (N, Z).
The force on each plate is dE/dx0 (positive = attractive); the exact
derivative -a/x0^2 + 2b/(1-2x0)^2 is the authoritative value.  A
transcribed 14-term closed form is also evaluated for comparison: one of
its terms carries no factor of pi, so it departs from the energy
derivative unless N = Z + 3, and the result reports both values with an
agreement flag instead of silently preferring either.  A configuration
whose energy or force does not fit in a double raises ValueError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .plates import PlateConfig
from .spectra import plate_level
from .zeta import _exact_sqrt, continued_sum, hurwitz_half_sum, riemann_zeta


@dataclass(frozen=True)
class RegularizedEnergy:
    a: float            # coefficient of 1/x0
    b: float            # coefficient of 1/(1 - 2 x0)
    total: float

    def at(self, x0: float) -> float:
        return self.a / x0 + self.b / (1 - 2 * x0)


@dataclass(frozen=True)
class CasimirForce:
    force: float          # transcribed closed form
    oracle_force: float   # d/dx0 of the regularized energy (authoritative)
    agreement: float      # relative difference
    consistent: bool      # agreement <= 1e-6


@functools.cache
def plate_zeta_coefficients(N: int, Z: int) -> tuple[Fraction, Fraction]:
    """Exact (A, B) with zeta_{N,x0,Z}(-1/2) = pi (A/x0 + B/(1-2x0)).

    `continued_sum` over `plate_level` at s = -1/2, where every rate^(1/2)
    is rational.  Cached, so energy and force share one evaluation.
    """
    totals = continued_sum(lambda n: plate_level(N, Z, n), 2, 1, N, _exact_sqrt,
                           (riemann_zeta(-1), hurwitz_half_sum(-1)))
    return totals["interior"], totals["exterior"]


def _in_double_range(cfg: PlateConfig, *values: float) -> tuple[float, ...]:
    """The values, if all are finite doubles; else ValueError naming cfg."""
    if not all(map(math.isfinite, values)):
        raise cfg.outside_double_range(f"{min(values, key=math.isfinite)} in the result")
    return values


def plate_zeta_energy(cfg: PlateConfig) -> RegularizedEnergy:
    """Casimir energy (hbar/2) zeta(-1/2) of the plate configuration.

    Returns the exact decomposition E = a/x0 + b/(1-2x0); a and b do not
    depend on x0.
    """
    A, B = plate_zeta_coefficients(cfg.N, cfg.Z)
    a = cfg.hbar * math.pi * float(A) / 2
    b = cfg.hbar * math.pi * float(B) / 2
    return RegularizedEnergy(*_in_double_range(cfg, a, b, a / cfg.x0 + b / (1 - 2 * cfg.x0)))


@functools.cache
def _force_coefficients(N: int, Z: int) -> tuple[Fraction, Fraction, Fraction]:
    """Exact coefficients of the transcribed 14-term force expression.

    F = hbar [ pi (Api/x0^2 + Bpi/(1-2x0)^2) + Bfree/(1-2x0)^2 ];
    Bfree is the one term published without a factor of pi.  Cached, as
    `plate_zeta_coefficients` is: they depend on (N, Z) alone.
    """
    alpha = Fraction(N - Z - 1, N)
    d2N = Fraction(1, 1 - 2 * N)
    d2N2 = Fraction(1, 1 - 2 * N * N)

    Api = (Fraction((Z + 1) ** 2, 48)
           + Fraction(N * (Z + 1) ** 2 * (N - 2), 24) * d2N2
           + Fraction(5 * N * (Z + 1) ** 2, 96) * d2N2
           + Fraction(1, 48)
           + Fraction(N * (Z + 1), 96) * d2N
           + Fraction((Z + 1) * N, 48) * d2N)
    Bpi = (Fraction(2 * (N - (Z + 1)), 24) * d2N
           - Fraction(2 * N**3 * (N - 2), 12) * d2N2 * alpha**2
           - Fraction(5, 24) * alpha * (N**2 * (N - (Z + 1)) * d2N2 - N**2 * d2N)
           + Fraction(1, 6)
           - Fraction(N**2, 24) * alpha * d2N
           - Fraction(N**2, 12) * alpha * d2N)
    Bfree = Fraction(-(N - (Z + 3)) * (N - (Z + 1)), 12)
    return Api, Bpi, Bfree


def casimir_force(cfg: PlateConfig) -> CasimirForce:
    """Casimir force on each plate; positive values mean attraction.

    `oracle_force` is the closed-form derivative of the regularized
    energy and is the authoritative number.  `force` evaluates the
    transcribed 14-term expression; when they disagree (any N != Z + 3,
    where the pi-less term is active) `consistent` is False and both are
    reported.
    """
    A, B = plate_zeta_coefficients(cfg.N, cfg.Z)
    Api, Bpi, Bfree = _force_coefficients(cfg.N, cfg.Z)
    x0 = cfg.x0
    if x0**2 == 0:                          # 1/x0^2 overflows: raise
        _in_double_range(cfg, math.inf)
    oracle = cfg.hbar * math.pi * float(-A / 2) / x0**2 \
        + cfg.hbar * math.pi * float(B) / (1 - 2 * x0) ** 2
    transcribed = cfg.hbar * (
        math.pi * (float(Api) / x0**2 + float(Bpi) / (1 - 2 * x0) ** 2)
        + float(Bfree) / (1 - 2 * x0) ** 2)

    agreement = abs(transcribed - oracle) / max(abs(oracle), 1e-300)
    _in_double_range(cfg, oracle, transcribed, agreement)
    return CasimirForce(transcribed, oracle, agreement, agreement <= 1e-6)
