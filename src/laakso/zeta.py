"""Spectral zeta functions of periodic Laakso spaces.

The spectral zeta function zeta_L(s) = sum g_k lambda_k^(-s) over the
nonzero spectrum converges for Re(2s) above the spectral dimension and
continues meromorphically.  For a repeating subdivision sequence of
period T the continuation is the closed form

    zeta_L(s) = zeta_R(2s)/pi^(2s) * [ sum_{p=2}^{T+1} (
        (I_T^(2s)/(I_T^(2s) - I_T 2^T)) * 2^(p-1) I_{p-1} (2^(2s-1)+j_p-1)/I_p^(2s)
      + (I_T^(2s)/(I_T^(2s) - 2^T))   * 2^(p-1) (3/2 2^(2s)-3)/I_p^(2s) )
      + (2^(2s+1)-4+j_1)/j_1^(2s) + 1 ],

with indices extended periodically.  Poles sit where the two geometric
denominators vanish; their largest real part is half the spectral
dimension d_s = ln(2^T I_T)/ln(I_T) (the frequency-variable convention
doubles the pole abscissa).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .sequences import JSequence, level_products
from .spectra import SpectrumQuery, enumerate_families, free_families


class PoleError(ZeroDivisionError):
    """Evaluation requested at or too close to a pole."""


@dataclass(frozen=True)
class ZetaValue:
    s: complex
    value: complex
    mode: str           # 'series' in the convergent half-plane, else 'continued'


_BERNOULLI = [Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
              Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6)]


def riemann_zeta(s):
    """zeta_R(s) on the arguments the library needs.

    Exact rationals at the continuation points s = -1 (-1/12) and s = 0
    (-1/2); for Re(s) > 1 the Dirichlet series with an Euler-Maclaurin
    tail correction.  Other arguments raise.  The tail has a fixed number
    of terms, so the error grows with |Im s| and is worst near Re(s) = 1.
    Measured against mpmath.zeta on 1 < Re(s) <= 4, relative to
    max(1, |zeta_R(s)|): below 2e-14 for |Im s| <= 40, 5e-12 for
    |Im s| <= 60 (2.2e-12 at 1.2+60i), 1e-8 for |Im s| <= 100
    (6.3e-12 at 3+100i) and 2e-7 for |Im s| <= 120 (8.7e-10 at 2.4+120i,
    where the spectral zeta at s = 1.2+60i evaluates it).
    """
    if s == -1:
        return Fraction(-1, 12)
    if s == 0:
        return Fraction(-1, 2)
    if isinstance(s, complex):
        if s.real <= 1:
            raise ValueError(f"zeta_R at {s} is outside the supported domain")
    elif s <= 1:
        raise ValueError(f"zeta_R at {s} is outside the supported domain")
    N = 40
    total = sum(k ** (-s) for k in range(1, N))
    total += N ** (1 - s) / (s - 1) + N ** (-s) / 2
    # tail: sum_r B_2r/(2r)! * s(s+1)...(s+2r-2) * N^(-s-2r+1)
    rising = 1.0
    fact = 1.0
    for r, b2r in enumerate(_BERNOULLI, start=1):
        rising = rising * (s + 2 * r - 3) * (s + 2 * r - 2) if r > 1 else s
        fact *= (2 * r) * (2 * r - 1)
        total += float(b2r) / fact * rising * N ** (-s - 2 * r + 1)
    return total


def hurwitz_half_sum(s):
    """Continuation of sum_{k>=0} (k + 1/2)^(-s), via (2^s - 1) zeta_R(s).

    Exact rationals at s = -1 (1/24) and s = 0 (0); same domain as
    `riemann_zeta` otherwise.
    """
    if s == -1:
        return (Fraction(1, 2) - 1) * Fraction(-1, 12)
    if s == 0:
        return Fraction(0)
    return (2**s - 1) * riemann_zeta(s)


def geometric_continuation(r):
    """The value 1/(1 - r) assigned to sum_{n>=0} r^n for any r != 1.

    Inside the unit disc this is the actual sum; outside it is the
    analytic continuation (so r = 2 gives -1).  Exact for rational r.
    """
    if r == 1:
        raise PoleError("geometric series has a pole at ratio 1")
    if isinstance(r, (int, Fraction)):
        return Fraction(1, 1) / (1 - Fraction(r))
    return 1.0 / (1.0 - r)


def _zeta_any(s) -> complex:
    """zeta_R for arbitrary complex s (continuation via mpmath off-domain)."""
    if s == -1 or s == 0:
        return complex(float(riemann_zeta(s)), 0.0)
    re = s.real if isinstance(s, complex) else s
    if re > 1:
        return complex(riemann_zeta(s))
    return complex(mpmath.zeta(complex(s)))


def _periodic_products(seq: JSequence) -> tuple[int, list[int], list[int]]:
    if not seq.periodic:
        raise ValueError("a periodic subdivision sequence is required")
    T = len(seq.values)
    products = level_products(seq, T + 1)
    js = [seq.j(i) for i in range(1, T + 2)]
    return T, products, js


def _closed_form(seq: JSequence, s, value) -> ZetaValue:
    """The steps every closed form shares, around its own arithmetic.

    Rejects s = 1/2 (see `zeta_limit_half`) and s on the pole lattice,
    where I_T^(2s) meets I_T 2^T or 2^T.  Then evaluates
    value(t, I_T^t, I_T^t - I_T 2^T, I_T^t - 2^T) at t = 2s, tags the
    mode and, for real s, drops an imaginary part that is round-off.
    A power that overflows or underflows to a zero divisor, or a value
    that is not finite (|Re s| near 100 and beyond), raises ValueError.
    """
    s = complex(s)
    if s == 0.5:
        raise PoleError("s = 1/2 is a removable singularity; "
                        "use zeta_limit_half for the limit value")
    T, I_T = len(seq.values), math.prod(seq.values)
    t = 2 * s
    try:
        IT2s = complex(I_T) ** t
        den_loop = IT2s - I_T * 2**T
        den_cross = IT2s - 2**T
        for den in (den_loop, den_cross):
            if abs(den) <= 1e-9 * max(abs(IT2s), 1.0):
                raise PoleError(f"s = {s} lies on the pole lattice")
        v = value(t, IT2s, den_loop, den_cross)
        if not cmath.isfinite(v):
            raise OverflowError(f"the value rounds to {v}")
    except PoleError:
        raise
    except (OverflowError, ZeroDivisionError) as exc:
        raise ValueError(f"s = {s} is outside the range the closed form can "
                         f"evaluate in double precision ({exc})") from exc
    mode = "series" if s.real * 2 > spectral_dimension(seq) else "continued"
    if abs(v.imag) < 1e-13 * max(1.0, abs(v.real)) and s.imag == 0:
        v = complex(v.real, 0.0)
    return ZetaValue(s, v, mode)


def spectral_zeta_periodic(seq: JSequence, s) -> ZetaValue:
    """Evaluate the continued spectral zeta function of a periodic space.

    Raises PoleError at (or too near) the pole lattice, and rejects
    s = 1/2, whose finite limit is computed by `zeta_limit_half`.
    """
    T, products, js = _periodic_products(seq)

    def value(t, IT2s, den_loop, den_cross):
        c = 2.0**t if t.imag == 0 else cmath.exp(t * math.log(2))
        bracket = 0j
        for p in range(2, T + 2):
            I_p, I_prev, j_p = products[p], products[p - 1], js[p - 1]
            Ip2s = complex(I_p) ** t
            bracket += (IT2s / den_loop) * (2 ** (p - 1) * I_prev * (c / 2 + j_p - 1)) / Ip2s
            bracket += (IT2s / den_cross) * (2 ** (p - 1) * (1.5 * c - 3)) / Ip2s
        j1 = js[0]
        bracket += (2 * c - 4 + j1) / complex(j1) ** t + 1
        return _zeta_any(t) * bracket / complex(math.pi) ** t

    return _closed_form(seq, s, value)


def constant_j_zeta(j: int, s) -> ZetaValue:
    """Closed form of the spectral zeta function for constant j_n = j.

    Single rational expression in y = j^(2s) and c = 2^(2s):

        zeta_L(s) = zeta_R(2s)/pi^(2s) *
            (y^2 - jy + 2cy - 6y - 3cj + 8j - c + 2) / ((y - 2j)(y - 2)).
    """
    if j < 2:
        raise ValueError(f"j must be >= 2, got {j}")

    def value(t, y, y_minus_2j, y_minus_2):
        c = complex(2) ** t
        num = y * y - j * y + 2 * c * y - 6 * y - 3 * c * j + 8 * j - c + 2
        return _zeta_any(t) * num / (y_minus_2j * y_minus_2) / complex(math.pi) ** t

    return _closed_form(JSequence((j,), periodic=True), s, value)


def period2_zeta(j1: int, j2: int, s) -> ZetaValue:
    """Closed form of the spectral zeta function for period-2 sequences."""
    if j1 < 2 or j2 < 2:
        raise ValueError("subdivision counts must be >= 2")

    def value(t, I2s, den_loop, den_cross):
        j1s = complex(j1) ** t
        c = complex(2) ** t
        bracket = (2 * j1 / den_loop) * (c / 2 + j2 - 1
                                         + 2 * j2 * (c / 2 + j1 - 1) / j1s)
        bracket += ((3 * c - 6) / den_cross) * (1 + 2 / j1s)
        bracket += (2 * c - 4 + j1) / j1s + 1
        return _zeta_any(t) * bracket / complex(math.pi) ** t

    return _closed_form(JSequence((j1, j2), periodic=True), s, value)


def zeta_limit_half(seq: JSequence) -> float:
    """The finite limit of zeta_L(s) as s -> 1/2.

    The bracket of the closed form vanishes at s = 1/2 against the
    simple pole of zeta_R(2s), leaving a finite value for every periodic
    space except constant j = 2, where a geometric denominator vanishes
    as well and the limit does not exist.
    """
    T, products, js = _periodic_products(seq)
    if all(v == 2 for v in seq.values):
        raise PoleError("the constant j = 2 space is excluded: "
                        "zeta_L has a pole at s = 1/2 there")
    I_T = products[T]
    ln2 = math.log(2.0)
    total = 0.0
    for p in range(2, T + 2):
        I_p, j_p = products[p], js[p - 1]
        total += 2**p * ln2 / (j_p * (1 - 2**T))
        total -= 2**p * math.log(I_p) / (1 - 2**T)
        total += 2**p * I_T * 3 * ln2 / (I_p * (I_T - 2**T))
    total += 2 ** (T + 2) * math.log(I_T) / (1 - 2**T)
    total += 8 * ln2 / js[0] - 2 * math.log(js[0])
    return total / (2 * math.pi)


def zeta_poles(seq: JSequence, m_values=(-1, 0, 1)) -> list[complex]:
    """Pole lattice of the continued spectral zeta function.

    Two vertical lattices, (ln(2^T I_T) + 2 pi i m)/ln(I_T^2) and
    (ln(2^T) + 2 pi i m)/ln(I_T^2); these zero the geometric
    denominators I_T^(2s) - I_T 2^T and I_T^(2s) - 2^T respectively,
    which are periodic in Im s with period 2 pi / ln(I_T^2).
    """
    T, products, _ = _periodic_products(seq)
    I_T = products[T]
    den = math.log(I_T**2)
    out = []
    for m in sorted(m_values):
        out.append(complex(math.log(2**T * I_T), 2 * math.pi * m) / den)
        out.append(complex(math.log(2**T), 2 * math.pi * m) / den)
    return out


def spectral_dimension(seq: JSequence) -> float:
    """Spectral dimension d_s = ln(2^T I_T)/ln(I_T) of a periodic space.

    Equals twice the largest real part of the `zeta_poles` lattice (the
    factor two converts between the eigenvalue- and frequency-variable
    conventions for the zeta argument).
    """
    T, products, _ = _periodic_products(seq)
    I_T = products[T]
    return math.log(2**T * I_T) / math.log(I_T)


def spectral_zeta_direct(seq: JSequence, s: float, lambda_max: float = 1e10) -> float:
    """Brute-force partial sum of g lambda^(-s) over the explicit spectrum.

    Only valid in the convergent region (real s with 2s above the
    spectral dimension); serves as an independent check of the closed
    form.  The truncation error is O(lambda_max^(1/2 - s)).
    """
    if seq.periodic and 2 * s <= spectral_dimension(seq):
        raise ValueError("direct series diverges at this s")
    lambda_max = SpectrumQuery(lambda_max).lambda_max    # validated ceiling
    lines = enumerate_families(free_families(seq, lambda_max), lambda_max)
    keep = lines.lam > 0
    return math.fsum((lines.mult[keep] * lines.lam[keep] ** (-s)).tolist())
