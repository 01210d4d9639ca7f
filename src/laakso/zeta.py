"""Spectral zeta functions of periodic Laakso spaces.

The spectral zeta function zeta_L(s) = sum g_k lambda_k^(-s) over the
nonzero spectrum converges for Re(2s) above the spectral dimension and
continues meromorphically.  For a repeating subdivision sequence of
period T the continuation is the closed form

    zeta_L(s) = zeta_R(2s)/pi^(2s) * [ sum_{p=2}^{T+1} (
        (I_T^(2s)/(I_T^(2s) - I_T 2^T)) * 2^(p-1) I_{p-1} (2^(2s-1)+j_p-1)/I_p^(2s)
      + (I_T^(2s)/(I_T^(2s) - 2^T))   * 2^(p-1) (3/2 2^(2s)-3)/I_p^(2s) )
      + (2^(2s+1)-4+j_1)/j_1^(2s) + 1 ],

with indices extended periodically, which `spectral_zeta_periodic`
evaluates.  Poles sit where the two geometric denominators vanish; their
largest real part is half the spectral dimension d_s = ln(2^T I_T)/ln(I_T)
(the frequency-variable convention doubles the pole abscissa).

`continued_sum` sums any family table given as per-level rows, as exact
geometric series whose bases are the pole lattices: over the free table
it is `table_zeta`, the closed form's oracle at every period; over the
plate table at s = -1/2 it gives the Casimir coefficients.
"""

from __future__ import annotations

import cmath
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

from .sequences import JSequence, level_products
from .spectra import SpectrumQuery, enumerate_families, free_families, free_level


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
    analytic continuation (so r = 2 gives -1).  Exact for rational r; a
    float r within 1e-9 of 1 raises PoleError.
    """
    exact = isinstance(r, (int, Fraction))
    if abs(1 - r) <= (0 if exact else 1e-9):
        raise PoleError(f"geometric series ratio {r} is at or too near the pole at 1")
    return Fraction(1, 1) / (1 - Fraction(r)) if exact else 1.0 / (1.0 - r)


def _zeta_any(s) -> complex:
    """zeta_R for arbitrary complex s (continuation via mpmath off-domain)."""
    if s == 1:
        raise PoleError("zeta_R has a pole at 1")
    if s == -1 or s == 0:
        return complex(float(riemann_zeta(s)), 0.0)
    re = s.real if isinstance(s, complex) else s
    if re > 1:
        return complex(riemann_zeta(s))
    import mpmath       # only this branch uses it; see `laakso.cli._cmd_zeta`
    return complex(mpmath.zeta(complex(s)))


def _periodic_products(seq: JSequence) -> tuple[int, list[int], list[int]]:
    if not seq.periodic:
        raise ValueError("a periodic subdivision sequence is required")
    T = len(seq.values)
    products = level_products(seq, T + 1)
    js = [seq.j(i) for i in range(1, T + 2)]
    return T, products, js


def spectral_zeta_periodic(seq: JSequence, s) -> ZetaValue:
    """Evaluate the continued spectral zeta function of a periodic space.

    Raises PoleError at s = 1/2 (see `zeta_limit_half`) and on (or too
    near) the pole lattice, where I_T^(2s) meets I_T 2^T or 2^T, and
    ValueError where a power or the value leaves double range (|Re s|
    near 100 and beyond).  For real s, a round-off imaginary part is dropped.
    """
    T, products, js = _periodic_products(seq)
    s = complex(s)
    if s == 0.5:
        raise PoleError("s = 1/2 is a removable singularity; "
                        "use zeta_limit_half for the limit value")
    I_T = products[T]
    t = 2 * s
    try:
        IT2s = complex(I_T) ** t
        den_loop = IT2s - I_T * 2**T
        den_cross = IT2s - 2**T
        for den in (den_loop, den_cross):
            if abs(den) <= 1e-9 * max(abs(IT2s), 1.0):
                raise PoleError(f"s = {s} lies on the pole lattice")
        c = 2.0**t if t.imag == 0 else cmath.exp(t * math.log(2))
        bracket = 0j
        for p in range(2, T + 2):
            I_p, I_prev, j_p = products[p], products[p - 1], js[p - 1]
            Ip2s = complex(I_p) ** t
            bracket += (IT2s / den_loop) * (2 ** (p - 1) * I_prev * (c / 2 + j_p - 1)) / Ip2s
            bracket += (IT2s / den_cross) * (2 ** (p - 1) * (1.5 * c - 3)) / Ip2s
        j1 = js[0]
        bracket += (2 * c - 4 + j1) / complex(j1) ** t + 1
        v = _zeta_any(t) * bracket / complex(math.pi) ** t
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


def _exact_sqrt(q: Fraction) -> Fraction:
    """The rational square root of q; raises ArithmeticError if q has none."""
    root = Fraction(math.isqrt(abs(q.numerator)), math.isqrt(q.denominator))
    if root * root != q:
        raise ArithmeticError(f"{q} has no rational square root")
    return root


def _geometric_terms(a) -> list[tuple[Fraction, Fraction]]:
    """Exact (c, B) pairs, at most two, with a[m] = sum c B^m for every m.

    Fitted on a[0..3] through the recurrence a[m+2] = e1 a[m+1] + e0 a[m]
    and checked on every a[m]; raises ArithmeticError when that fails.
    """
    a = [Fraction(x) for x in a]
    det = a[1] * a[1] - a[0] * a[2]
    if det:                         # the bases solve B^2 = e1 B + e0
        e1 = (a[1] * a[2] - a[0] * a[3]) / det
        e0 = (a[1] * a[3] - a[2] * a[2]) / det
        root = _exact_sqrt(e1 * e1 + 4 * e0)
        B1, B2 = (e1 + root) / 2, (e1 - root) / 2
        c2 = (a[1] - a[0] * B1) / (B2 - B1)     # ZeroDivisionError at a double root
        terms = [(a[0] - c2, B1), (c2, B2)]
    else:
        terms = [(a[0], a[1] / a[0])] if a[0] else []
    if any(sum(c * B**m for c, B in terms) != x for m, x in enumerate(a)):
        raise ArithmeticError(f"{list(map(str, a))} is not a sum of at most two geometric terms")
    return terms


def continued_sum(level, first: int, T: int, I_T: int, power, kfac) -> dict:
    """A family table's zeta sum over all levels, continued; one total per region.

    level(n) returns the rows of level n.  A row adds multiplicity *
    kfac[half] * power(rate), where power(x) is x^(-s) and kfac holds the
    continued sums of k^(-2s), k >= 1, and (k + 1/2)^(-2s), k >= 0.
    Levels below `first` are summed directly.  On each residue class p
    from `first` on, levels p + mT must repeat the families with rates
    times I_T^2; each multiplicity sum c B^m (`_geometric_terms`) then
    adds c * geometric_continuation(B * power(I_T^2)), whose poles are
    the zeta poles (Lapidus & van Frankenhuijsen; Steinhurst & Teplyaev).
    """
    totals = defaultdict(int)
    for n in range(first):
        for fam in level(n):
            totals[fam.region] += fam.multiplicity * kfac[fam.half] * power(fam.rate)
    ratio = power(I_T * I_T)
    for p in range(first, first + T):
        for rows in zip(*(level(p + m * T) for m in range(5)), strict=True):
            fam = rows[0]
            if any(f.name != fam.name or f.rate != fam.rate * I_T ** (2 * m)
                   for m, f in enumerate(rows)):
                raise ArithmeticError(f"{fam.name} at level {p} does not repeat every {T} levels")
            for c, B in _geometric_terms([f.multiplicity for f in rows]):
                totals[fam.region] += (c * kfac[fam.half] * power(fam.rate)
                                       * geometric_continuation(B * ratio))
    return totals


def table_zeta(seq: JSequence, s) -> complex:
    """zeta_L(s) as `continued_sum` over `free_level`, divided by pi^(2s): an
    independent oracle for `spectral_zeta_periodic` at any period.  Raises
    PoleError at s = 1/2 and on the poles."""
    T, products, _ = _periodic_products(seq)
    t = 2 * complex(s)
    z = _zeta_any(t)
    totals = continued_sum(lambda n: free_level(seq, n, math.prod(seq.prefix(n - 1))),
                           2, T, products[T], lambda x: complex(x) ** (-t / 2),
                           (z, (2**t - 1) * z))
    return totals["unit"] / complex(math.pi) ** t


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
