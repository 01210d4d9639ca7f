"""Spectral zeta closed forms, continuation values, poles, dimensions."""

import cmath
import math
import struct
from fractions import Fraction

import bench_data
import pytest

from laakso import (
    JSequence,
    PoleError,
    geometric_continuation,
    hurwitz_half_sum,
    level_products,
    riemann_zeta,
    spectral_dimension,
    spectral_zeta_direct,
    spectral_zeta_periodic,
    table_zeta,
    zeta_limit_half,
    zeta_poles,
)
from laakso.spectra import free_level
from laakso.zeta import _geometric_terms, _zeta_any, _zeta_at

SEQ2 = JSequence((2,), periodic=True)
SEQ3 = JSequence((3,), periodic=True)
SEQ23 = JSequence((2, 3), periodic=True)

# evaluation points for the identity checks, including the corners they are
# required to cover.  Some lie on a pole lattice: for j = 4, I_T^(2s) = 4^(2s)
# zeroes the cross denominator at s = 0.25 and the loop denominator at
# s = 0.75.  The reduction tests require PoleError from both forms there.
SAMPLE_POINTS = [
    -0.5, -0.25, 0.25, 0.4, 0.75, 1.5, 2.0, 2.5, 3.0, 4.0,
    2 + 1j, 2 - 1j, 1 + 0.5j, -0.5 + 0.3j, 0.3 - 0.7j,
    1.7 + 2j, 3 + 0.25j, 0.6 + 1.2j, -0.3 - 0.4j, 2.2 - 1.4j,
]


def test_riemann_special_values_exact():
    assert riemann_zeta(-1) == Fraction(-1, 12)
    assert riemann_zeta(0) == Fraction(-1, 2)


def test_riemann_series_values():
    assert riemann_zeta(2) == pytest.approx(math.pi**2 / 6, abs=1e-12)
    assert riemann_zeta(4) == pytest.approx(math.pi**4 / 90, abs=1e-12)
    assert riemann_zeta(3) == pytest.approx(1.2020569031595942854, abs=1e-12)
    # complex arguments in the convergent half-plane
    got = riemann_zeta(4 + 2j)
    import mpmath
    want = complex(mpmath.zeta(4 + 2j))
    assert abs(got - want) < 1e-12


@pytest.mark.parametrize("s,bound", [
    (1.0 + 1e-9, 2e-14),          # next to the pole: relative to |zeta|
    (1.01 + 40j, 2e-14),
    (2.5 - 33j, 2e-14),
    (1.2 + 60j, 5e-12),
    (1.2 - 60j, 5e-12),
    (3 + 100j, 1e-8),
    (1.01 + 100j, 1e-8),
    (2.4 + 120j, 2e-7),
    (1.01 + 120j, 2e-7),
])
def test_riemann_error_bound_against_mpmath(s, bound):
    # the bounds the docstring states, at the points where they are tightest
    import mpmath
    want = complex(mpmath.zeta(s))
    assert abs(riemann_zeta(s) - want) <= bound * max(1.0, abs(want))


def test_riemann_rejects_off_domain():
    with pytest.raises(ValueError):
        riemann_zeta(0.5)
    with pytest.raises(ValueError):
        riemann_zeta(-2)
    with pytest.raises(ValueError):
        riemann_zeta(1.0)
    with pytest.raises(ValueError):
        riemann_zeta(2.4 + 121j)
    for nan in (math.nan, complex(math.nan, 0.0), complex(2.0, math.nan)):
        with pytest.raises(ValueError):
            riemann_zeta(nan)


@pytest.mark.parametrize("s", [2.4 + 121j, 2.4 + 1000j, 1.5 - 300j])
def test_zeta_past_the_series_domain_is_mpmath(s, cold_cache):
    # the fixed-length series is 3e3 off at 2.4+1000i
    import mpmath
    want = complex(mpmath.zeta(s))
    assert abs(_zeta_any(s) - want) <= 1e-12 * abs(want)


def test_series_zeta_is_bounded_by_its_real_part(cold_cache):
    # |zeta_L(sigma + it)| <= zeta_L(sigma) where the series converges
    bound = spectral_zeta_periodic(SEQ23, 1.2).value.real
    for t in (60, 121, 500):
        assert abs(spectral_zeta_periodic(SEQ23, complex(1.2, t)).value) <= bound


def test_hurwitz_half_values():
    assert hurwitz_half_sum(-1) == Fraction(1, 24)
    assert hurwitz_half_sum(0) == 0
    assert float(hurwitz_half_sum(2)) == pytest.approx(3 * math.pi**2 / 6, abs=1e-12)


def test_geometric_continuation_values():
    assert geometric_continuation(2) == -1
    assert geometric_continuation(Fraction(1, 2)) == 2
    assert geometric_continuation(8) == Fraction(-1, 7)   # ratio 2 N^2 at N = 2
    with pytest.raises(PoleError):
        geometric_continuation(1)


# ---------------------------------------------------------------------------
# closed-form reductions: the closed form against the family table summed
# level by level, in the convergent and the continued region

def _check_against_table(seq):
    # the m = -3..3 rows cover every pole with |Im s| < 2.7 for I_T <= 30
    poles = zeta_poles(seq, range(-3, 4))
    checked = []
    for s in SAMPLE_POINTS:
        if any(abs(s - p) <= 1e-12 for p in poles):
            with pytest.raises(PoleError):
                spectral_zeta_periodic(seq, s)
            with pytest.raises(PoleError):
                table_zeta(seq, s)
            # keep the identity checked right next to the excluded point
            checked += [s - 1e-3, s + 1e-3, s + 0.01j]
        else:
            checked.append(s)
    for s in checked:
        a = spectral_zeta_periodic(seq, s).value
        b = table_zeta(seq, s)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b)), f"s={s}"


@pytest.mark.parametrize("j", [2, 3, 4, 5])
def test_periodic_reduces_to_constant_j(j):
    _check_against_table(JSequence((j,), periodic=True))


@pytest.mark.parametrize("j1,j2", [(2, 3), (3, 2), (3, 4)])
def test_periodic_reduces_to_period2(j1, j2):
    _check_against_table(JSequence((j1, j2), periodic=True))


@pytest.mark.parametrize("values", [(2, 3, 5), (3, 2, 4), (2, 2, 3)])
def test_periodic_matches_table_at_period3(values):
    _check_against_table(JSequence(values, periodic=True))


def test_constant_j_half_negative_value():
    got = spectral_zeta_periodic(SEQ2, -0.5).value
    assert got.imag == 0
    assert got.real == pytest.approx(-5 * math.pi / 28, abs=1e-12)
    assert table_zeta(SEQ2, -0.5).real == pytest.approx(-5 * math.pi / 28, abs=1e-12)
    # j = 3: -pi/12 (13/8 + 7/68 + 9/40)
    want = -math.pi / 12 * (13 / 8 + 7 / 68 + 9 / 40)
    assert spectral_zeta_periodic(SEQ3, -0.5).value.real == pytest.approx(want, abs=1e-12)
    assert table_zeta(SEQ3, -0.5).real == pytest.approx(want, abs=1e-12)


def test_constant_j_half_negative_sweep():
    for j in range(2, 11):
        assert table_zeta(JSequence((j,), periodic=True), -0.5).real < 0


# ---------------------------------------------------------------------------
# the exact geometric fit behind the table sum

@pytest.mark.parametrize("a,terms", [
    ([0, 0, 0, 0, 0], []),
    ([3, 6, 12, 24, 48], [(3, 2)]),
    ([5, 0, 0, 0, 0], [(5, 0)]),
    ([2, 5, 13, 35, 97], [(1, 3), (1, 2)]),
    ([0, 2, 12, 56, 240], [(1, 4), (-1, 2)]),      # 4^m - 2^m
    ([1, Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)],
     [(1, Fraction(1, 2))]),
])
def test_geometric_terms_fit(a, terms):
    got = _geometric_terms(a)
    assert sorted(got) == sorted((Fraction(c), Fraction(B)) for c, B in terms)
    assert all(isinstance(x, Fraction) for term in got for x in term)


@pytest.mark.parametrize("a", [
    [1, 0, 0, 0, 1],                 # not geometric at all
    [1, 1, 2, 3, 5],                 # Fibonacci: bases (1 +- sqrt 5)/2
    [1, 2, 3, 4, 5],                 # a double root: (c0 + c1 m) 1^m
    [1, 0, -1, 0, 1],                # complex bases +-i
    [1, 3, 9, 27, 80],               # fits on a[0..3], fails the check at a[4]
    [0, 0, 1, 2, 4],                 # zero start, nonzero tail
])
def test_geometric_terms_reject(a):
    with pytest.raises(ArithmeticError):
        _geometric_terms(a)


@pytest.mark.parametrize("values", [(2,), (3,), (4,), (2, 3), (3, 2), (2, 3, 5), (3, 2, 4)])
def test_table_bases_are_the_pole_lattices(values):
    # each residue class of levels p, p + T, ... of the free table fits as
    # geometric terms whose bases are exactly 2^T I_T and 2^T: the two
    # lattices of zeta_poles, at Re 2s = ln B / ln I_T
    seq = JSequence(values, periodic=True)
    T, I_T = len(values), math.prod(values)
    bases = set()
    for p in range(2, T + 2):
        levels = [free_level(seq, n) for n in range(p, p + 5 * T, T)]
        for rows in zip(*levels):
            bases |= {B for _, B in _geometric_terms([f.multiplicity for f in rows])}
    assert bases == {2**T * I_T, 2**T}
    lattice = zeta_poles(seq, (0,))
    assert sorted(lattice, key=abs) == sorted(
        (complex(math.log(B) / math.log(I_T**2)) for B in bases), key=abs)


@pytest.mark.parametrize("seq,s", [(SEQ2, 2.0), (SEQ23, 2.0), (SEQ3, 2.0)])
def test_direct_series_oracle(seq, s):
    direct = spectral_zeta_direct(seq, s, lambda_max=1e11)
    closed = spectral_zeta_periodic(seq, s)
    assert closed.mode == "series"
    assert abs(direct - closed.value.real) <= 1e-10 * abs(direct)


def test_direct_series_rejects_divergent():
    with pytest.raises(ValueError):
        spectral_zeta_direct(SEQ2, 0.9)


# ---------------------------------------------------------------------------
# poles, dimension, s -> 1/2

def test_pole_lattice_j2():
    poles = zeta_poles(SEQ2, (0,))
    assert poles == [complex(1.0), complex(0.5)]


def test_pole_real_parts_constant_in_m():
    poles = zeta_poles(SEQ23, range(-3, 4))
    reps = sorted({round(p.real, 12) for p in poles})
    assert len(reps) == 2


@pytest.mark.parametrize("seq", [SEQ2, SEQ3, SEQ23])
def test_poles_zero_the_denominators(seq):
    T = seq.period
    I_T = level_products(seq, T)[T]
    for m in (-1, 0, 1):
        loop_pole, cross_pole = zeta_poles(seq, (m,))[:2]
        d1 = complex(I_T) ** (2 * loop_pole) - I_T * 2**T
        d2 = complex(I_T) ** (2 * cross_pole) - 2**T
        assert abs(d1) < 1e-10
        assert abs(d2) < 1e-10


@pytest.mark.parametrize("values", [(2, 3), (2, 3, 5)])
def test_poles_complete_for_longer_periods(values):
    # the denominators repeat every 2 pi / ln(I_T^2) in Im s, whatever T is
    seq = JSequence(values, periodic=True)
    T, I_T = len(values), math.prod(values)
    poles = zeta_poles(seq, range(-3, 4))
    s0 = complex(math.log(2**T * I_T), 2 * math.pi) / (2 * math.log(I_T))
    assert min(abs(p - s0) for p in poles) < 1e-14
    for pole in poles:
        with pytest.raises(PoleError):
            spectral_zeta_periodic(seq, pole)


def test_evaluation_at_pole_raises():
    with pytest.raises(PoleError):
        spectral_zeta_periodic(SEQ2, 1.0)
    with pytest.raises(PoleError):
        table_zeta(SEQ2, 1.0)
    with pytest.raises(PoleError):
        table_zeta(SEQ2, 0.5 + 0j * 1)  # s = 1/2: zeta_R(2s) has its pole
    with pytest.raises(PoleError):
        spectral_zeta_periodic(SEQ2, 0.5)


@pytest.mark.parametrize("s", [400, -400, 1e300, -1e300, complex(-400, 3), -100.25, -150.25])
def test_out_of_double_range_raises_value_error(s):
    # 4^(2s) overflows above |s| ~ 256; below, it underflows to a zero
    # divisor, and near s = -100 the value itself leaves double range
    with pytest.raises(ValueError, match="outside the range the closed form can "
                                         "evaluate in double precision") as exc:
        spectral_zeta_periodic(SEQ2, s)
    assert not isinstance(exc.value, ZeroDivisionError)
    for s_ok in (200, -200):
        assert cmath.isfinite(spectral_zeta_periodic(SEQ2, s_ok).value)
    with pytest.raises(PoleError):      # a pole is still a PoleError
        spectral_zeta_periodic(SEQ2, 1.0)


def test_spectral_dimension_values():
    assert spectral_dimension(SEQ2) == pytest.approx(2.0)
    assert spectral_dimension(SEQ3) == pytest.approx(math.log(6) / math.log(3))
    assert spectral_dimension(SEQ23) == pytest.approx(math.log(4 * 6) / math.log(6))


@pytest.mark.parametrize("seq", [SEQ2, SEQ3, SEQ23])
def test_spectral_dimension_doubles_pole_abscissa(seq):
    # the zeta argument counts eigenvalues; frequencies halve it, so the
    # dimension is twice the largest pole real part
    top = max(p.real for p in zeta_poles(seq, (0,)))
    assert spectral_dimension(seq) == pytest.approx(2 * top, abs=1e-13)


def test_limit_half_excludes_constant_two():
    with pytest.raises(PoleError):
        zeta_limit_half(SEQ2)
    with pytest.raises(PoleError):
        zeta_limit_half(JSequence((2, 2), periodic=True))


@pytest.mark.parametrize("values", [(3,), (2, 3), (4,), (3, 4, 5)])
def test_limit_half_matches_numeric_limit(values):
    seq = JSequence(values, periodic=True)
    closed = zeta_limit_half(seq)
    eps = 1e-5
    f1 = spectral_zeta_periodic(seq, 0.5 + eps).value.real
    f2 = spectral_zeta_periodic(seq, 0.5 + eps / 2).value.real
    richardson = 2 * f2 - f1
    assert closed == pytest.approx(richardson, abs=1e-6)


def test_requires_periodic():
    with pytest.raises(ValueError):
        spectral_zeta_periodic(JSequence((2, 3)), 2.0)
    with pytest.raises(ValueError):
        spectral_dimension(JSequence((2, 3)))


# ---------------------------------------------------------------------------
# zeta_R(2s), evaluated once per distinct 2s per process

def _bits(z: complex) -> bytes:
    return struct.pack("<dd", z.real, z.imag)


def _pool_arguments() -> list[complex]:
    """2s for every zeta call of the benchmark's pool, parsed as the CLI does."""
    out = []
    for call in bench_data.workloads().analytic_pool():
        if call.startswith("zeta "):
            parts = call.split("--s=")[1].split(",")
            out.append(2 * complex(float(parts[0]), float(parts[1]) if len(parts) > 1 else 0.0))
    return list(dict.fromkeys(out))


@pytest.fixture
def cold_cache():
    _zeta_at.cache_clear()
    yield
    _zeta_at.cache_clear()


def test_cached_zeta_is_the_evaluation_bit_for_bit(cold_cache):
    # a miss and then a hit both return the uncached bits, at every argument
    # of the benchmark's pool, on both sides of a zero imaginary part and at
    # the trivial zero 2s = -2
    points = _pool_arguments()
    assert len(points) > 40
    points += [complex(4.0, 0.0), complex(4.0, -0.0), complex(-3.0, 0.0), complex(-3.0, -0.0),
               2 * complex(-1.0, 0.0), 2 * complex(-1.0, -0.0)]
    for t in points:
        if t == 1:
            continue
        want = _zeta_at.__wrapped__(t, math.copysign(1.0, t.real), math.copysign(1.0, t.imag))
        assert _bits(_zeta_any(t)) == _bits(want), t
        assert _bits(_zeta_any(t)) == _bits(want), t
    assert _zeta_any(complex(-2.0, -0.0)) == 0


def test_signed_zeros_are_separate_entries(cold_cache):
    _zeta_any(complex(4.0, 0.0))
    _zeta_any(complex(4.0, -0.0))
    _zeta_any(complex(4.0, 0.0))
    info = _zeta_at.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 1, 2)


def test_pole_is_raised_on_every_call(cold_cache):
    for _ in range(3):
        with pytest.raises(PoleError):
            _zeta_any(complex(1.0, 0.0))
        with pytest.raises(PoleError):
            table_zeta(SEQ2, 0.5)
    assert _zeta_at.cache_info().currsize == 0


def test_mpmath_runs_once_per_argument(cold_cache, monkeypatch):
    # zeta_R(2s) is the factor every space shares: the benchmark's five
    # sequences at s = -1.5 + 40i continue it through mpmath once
    import mpmath

    calls = []
    inner = mpmath.zeta

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(mpmath, "zeta", counted)
    for values in [(2,), (3,), (4,), (2, 3), (2, 3, 5)]:
        for _ in range(2):
            spectral_zeta_periodic(JSequence(values, periodic=True), complex(-1.5, 40))
    table_zeta(SEQ23, complex(-1.5, 40))
    assert calls == [(complex(-3.0, 80.0),)]


def test_zeta_cache_is_bounded():
    assert 0 < _zeta_at.cache_info().maxsize < 1000
