"""Regularized plate energy and force."""

import math
import re
from fractions import Fraction

import pytest

from laakso import PlateConfig, casimir_force, plate_zeta_energy
from laakso.casimir import _force_coefficients, plate_zeta_coefficients
from laakso.plates import PlateConfigError

CONFIGS = [(4, 1, 0.2), (5, 2, 0.3), (6, 1, 0.15)]

# (A, B) from the nine hand-written plate mode sums the family table
# replaced, for every (N, Z) the benchmark's casimir calls use
HAND_COEFFICIENTS = {
    (3, 0): (Fraction(-13, 1020), Fraction(76, 255)),
    (4, 1): (Fraction(5, 1736), Fraction(71, 217)),
    (5, 0): (Fraction(-11, 882), Fraction(383, 882)),
    (5, 2): (Fraction(5, 392), Fraction(152, 441)),
    (6, 1): (Fraction(145, 18744), Fraction(2207, 4686)),
    (6, 3): (Fraction(367, 18744), Fraction(835, 2343)),
    (7, 0): (Fraction(-61, 5044), Fraction(2138, 3783)),
    (7, 2): (Fraction(683, 30264), Fraction(1255, 2522)),
    (7, 4): (Fraction(31, 1261), Fraction(460, 1261)),
    (8, 1): (Fraction(161, 15240), Fraction(1156, 1905)),
    (8, 3): (Fraction(517, 15240), Fraction(1973, 3810)),
    (8, 5): (Fraction(433, 15240), Fraction(707, 1905)),
    (9, 0): (Fraction(-97, 8211), Fraction(11393, 16422)),
    (9, 2): (Fraction(1871, 65688), Fraction(5252, 8211)),
    (9, 4): (Fraction(1409, 32844), Fraction(8765, 16422)),
    (9, 6): (Fraction(295, 9384), Fraction(3088, 8211)),
}


def finite_difference_force(N, Z, x0, h=1e-6, hbar=1.0):
    ep = plate_zeta_energy(PlateConfig(N, Z, x0 + h, hbar=hbar)).total
    em = plate_zeta_energy(PlateConfig(N, Z, x0 - h, hbar=hbar)).total
    return (ep - em) / (2 * h)


def test_energy_decomposition_exact():
    # E(x0) = a/x0 + b/(1-2x0) with a, b independent of x0
    for N, Z, _ in CONFIGS:
        e1 = plate_zeta_energy(PlateConfig(N, Z, 0.2))
        e2 = plate_zeta_energy(PlateConfig(N, Z, 0.3))
        assert e1.a == e2.a and e1.b == e2.b
        # solve the 2x2 system from the two totals and compare
        import numpy as np
        M = np.array([[1 / 0.2, 1 / 0.6], [1 / 0.3, 1 / 0.4]])
        sol = np.linalg.solve(M, np.array([e1.total, e2.total]))
        assert abs(sol[0] - e1.a) < 1e-12
        assert abs(sol[1] - e1.b) < 1e-12
        assert e1.at(0.2) == pytest.approx(e1.total, rel=1e-15)


def test_energy_golden_values():
    e = plate_zeta_energy(PlateConfig(4, 1, 0.25))
    assert e.a == pytest.approx(0.0045241829688793108, rel=1e-13)
    assert e.b == pytest.approx(0.51394718526468974, rel=1e-13)


def test_exact_coefficients_match_derivative():
    # the transcribed force expression equals the energy derivative as
    # exact rationals, except for its one pi-less term
    for N in range(3, 10):
        for Z in range(0, N - 2):
            if (N - (Z + 1)) % 2:
                continue
            A, B = plate_zeta_coefficients(N, Z)
            Api, Bpi, Bfree = _force_coefficients(N, Z)
            assert Api == -A / 2
            assert Bpi + Bfree == B
            assert (Bfree == 0) == (N == Z + 3)


@pytest.mark.parametrize("N,Z,x0", CONFIGS)
def test_force_matches_energy_derivative(N, Z, x0):
    force = casimir_force(PlateConfig(N, Z, x0))
    fd = finite_difference_force(N, Z, x0)
    assert force.oracle_force == pytest.approx(fd, rel=1e-6)


def test_transcription_agreement_flags():
    # the pi-less term vanishes when N = Z + 3: exact agreement there,
    # a reported disagreement otherwise
    assert casimir_force(PlateConfig(4, 1, 0.2)).consistent
    assert casimir_force(PlateConfig(5, 2, 0.3)).consistent
    res = casimir_force(PlateConfig(6, 1, 0.15))
    assert not res.consistent
    assert res.agreement > 1e-2
    # both values are reported either way
    assert res.force != res.oracle_force


def test_force_linear_in_hbar():
    base = casimir_force(PlateConfig(4, 1, 0.2, hbar=1.0))
    scaled = casimir_force(PlateConfig(4, 1, 0.2, hbar=3.5))
    assert scaled.oracle_force == pytest.approx(3.5 * base.oracle_force, rel=1e-14)
    assert scaled.force == pytest.approx(3.5 * base.force, rel=1e-14)
    e1 = plate_zeta_energy(PlateConfig(4, 1, 0.2, hbar=2.0))
    e0 = plate_zeta_energy(PlateConfig(4, 1, 0.2, hbar=1.0))
    assert e1.total == pytest.approx(2 * e0.total, rel=1e-14)


def test_force_blows_up_as_inverse_square():
    f1 = abs(casimir_force(PlateConfig(4, 1, 1e-3)).oracle_force)
    f2 = abs(casimir_force(PlateConfig(4, 1, 2e-3)).oracle_force)
    assert f1 / f2 == pytest.approx(4.0, rel=0.02)


def test_invalid_configs_rejected_before_evaluation():
    with pytest.raises(PlateConfigError):
        plate_zeta_energy(PlateConfig(2, 0, 0.2))
    with pytest.raises(PlateConfigError):
        casimir_force(PlateConfig(4, 2, 0.2))


def test_coefficients_are_exact_rationals():
    A, B = plate_zeta_coefficients(4, 1)
    assert isinstance(A, Fraction) and isinstance(B, Fraction)
    assert A == Fraction(5, 1736)
    assert B == Fraction(71, 217)
    e = plate_zeta_energy(PlateConfig(4, 1, 0.25))
    assert e.a == pytest.approx(math.pi * float(A) / 2, rel=1e-15)
    assert e.b == pytest.approx(math.pi * float(B) / 2, rel=1e-15)


def test_force_coefficients_are_computed_once_per_plate_count():
    # pure in (N, Z): a second force at another x0 or hbar reuses them
    first = casimir_force(PlateConfig(9, 4, 0.2))
    hits = _force_coefficients.cache_info().hits
    again = casimir_force(PlateConfig(9, 4, 0.2))
    assert _force_coefficients.cache_info().hits == hits + 1
    assert again == first
    scaled = casimir_force(PlateConfig(9, 4, 0.3, hbar=2.0))
    assert _force_coefficients.cache_info().hits == hits + 2
    assert scaled != first


@pytest.mark.parametrize("N,Z", sorted(HAND_COEFFICIENTS))
def test_table_coefficients_equal_hand_mode_sums(N, Z):
    A, B = plate_zeta_coefficients(N, Z)
    assert (A, B) == HAND_COEFFICIENTS[N, Z]
    assert isinstance(A, Fraction) and isinstance(B, Fraction)


@pytest.mark.parametrize("x0,hbar,energy_fits", [
    (1e-200, 1.0, True),        # x0**2 underflows to 0 in the force
    (5e-324, 1.0, False),       # a / x0 overflows as well
    (0.2, 1e308, False),        # hbar * pi overflows
])
def test_outside_double_range_raises_value_error(x0, hbar, energy_fits):
    cfg = PlateConfig(4, 1, x0, hbar=hbar)
    named = f"(N, Z, x0, hbar) = (4, 1, {x0!r}, {hbar!r}) is outside double range"
    calls = [casimir_force] if energy_fits else [plate_zeta_energy, casimir_force]
    for call in calls:
        with pytest.raises(ValueError, match=re.escape(named)) as exc:
            call(cfg)
        assert not isinstance(exc.value, ZeroDivisionError)
    if energy_fits:
        assert math.isfinite(plate_zeta_energy(cfg).total)
