"""Closed-form spectra: frozen examples, merge algebra, numeric cross-checks.

Expected multiplicities below were derived by enumerating the eigenvalue
families by hand and are confirmed against the quantum-graph eigensolver
(small levels here; the deeper oracle runs live in the acceptance suite).
"""

import gc
import hashlib
import math
import time
import weakref
from fractions import Fraction

import numpy as np
import pytest
from shift_invert import shift_invert_eigenvalues
from small_graphs import levels, small_sequences

from laakso import (
    JSequence,
    MERGED,
    PER_FAMILY,
    MultiplicityError,
    PlateConfig,
    Potential,
    SpectrumQuery,
    build_graph,
    cluster,
    discretize,
    free_spectrum,
    interior_shape_counts,
    merge_lines,
    plates_spectrum,
    shape_census,
    solve_lowest,
    square_well_spectrum,
    well_geometry,
)
from laakso import spectra
from laakso.spectra import Family, enumerate_families

PI2 = math.pi**2
SEQ2 = JSequence((2,), periodic=True)
SEQ3 = JSequence((3,), periodic=True)
SEQ23 = JSequence((2, 3), periodic=True)


def as_pairs(lines):
    return [(line.lam, line.multiplicity) for line in lines]


# ---------------------------------------------------------------------------
# free Laplacian

def test_a_spectrum_is_freed_with_its_last_reference():
    # no reference cycle: the line arrays go without the cyclic collector
    gc.disable()
    try:
        s = free_spectrum(SEQ2, SpectrumQuery(1e4))
        assert s[3].multiplicity == 3
        order, lam = weakref.ref(s.order), weakref.ref(s.arrays.lam)
        del s
        assert order() is None and lam() is None
    finally:
        gc.enable()


def test_free_low_lines_j2():
    lines = free_spectrum(SEQ2, SpectrumQuery(10.0))
    assert as_pairs(lines) == [(0.0, 1), (pytest.approx(PI2), 3)]


def test_free_only_zero_below_pi_squared():
    lines = free_spectrum(SEQ23, SpectrumQuery(1.0))
    assert as_pairs(lines) == [(0.0, 1)]


def test_free_j3_loop_line():
    lines = free_spectrum(SEQ3, SpectrumQuery(100.0))
    by_val = {round(l.lam, 6): l for l in lines}
    line = by_val[round(9 * PI2, 6)]
    # level-1 loop family contributes multiplicity 2^0 (3-2) I_0 = 1
    assert any(s.family == "loop" and s.n == 1 and s.k == 1 for s in line.sources)


def test_free_merged_multiplicities_j2():
    lines = free_spectrum(SEQ2, SpectrumQuery(300.0))
    assert [(round(l.lam / PI2), l.multiplicity) for l in lines] == [
        (0, 1), (1, 3), (4, 6), (9, 3), (16, 18), (25, 3)]


def test_free_multiplicities_nonnegative_sweep():
    for seq in (SEQ2, SEQ3, SEQ23, JSequence((5, 2), periodic=True)):
        for line in free_spectrum(seq, SpectrumQuery(5e4, PER_FAMILY)):
            assert line.multiplicity >= 1


def test_free_matches_eigensolve_level3():
    # every analytic line of the j=2 space below 150 is resolved by F_3
    seq, lam_max = SEQ2, 150.0
    lines = free_spectrum(seq, SpectrumQuery(lam_max))
    lines = [l for l in lines if all(s.n <= 3 for s in l.sources)]
    op = discretize(build_graph(seq, 3), 12, Potential("free"))
    count = sum(l.multiplicity for l in lines)
    result = solve_lowest(op, count + 3)
    clusters = cluster(result, 1e-2)
    for lam, mult in as_pairs(lines):
        matched = [c for c in clusters if abs(c[0] - lam) <= max(0.01 * lam, 1e-6)]
        assert matched, f"no numeric cluster near {lam}"
        assert sum(c[1] for c in matched) == mult


# ---------------------------------------------------------------------------
# square well

def test_well_table_lines_alternating():
    lines = square_well_spectrum(SEQ23, SpectrumQuery(160.0))
    assert [(round(l.lam, 2), l.multiplicity) for l in lines] == [
        (39.48, 1), (88.83, 1), (157.91, 3)]


def test_well_expected_column_exact():
    lines = square_well_spectrum(SEQ23, SpectrumQuery(700.0))
    assert [l.lam / PI2 for l in lines] == pytest.approx([4, 9, 16, 36, 64])
    assert [l.multiplicity for l in lines] == [1, 1, 3, 10, 3]


def test_well_interval_family_k2_included():
    # 4 pi^2 k^2 for k = 1, 2 both land below 160
    lines = square_well_spectrum(SEQ23, SpectrumQuery(160.0, PER_FAMILY))
    level0 = [(l.sources[0].k, l.lam) for l in lines if l.sources[0].family == "level0"]
    assert (1, pytest.approx(4 * PI2)) in level0
    assert (2, pytest.approx(16 * PI2)) in level0


def test_well_wall_vee_has_level1_distance_rate():
    # d_1 = 1/4 for j_1 = 2 gives the 16 pi^2 k^2 family with multiplicity 2
    lines = square_well_spectrum(SEQ23, SpectrumQuery(160.0, PER_FAMILY))
    wall = [l for l in lines if l.sources[0].family == "wall_vee"]
    assert wall and wall[0].lam == pytest.approx(16 * PI2)
    assert wall[0].multiplicity == 2


def test_well_j3_level1_loop():
    lines = square_well_spectrum(SEQ3, SpectrumQuery(100.0, PER_FAMILY))
    fams = {l.sources[0].family for l in lines}
    assert "loop_level1" in fams       # j_1 = 3 activates the interior loop
    loop1 = [l for l in lines if l.sources[0].family == "loop_level1"][0]
    assert loop1.lam == pytest.approx(9 * PI2)
    assert loop1.multiplicity == 1


def test_well_zero_multiplicity_suppressed():
    for line in square_well_spectrum(SEQ23, SpectrumQuery(2000.0, PER_FAMILY)):
        assert line.multiplicity >= 1


def test_well_matches_eigensolve_level4():
    lines = square_well_spectrum(SEQ23, SpectrumQuery(700.0))
    op = discretize(build_graph(SEQ23, 4), 8, Potential("square_well"))
    result = shift_invert_eigenvalues(op, 20, "lowest")
    clusters = cluster(result, 1.2e-2)
    for lam, mult in as_pairs(lines):
        matched = [c for c in clusters if abs(c[0] - lam) <= 0.05 * lam]
        assert matched, f"no numeric cluster near {lam}"
        assert sum(c[1] for c in matched) == mult


# ---------------------------------------------------------------------------
# interior shape counts

def test_interior_counts_level2_alternating():
    assert interior_shape_counts(SEQ23, 2) == (1, 0, 0)


def test_interior_counts_wall_on_center():
    # wall exactly on a cross center: intact crosses drop by m 2^(n-1)
    # per wall and 2^(n-1) half-crosses appear
    assert interior_shape_counts(JSequence((4,), periodic=True), 2) == (1, 2, 8)


def test_interior_counts_no_loops_at_binary_level():
    full, half, loops = interior_shape_counts(SEQ2, 4)
    assert loops == 0


@pytest.mark.parametrize("values,n", [
    ((2,), 3), ((3,), 2), ((2, 3), 3), ((3, 2), 3), ((5,), 2), ((2, 3), 5),
])
def test_interior_counts_match_region_census(values, n):
    seq = JSequence(values, periodic=True)
    census = shape_census(build_graph(seq, n), region="well")
    full, half, loops = interior_shape_counts(seq, n)
    assert census.split["cross"].interior == full
    assert census.half_crosses_interior == half
    assert census.split["loop"].interior == loops


@pytest.mark.parametrize("seq", small_sequences() + [
    JSequence((2, 3, 5), periodic=True), JSequence((3, 2, 4), periodic=True),
], ids=lambda seq: ",".join(map(str, seq.values)))
def test_interior_counts_match_census_sweep(seq):
    # the floor rule against the brute-force census on every graph of at
    # most 20,000 cells
    for n in levels(seq, first=1):
        census = shape_census(build_graph(seq, n), region="well")
        assert interior_shape_counts(seq, n) == (
            census.split["cross"].interior, census.half_crosses_interior,
            census.split["loop"].interior), n


# ---------------------------------------------------------------------------
# plates

def test_plates_lowest_line_natural_position():
    cfg = PlateConfig(4, 1, 0.25)
    lines = plates_spectrum(cfg, SpectrumQuery(50.0))
    assert [(round(l.lam, 2), l.multiplicity) for l in lines] == [
        (39.48, 4), (39.48, 1)]   # exterior (level0 + vee) and interior lines


def test_plates_interior_scaling_invariant():
    # interior eigenvalues times (2 x0)^2 do not depend on x0
    q = SpectrumQuery(4000.0, PER_FAMILY)
    for x0 in (0.2, 0.3, 0.4):
        lines = plates_spectrum(PlateConfig(4, 1, x0), q)
        ks = sorted(l.lam * (2 * x0) ** 2 for l in lines
                    if l.sources[0].family == "interior_level0")
        assert ks == pytest.approx([PI2 * k * k for k in range(1, len(ks) + 1)])


def test_plates_match_eigensolve():
    cfg = PlateConfig(5, 2, 0.35)    # stretched interior
    seq = JSequence((5,), periodic=True)
    lines = plates_spectrum(cfg, SpectrumQuery(500.0))
    op = discretize(build_graph(seq, 3, plates=cfg), 8, Potential("free"))
    count = sum(l.multiplicity for l in lines)
    result = shift_invert_eigenvalues(op, count + 3, "lowest")
    clusters = cluster(result, 1e-2)
    for lam, mult in as_pairs(lines):
        matched = [c for c in clusters if abs(c[0] - lam) <= 0.02 * lam]
        assert matched, f"no numeric cluster near {lam}"
        assert sum(c[1] for c in matched) == mult


def test_plates_structural_match_with_free_at_natural_position():
    # level-1 interior loop line [k pi (Z+1)/(2 x0)]^2 = k^2 pi^2 I_1^2
    cfg = PlateConfig(4, 1, 0.25)
    lines = plates_spectrum(cfg, SpectrumQuery(2000.0, PER_FAMILY))
    il = sorted(l.lam for l in lines if l.sources[0].family == "interior_loop_level1")
    assert il == pytest.approx([PI2 * 16 * k * k for k in (1, 2, 3)])


# ---------------------------------------------------------------------------
# merge algebra

def test_merge_additivity_and_idempotence():
    lines = square_well_spectrum(SEQ23, SpectrumQuery(700.0, PER_FAMILY))
    merged = merge_lines(lines)
    assert merge_lines(merged) == merged
    assert sum(l.multiplicity for l in merged) == sum(l.multiplicity for l in lines)
    by_key = {}
    for line in lines:
        by_key[line.key] = by_key.get(line.key, 0) + line.multiplicity
    assert {l.key: l.multiplicity for l in merged} == by_key


def test_merge_empty():
    assert merge_lines([]) == []


def test_merge_never_compares_floats():
    # two numerically identical lines with different exact keys stay apart
    lines = plates_spectrum(PlateConfig(4, 1, 0.25), SpectrumQuery(50.0))
    assert len(lines) == 2
    assert lines[0].lam == pytest.approx(lines[1].lam)
    assert lines[0].key != lines[1].key


def test_query_validation():
    with pytest.raises(ValueError):
        SpectrumQuery(0.0)
    with pytest.raises(ValueError):
        SpectrumQuery(10.0, "sorted")


@pytest.mark.parametrize("kind", ["free", "well", "plates"])
def test_table_merge_matches_dict_merge(kind):
    # merge_lines groups by key in a dict: the reference for the array merge
    gen = {"free": lambda q: free_spectrum(SEQ23, q),
           "well": lambda q: square_well_spectrum(SEQ2, q),
           "plates": lambda q: plates_spectrum(PlateConfig(7, 2, 0.15), q)}[kind]
    per_family = gen(SpectrumQuery(2e5, PER_FAMILY))
    assert merge_lines(per_family) == gen(SpectrumQuery(2e5, MERGED))
    assert [(l.lam, l.sources[0]) for l in per_family] == sorted(
        (l.lam, l.sources[0]) for l in per_family)


def test_ceiling_is_the_printed_eigenvalue():
    # a line is listed exactly when the lambda it prints is <= lambda_max
    for line in free_spectrum(SEQ23, SpectrumQuery(1e4, PER_FAMILY))[1:]:
        at = free_spectrum(SEQ23, SpectrumQuery(line.lam, PER_FAMILY))
        below = free_spectrum(SEQ23, SpectrumQuery(math.nextafter(line.lam, 0),
                                                   PER_FAMILY))
        assert line in at and line not in below


def test_negative_multiplicity_raises_only_with_lines_in_range():
    bad = Family("bad", 1, "unit", Fraction(4), False, 1, -2)
    with pytest.raises(MultiplicityError, match="negative multiplicity -2"):
        enumerate_families([bad], 100.0)
    # below its first line (4 pi^2 ~ 39.5) the family lists nothing
    assert len(enumerate_families([bad], 30.0).lam) == 0


# ---------------------------------------------------------------------------
# the columnar Spectrum

def test_spectrum_is_a_read_only_sequence():
    spectrum = free_spectrum(SEQ23, SpectrumQuery(5e3))
    lines = list(spectrum)
    assert len(spectrum) == len(lines) > 3
    assert spectrum == lines and lines == spectrum
    assert spectrum[0] == lines[0] and spectrum[-1] == lines[-1] == spectrum[len(lines) - 1]
    assert spectrum[-len(lines)] == lines[0]
    assert spectrum[1:4] == lines[1:4] and spectrum[::-2] == lines[::-2]
    assert [line for line in spectrum] == lines
    assert lines[2] in spectrum and lines[2]._replace(multiplicity=0) not in spectrum
    for i in (len(lines), -len(lines) - 1):
        with pytest.raises(IndexError):
            spectrum[i]
    with pytest.raises(TypeError):
        spectrum[0] = lines[1]
    with pytest.raises(TypeError):
        del spectrum[0]


@pytest.mark.parametrize("policy", [MERGED, PER_FAMILY])
def test_spectrum_columns_match_its_lines(policy):
    spectrum = plates_spectrum(PlateConfig(7, 2, 0.15), SpectrumQuery(2e4, policy))
    assert spectrum.lam.tolist() == [line.lam for line in spectrum]
    assert spectrum.multiplicity.tolist() == [line.multiplicity for line in spectrum]
    assert spectrum.bounds[-1] == len(spectrum.order) == len(spectrum.arrays.lam)
    empty = square_well_spectrum(SEQ2, SpectrumQuery(30.0, policy))
    assert len(empty) == 0 and list(empty) == [] and empty == []


def _k_gaps(family, n, k):
    """The (family, n) whose k values are not one run k0, k0 + 1, ... from
    k0 = 0 or 1."""
    o = np.lexsort((k, n, family))
    family, n, k = family[o], n[o], k[o]
    start = np.append(True, (family[1:] != family[:-1]) | (n[1:] != n[:-1]))
    step = np.append(0, np.diff(k))
    bad = np.where(start, (k < 0) | (k > 1), step != 1)
    return sorted(set(zip(family[bad].tolist(), n[bad].tolist())))


@pytest.mark.parametrize("policy", [MERGED, PER_FAMILY])
@pytest.mark.parametrize("lambda_max", [30.0, 1e4, 1e6, 1e9])
def test_each_family_k_is_one_run_from_zero_up(policy, lambda_max):
    # The spectrum writer formats k through one table indexed by k: a
    # negative k would index it from its end, and a skipped k, or a run that
    # starts past 1, would make it longer than the sources.
    query = SpectrumQuery(lambda_max, policy)
    seq324 = JSequence((3, 2, 4), periodic=True)
    cases = [free_spectrum(seq, query) for seq in (SEQ2, SEQ23, seq324)]
    cases += [square_well_spectrum(seq, query) for seq in (SEQ2, SEQ3, SEQ23)]
    cases += [plates_spectrum(cfg, query) for cfg in (PlateConfig(7, 2, 0.15),
                                                      PlateConfig(5, 0, 0.2))]
    skips = 0
    for spectrum in cases:
        a = spectrum.arrays
        assert _k_gaps(a.family, a.n, a.k) == []
        assert a.k.max(initial=0) <= len(a.k)
        # the check sees a table that starts below zero or past 1, or skips a k
        if len(a.k):
            assert _k_gaps(a.family, a.n, a.k - a.k.max() - 1)
            assert _k_gaps(a.family, a.n, a.k + 2)
        same = (a.family[1:] == a.family[:-1]) & (a.n[1:] == a.n[:-1])
        for i in np.flatnonzero(same[:-1] & same[1:])[:1] + 1:
            assert _k_gaps(np.delete(a.family, i), np.delete(a.n, i), np.delete(a.k, i))
            skips += 1
    assert skips or lambda_max < 100


# The square-well table's wall rows, as guards over the m-th loop set
# [(m - 1) j + 1, m j - 1] and the m-th cross [m j - 1, m j + 1], m >= 1.
_WALL_GUARDS = {
    "wall_loop": lambda w, j, m: (m - 1) * j + 1 < w < m * j - 1,
    "wall_cross": lambda w, j, m: m * j - 1 < w < m * j + 1,
    "half_cross": lambda w, j, m: m * j - 1 < w <= m * j,
    "split_cross": lambda w, j, m: m * j - 1 < w < m * j,
}

# ... and as `square_well_families` writes them, on the offset r = w mod j.
_WALL_OFFSETS = {
    "wall_loop": lambda w, j, r: 1 < r < j - 1,
    "wall_cross": lambda w, j, r: r > j - 1 or (r < 1 and w >= j),
    "half_cross": lambda w, j, r: r > j - 1 or r == 0,
    "split_cross": lambda w, j, r: r > j - 1,
}


def _held(w, j, guard):
    """The m >= 1 at which guard(m) holds.  A guard puts w >= (m - 1) j,
    so m <= w / j + 1 bounds the scan: O(I_n) a level."""
    return [m for m in range(1, int(w // j) + 2) if guard(m)]


def test_wall_offsets_are_the_guards():
    # Each guard is unchanged under (w, m) -> (w + j, m + 1) and fails at
    # m = 0 once w >= 1, so from w = j on both sides repeat with period j;
    # checking every quarter-integer w in (0, 4j) covers all w > 0.
    for j in range(2, 12):
        for q in range(1, 16 * j):
            w = Fraction(q, 4)
            for name, guard in _WALL_GUARDS.items():
                held = bool(_held(w, j, lambda m: guard(w, j, m)))
                assert held == _WALL_OFFSETS[name](w, j, w % j), (name, j, w)


def _full_scan_rows(seq, lambda_max):
    """The square-well table from its case guards, each tried at every m:
    the reference for the offset rules and shape counts of the program."""
    def value(cases):           # the value of the cases (guard, formula) that hold
        vals = {formula(m) for guard, formula in cases for m in _held(w, j, guard)}
        assert len(vals) <= 1, f"inconsistent case overlap at w={w}: {vals}"
        return vals.pop() if vals else 0

    rows = [Family("level0", 0, "unit", Fraction(4), False, 1, 1)]
    if seq.j(1) in (2, 3):
        rows.append(Family("wall_vee", 1, "unit", 1 / well_geometry(seq, 1).d ** 2,
                           False, 1, 2))
    if seq.j(1) == 3:
        rows.append(Family("loop_level1", 1, "unit", Fraction(9), False, 1, 1))
    I_prev, n, j = 1, 1, seq.j(1)
    while PI2 * (I_prev * j) ** 2 / 4 <= lambda_max:    # the level's lowest line
        I_n, p = I_prev * j, 2 ** (n - 1)
        geom, rate = well_geometry(seq, n), Fraction(I_n**2)
        w, d = geom.w, geom.d
        wall = {name: bool(_held(w, j, lambda m, g=g: g(w, j, m)))
                for name, g in _WALL_GUARDS.items()}
        loop = (lambda m: (m - 1) * j + 1 <= w <= m * j - 1)
        total = p * (j - 2) * I_prev
        loops = value([(loop, lambda m: total - 2 * p * (1 + math.ceil(w) - 2 * m)),
                       (lambda m: m * j - 1 <= w <= m * j + 1,
                        lambda m: total - m * 2 * p * (j - 2))])
        if d != 0 and wall["wall_loop"]:
            rows.append(Family("wall_loop", n, "unit", 1 / d**2, False, 1, 2 * p))
        rows.append(Family("loop", n, "unit", rate, False, 1, loops))
        if n >= 2:
            if d != 0 and wall["wall_cross"]:
                rows.append(Family("wall_cross", n, "unit", 1 / d**2, False, 1, p))
            if wall["half_cross"]:
                rows.append(Family("half_cross", n, "unit", rate, False, 1, p))
            if wall["split_cross"]:
                rows.append(Family("split_cross", n, "unit", 1 / (d + Fraction(1, I_n)) ** 2,
                                   False, 1, p))
            for name, q, base, coef in [("cross", rate, p * (I_prev - 1), 2 * p),
                                        ("cross_wide", rate / 4, p // 2 * (I_prev - 1), p)]:
                mult = value([(loop, lambda m: base - (m - 1) * coef),
                              (lambda m: m * j - 1 < w <= m * j + 1, lambda m: base - m * coef)])
                rows.append(Family(name, n, "unit", q, False, 1, mult))
        I_prev, n = I_n, n + 1
        j = seq.j(n)
    return rows


@pytest.mark.parametrize("values,lambda_max", [
    ((2,), 1e11), ((3,), 1e11), ((4,), 1e11), ((5,), 1e11), ((7,), 1e13),
    ((2, 3), 1e11), ((3, 2), 1e11), ((2, 3, 5), 1e11), ((3, 2, 4), 1e11),
])
def test_well_rows_match_full_scan(values, lambda_max):
    seq = JSequence(values, periodic=True)
    assert spectra.square_well_families(seq, lambda_max) == _full_scan_rows(seq, lambda_max)


# sha256 of the rows' reprs, one sequence a line, recorded before the
# square-well table was rewritten from the shape counts and wall offsets.
# The rows are known to be short of the graphs' wall classes (ROADMAP
# items 2 and 8); the fix changes them and re-records these digests.
WELL_ROWS_SHA256 = {
    1e3: "5b08fd3f00232992342f2f608551d6aa386530986ce059fe973b0a877217acd8",
    1e9: "bf1079c295529a26fe8099a8716fd9c7e058d1a4c6d97c3bcf0a7fb3a1a2f14e",
    1e15: "29de8cc5bbd94c8bfc8268183543ce87d30c646204ad6e09867d507965b2bb9e",
}


@pytest.mark.parametrize("lambda_max", sorted(WELL_ROWS_SHA256))
def test_well_rows_are_pinned(lambda_max):
    seqs = small_sequences() + [JSequence((2, 3, 5), periodic=True),
                                JSequence((3, 2, 4), periodic=True)]
    text = "\n".join(repr(spectra.square_well_families(seq, lambda_max)) for seq in seqs)
    assert hashlib.sha256(text.encode()).hexdigest() == WELL_ROWS_SHA256[lambda_max]


def test_well_table_at_1e15_is_fast():
    t0 = time.perf_counter()
    rows = spectra.square_well_families(SEQ2, 1e15)
    assert time.perf_counter() - t0 < 1.0      # 58 s with the full scan
    assert len(rows) == 94
