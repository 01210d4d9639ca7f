"""Closed-form eigenvalue families with multiplicities.

Every spectrum is a table of `Family` rows, one per closed-form family:
an exact rate c^2, a k-form k^2 or (k + 1/2)^2 over k >= k_min, and a
multiplicity, giving the lines lambda = pi^2 c^2 kform(k) / scale.  The
scale belongs to the row's region: 1 on the whole space ("unit"), x0^2
inside the plates and (1 - 2 x0)^2 outside them.  Three tables:

* `free_families` - the Laplacian with Kirchhoff conditions: interval
  modes k^2 pi^2, then at each level n the V modes (k+1/2)^2 pi^2 I_n^2,
  loop and cross modes k^2 pi^2 I_n^2 and wide cross modes
  k^2 pi^2 I_n^2 / 4.

* `square_well_families` - the Hamiltonian with an infinite square well
  on [1/4, 3/4].  Ten families: the shapes inside the well, counted by
  `interior_shape_counts`, and four wall rows, each present or not by
  one exact comparison of the wall's offset r = (I_n/4) mod j_n against
  the loop/cross column layout, with rates set by the wall-to-node
  distance d_n.  Known fault, kept on purpose: the wall rows miss
  2^(n-1) copies of one wall class at some levels (78 of 182 cases of
  the small sweep against the row-flip segments, ROADMAP items 2 and 8);
  the output stays byte-identical until the benchmark's recorded
  square-well digests are re-recorded with the fix.

* `plate_families` - the Laplacian on a constant-j space with two
  conducting plates (Dirichlet nodes), interior eigenvalues scaling as
  x0^-2 and exterior ones as (1-2 x0)^-2.

The free and plate tables are written once, as per-level rows
(`free_level`, `plate_level`) that the lambda_max loops, the zeta
continuation (`laakso.zeta.continued_sum`) and `census_closed_form` all
read.  The square-well table is not geometric in the level: one loop.

`enumerate_families` lists the lines of a table up to a ceiling as numpy
arrays; `free_spectrum`, `square_well_spectrum` and `plates_spectrum`
sort and group them into a `Spectrum`, which keeps the arrays and reads
as a sequence of `SpectralLine`s, each built only when it is read.

Coincident eigenvalues are merged on exact rational data, never by
floating comparison: every line carries a key (region, q) with
lambda = pi^2 q / scale, and the merge compares integer numerators of q
over one common denominator per region.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .graphs import _Records, well_geometry
from .plates import PlateConfig
from .sequences import JSequence

MERGED = "merged"
PER_FAMILY = "per-family"

PI2 = math.pi**2
UNIT_SCALE = {"unit": 1.0}    # x / 1.0 == x, so unit lines print pi^2 q


class MultiplicityError(ArithmeticError):
    """A multiplicity formula produced a negative or inconsistent value."""


class LineSource(NamedTuple):
    family: str
    n: int
    k: int


class SpectralLine(NamedTuple):
    """One eigenvalue with its multiplicity and the family lines behind it.

    The exact key q = num/den is kept in lowest terms as two ints rather
    than a Fraction: a line then holds no object the cyclic garbage
    collector has to track, which matters at 10^5 lines.
    """
    lam: float
    multiplicity: int
    sources: tuple[LineSource, ...]
    region: str = "unit"
    num: int = 0
    den: int = 1

    @property
    def key(self) -> tuple[str, Fraction]:
        """(region, q): equal keys are equal eigenvalues on one region."""
        return (self.region, Fraction(self.num, self.den))

    def as_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "multiplicity": self.multiplicity,
            "sources": [{"family": s.family, "n": s.n, "k": s.k} for s in self.sources],
        }


@dataclass(frozen=True)
class SpectrumQuery:
    lambda_max: float
    policy: str = MERGED

    def __post_init__(self):
        if not (self.lambda_max > 0 and math.isfinite(self.lambda_max)):
            raise ValueError(f"lambda_max must be positive and finite, "
                             f"got {self.lambda_max}")
        if self.policy not in (MERGED, PER_FAMILY):
            raise ValueError(f"unknown merge policy {self.policy!r}")


class Family(NamedTuple):
    """One closed-form family: the lines q = rate * kform(k), k >= k_min.

    kform(k) is (k + 1/2)^2 when `half` is set, else k^2; each line has
    eigenvalue pi^2 q / scale(region) and the family's multiplicity.
    """
    name: str
    n: int
    region: str
    rate: Fraction
    half: bool
    k_min: int
    multiplicity: int

    def q(self, k):
        """Numerator and denominator (not reduced) of the key q at k, for
        an int k or an int64 array of them."""
        a, b = self.rate.numerator, self.rate.denominator
        if self.half:
            return a * (2 * k + 1) ** 2, 4 * b
        return a * k * k, b


def _printed(num, den, scale):
    """The eigenvalue printed for q = num/den: pi^2 q / scale.

    The ceiling test (Python ints) and the line arrays (numpy int64) both
    use this expression, so a line is listed exactly when the value it
    prints is <= lambda_max.  Both divisions round num/den correctly as
    long as num and den are below 2^53.
    """
    return PI2 * (num / den) / scale


def _above(q: Fraction, scale: float, lambda_max: float) -> bool:
    return _printed(q.numerator, q.denominator, scale) > lambda_max


def _k_max(fam: Family, lambda_max: float, scale: float) -> int:
    """Largest k whose printed eigenvalue is <= lambda_max, or k_min - 1."""
    a, b = fam.rate.numerator, fam.rate.denominator
    bound = lambda_max * scale / PI2 * b / a     # kform(k) <= bound, roughly
    if a * bound * (4 if fam.half else 1) >= 2**52:
        # near 2^53 adjacent keys print the same float and the search stalls
        raise ValueError(f"lambda_max = {lambda_max:g} is too large for exact "
                         f"keys in family {fam.name} at n={fam.n}")
    if fam.half:
        k = (math.isqrt(int(4 * bound)) - 1) // 2
    else:
        k = math.isqrt(int(bound))
    k = max(k, fam.k_min - 1)
    while _printed(*fam.q(k + 1), scale) <= lambda_max:
        k += 1
    while k >= fam.k_min and _printed(*fam.q(k), scale) > lambda_max:
        k -= 1
    return k


class LineArrays(NamedTuple):
    """The lines of a family table, one entry per (family, k).

    `family` and `region` index the sorted lists `names` and `regions`,
    so their codes order like the strings; the exact key of entry i is
    (regions[region[i]], num[i] / dens[region[i]]).
    """
    lam: np.ndarray
    mult: np.ndarray
    family: np.ndarray
    n: np.ndarray
    k: np.ndarray
    region: np.ndarray
    num: np.ndarray
    names: list[str]
    regions: list[str]
    dens: list[int]


def enumerate_families(families: list[Family], lambda_max: float,
                       scales: dict[str, float] = UNIT_SCALE) -> LineArrays:
    """Every line with printed eigenvalue <= lambda_max, as arrays.

    Zero-multiplicity families are skipped; a family with a negative
    multiplicity raises MultiplicityError if it has a line in range.
    """
    names = sorted({f.name for f in families})
    regions = sorted({f.region for f in families})
    dens = {r: 1 for r in regions}
    for f in families:       # the denominator of q does not depend on k
        dens[f.region] = math.lcm(dens[f.region], f.q(0)[1])
    rows, ks, nums, lams = [], [], [], []
    for f in families:
        if f.multiplicity == 0:
            continue
        scale = scales[f.region]
        k_max = _k_max(f, lambda_max, scale)
        if k_max < f.k_min:
            continue
        if f.multiplicity < 0:
            raise MultiplicityError(f"negative multiplicity {f.multiplicity} in "
                                    f"family {f.name} at n={f.n}, k={f.k_min}")
        num_max, den = f.q(k_max)
        factor = dens[f.region] // den
        if num_max * factor >= 2**63:
            raise ValueError(f"lambda_max = {lambda_max:g} is too large for exact "
                             f"keys in family {f.name} at n={f.n}")
        k = np.arange(f.k_min, k_max + 1, dtype=np.int64)
        num = f.q(k)[0]
        rows.append((f.multiplicity, names.index(f.name), f.n, regions.index(f.region)))
        ks.append(k)
        nums.append(num * factor)
        lams.append(_printed(num, den, scale))
    per_row = np.array(rows, dtype=np.int64).reshape(-1, 4)
    mult, family, n, region = np.repeat(per_row, [len(k) for k in ks], axis=0).T
    none = np.empty(0, dtype=np.int64)      # keeps dtypes when no family has a line
    return LineArrays(np.concatenate([np.empty(0), *lams]), mult, family, n,
                      np.concatenate([none, *ks]), region, np.concatenate([none, *nums]),
                      names, regions, [dens[r] for r in regions])


class Spectrum(_Records):
    """The lines of a spectrum as columns: a read-only sequence of
    `SpectralLine`s that builds a line only when one is read.

    `arrays` holds one entry per (family, k) line.  `order` lists the
    entries in output order, and line i is made of the entries
    order[bounds[i]:bounds[i + 1]]: one entry per line per family, or
    every entry of one exact key when merged.  `lam` and `multiplicity`
    are the per-line columns.

    Per family, lines sort by (lambda, family, n, k).  Merged, each key's
    entries sort by (family, n, k) and the keys by (lambda, region, q).
    Keys are grouped on integer numerators; no float is compared for
    equality.
    """

    __slots__ = ("arrays", "order", "bounds", "lam", "multiplicity")

    def __init__(self, lines: LineArrays, policy: str):
        # Equal keys print equal lambdas (see `_printed`), so sorting on
        # (lambda, region, q) puts the entries of each key next to each other.
        merged = policy != PER_FAMILY
        key = (lines.num, lines.region) if merged else ()
        order = np.lexsort((lines.k, lines.n, lines.family, *key, lines.lam))
        new = np.ones(len(order), dtype=bool)
        if merged:
            region, num = lines.region[order], lines.num[order]
            new[1:] = (region[1:] != region[:-1]) | (num[1:] != num[:-1])
        bounds = np.append(np.flatnonzero(new), len(order))
        self.arrays, self.order, self.bounds = lines, order, bounds
        self.lam = lines.lam[order[bounds[:-1]]]
        self.multiplicity = np.add.reduceat(lines.mult[order], bounds[:-1])
        super().__init__(len(self.lam), self._line)

    def _line(self, i: int) -> SpectralLine:
        a = self.arrays
        entries = self.order[self.bounds[i]:self.bounds[i + 1]].tolist()
        region, num = int(a.region[entries[0]]), int(a.num[entries[0]])
        den = a.dens[region]
        gcd = math.gcd(num, den)
        sources = tuple(LineSource(a.names[a.family[e]], int(a.n[e]), int(a.k[e]))
                        for e in entries)
        return SpectralLine(float(self.lam[i]), int(self.multiplicity[i]), sources,
                            a.regions[region], num // gcd, den // gcd)


def _spectrum(families: list[Family], query: SpectrumQuery,
              scales: dict[str, float] = UNIT_SCALE) -> Spectrum:
    return Spectrum(enumerate_families(families, query.lambda_max, scales), query.policy)


def merge_lines(lines: list[SpectralLine], policy: str = MERGED) -> list[SpectralLine]:
    """Merge lines with identical exact keys; multiplicities add.

    The per-family policy is the identity.  Merging is idempotent and
    decided purely on the exact rational key.
    """
    if policy == PER_FAMILY:
        return list(lines)
    if policy != MERGED:
        raise ValueError(f"unknown merge policy {policy!r}")
    groups: dict[tuple[str, Fraction], list[SpectralLine]] = {}
    for line in lines:
        groups.setdefault(line.key, []).append(line)
    out = []
    for key, members in groups.items():
        mult = sum(m.multiplicity for m in members)
        sources = tuple(sorted((s for m in members for s in m.sources),
                               key=lambda s: (s.family, s.n, s.k)))
        out.append(members[0]._replace(multiplicity=mult, sources=sources))
    return sorted(out, key=lambda L: (L.lam, L.key[0], L.key[1]))


# ---------------------------------------------------------------------------
# free Laplacian

def free_level(seq: JSequence, n: int, I_prev: int) -> list[Family]:
    """The free Laplacian's rows at level n, given I_prev = I_{n-1}; the
    k = 0 line of level 0 is the zero eigenvalue (constant mode)."""
    if n == 0:
        return [Family("level0", 0, "unit", Fraction(1), False, 0, 1)]
    j_n = seq.j(n)
    rate = Fraction((I_prev * j_n) ** 2)
    rows = [Family("vee", n, "unit", rate, True, 0, 2**n),
            Family("loop", n, "unit", rate, False, 1, 2 ** (n - 1) * (j_n - 2) * I_prev)]
    if n >= 2:
        crosses = 2 ** (n - 2) * (I_prev - 1)
        rows += [Family("cross", n, "unit", rate, False, 1, 2 * crosses),
                 Family("cross_wide", n, "unit", rate / 4, False, 1, crosses)]
    return rows


def _collect(level, first: int, lambda_max: float, scales=UNIT_SCALE) -> list[Family]:
    """The rows of levels n < first, then of each level up to one wholly above lambda_max."""
    rows = [f for n in range(first) for f in level(n)]
    for n in itertools.count(first):
        rows_n = level(n)
        if all(_above(Fraction(*f.q(f.k_min)), scales[f.region], lambda_max) for f in rows_n):
            return rows
        rows += rows_n


def free_families(seq: JSequence, lambda_max: float) -> list[Family]:
    """The free Laplacian's families with a line <= lambda_max.

    Level n has no line below pi^2 I_n^2 / 4 >= pi^2 I_{n-1}^2, so a level
    is ruled out before its j_n is fetched (explicit sequences are only
    consulted as deep as needed), and I_n >= 2^n stops the levels early.
    """
    def level(n):
        I_prev = math.prod(seq.prefix(n - 1))
        return free_level(seq, n, I_prev) if n == 0 or PI2 * I_prev**2 <= lambda_max else []
    return _collect(level, 1, lambda_max)


def census_closed_form(seq: JSequence, n: int) -> tuple[int, int, int]:
    """Closed-form shape counts (vees, loops, crosses) of the level-n graph:
    the multiplicities of the free table's vee, loop and cross_wide rows."""
    rows = free_level(seq, n, math.prod(seq.prefix(n - 1))) if n >= 1 else []
    mult = {f.name: f.multiplicity for f in rows}
    return (mult.get("vee", 0), mult.get("loop", 0), mult.get("cross_wide", 0))


def free_spectrum(seq: JSequence, query: SpectrumQuery) -> Spectrum:
    """All Laplacian eigenvalues <= lambda_max with multiplicities.

    The zero eigenvalue (constant mode) is included with multiplicity 1.
    """
    return _spectrum(free_families(seq, query.lambda_max), query)


# ---------------------------------------------------------------------------
# infinite square well on [1/4, 3/4]

def square_well_families(seq: JSequence, lambda_max: float) -> list[Family]:
    """The square-well Hamiltonian's families with a line <= lambda_max.

    Families come from: interval modes confined to the well (4 k^2 pi^2),
    shapes cut by the wall (rates k^2 pi^2 / d_n^2 and
    k^2 pi^2 / (d_n + 1/I_n)^2), and shapes wholly inside the well
    (k^2 pi^2 I_n^2 and k^2 pi^2 I_n^2 / 4).

    At level n >= 1 the loop row has the loops inside the well as its
    multiplicity, and the cross and cross_wide rows twice and once the
    full crosses inside it (`interior_shape_counts`).  The wall rows
    depend on the wall's offset r = w mod j_n (w = I_n / 4, exact) in
    its period of j_n columns, where a loop set spans offsets
    [1, j_n - 1] and a cross [j_n - 1, j_n + 1].  With d_n != 0,
    `wall_loop` is there when 1 < r < j_n - 1, and `wall_cross` when
    r > j_n - 1, or r < 1 past the first period (w >= j_n);
    `half_cross` is there when r > j_n - 1 or r = 0, and `split_cross`
    when r > j_n - 1.  Rows of zero multiplicity are kept.

    Known fault: these rows are not the graphs' square-well spectrum.
    They differ from the row-flip segments of `laakso.solver.reduce_rows`
    in 78 of 182 (sequence, n) cases of the small sweep, each level short
    of 2^(n-1) copies of one wall class.  They are kept as they are, byte
    for byte, because the benchmark's recorded digests pin the square-well
    spectrum; the fix re-records them (ROADMAP items 2 and 8).
    """
    rows = [Family("level0", 0, "unit", Fraction(4), False, 1, 1)]
    j1 = seq.j(1)
    if j1 in (2, 3):
        d1 = well_geometry(seq, 1).d
        rows.append(Family("wall_vee", 1, "unit", 1 / d1**2, False, 1, 2))
    if j1 == 3:
        rows.append(Family("loop_level1", 1, "unit", Fraction(9), False, 1, 1))

    # the lowest line of level n, pi^2 I_n^2 / 4, is below every wall rate
    # 1/d_n^2 >= 16 I_n^2 / 49, so it gates the level as for the free space
    I_prev, n = 1, 1
    while PI2 * I_prev**2 <= lambda_max:
        j_n = seq.j(n)
        I_n = I_prev * j_n
        rate = Fraction(I_n * I_n)
        if _above(rate / 4, 1.0, lambda_max):
            break
        d = well_geometry(seq, n).d
        r = Fraction(I_n, 4) % j_n
        in_cross = r > j_n - 1          # the wall is left of a cross's centre
        full, _, loops = interior_shape_counts(seq, n)
        if n == 1 and j_n == 3:         # that loop is the loop_level1 row
            loops = 0

        if d != 0 and 1 < r < j_n - 1:
            rows.append(Family("wall_loop", n, "unit", 1 / d**2, False, 1, 2**n))
        rows.append(Family("loop", n, "unit", rate, False, 1, loops))
        if n >= 2:
            if d != 0 and (in_cross or (r < 1 and I_n >= 4 * j_n)):
                rows.append(Family("wall_cross", n, "unit", 1 / d**2, False, 1,
                                   2 ** (n - 1)))
            if in_cross or r == 0:
                rows.append(Family("half_cross", n, "unit", rate, False, 1,
                                   2 ** (n - 1)))
            if in_cross:
                rows.append(Family("split_cross", n, "unit",
                                   1 / (d + Fraction(1, I_n)) ** 2, False, 1,
                                   2 ** (n - 1)))
            rows.append(Family("cross", n, "unit", rate, False, 1, 2 * full))
            rows.append(Family("cross_wide", n, "unit", rate / 4, False, 1, full))
        I_prev, n = I_n, n + 1
    return rows


def square_well_spectrum(seq: JSequence, query: SpectrumQuery) -> Spectrum:
    """Eigenvalues of the square-well Hamiltonian, ten closed-form families
    (see `square_well_families`); zero-multiplicity cases are suppressed."""
    return _spectrum(square_well_families(seq, query.lambda_max), query)


def interior_shape_counts(seq: JSequence, n: int) -> tuple[int, int, int]:
    """Closed-form (full crosses, half crosses, loops) inside the well.

    Floor arithmetic on lo = ceil(w) and hi = floor(3w), the first and
    last column inside the well (w = I_n/4, from `well_geometry`), with
    j = j_n.  The loops are 2^(n-1) per k in [lo, hi - 1] with neither k
    nor k + 1 a multiple of j.  The crosses are 2^(n-2) per multiple of j:
    full for each in [lo + 1, hi - 1], half for each other one in
    [lo, hi], where a wall cuts the cross.
    """
    if n < 1:
        raise ValueError("interior counts need level >= 1")
    j, w = seq.j(n), well_geometry(seq, n).w
    lo, hi = math.ceil(w), math.floor(3 * w)

    def multiples(a, b):
        return b // j - (a - 1) // j

    full = multiples(lo + 1, hi - 1)
    loops = hi - lo - multiples(lo, hi - 1) - multiples(lo + 1, hi)
    per_cross = 2**n // 4           # 2^(n-2); level 1 has no crosses
    return (per_cross * full, per_cross * (multiples(lo, hi) - full), 2 ** (n - 1) * loops)


# ---------------------------------------------------------------------------
# conducting plates

def plate_scales(cfg: PlateConfig) -> dict[str, float]:
    """lambda = pi^2 q / scale: x0^2 inside the plates, (1-2 x0)^2 outside.

    Raises ValueError naming cfg if a scale underflows to 0 or is not finite.
    """
    scales = {"interior": cfg.x0 * cfg.x0, "exterior": (1 - 2 * cfg.x0) ** 2}
    for region, scale in scales.items():
        if not 0 < scale < math.inf:
            raise cfg.outside_double_range(f"the {region} scale is {scale!r}")
    return scales


def plate_level(N: int, Z: int, n: int) -> list[Family]:
    """The plate-configured Laplacian's rows at level n."""
    E = N - (Z + 1)               # exterior cells per row at level 1
    if n == 0:
        return [Family("interior_level0", 0, "interior", Fraction(1, 4), False, 1, 1),
                Family("exterior_level0", 0, "exterior", Fraction(4), True, 0, 2)]
    if n == 1:
        return [Family("vee_level1", 1, "exterior", Fraction(E * E), True, 0, 2),
                Family("exterior_loop_level1", 1, "exterior", Fraction(E * E), False, 1, E - 2),
                Family("interior_loop_level1", 1, "interior", Fraction((Z + 1) ** 2, 4),
                       False, 1, Z + 1)]
    I_n = N**n
    aI = E * N ** (n - 2)         # (1 - (Z+1)/N) I_{n-1}, an integer
    zI = (Z + 1) * N ** (n - 2)   # ((Z+1)/N) I_{n-1}
    ext = Fraction(I_n * E, N) ** 2
    inner = Fraction(I_n * (Z + 1), 2 * N) ** 2
    return [
        Family("vee", n, "exterior", ext, True, 0, 2**n),
        Family("exterior_cell", n, "exterior", ext, False, 1, 2 ** (n - 1) * aI * (N - 1)),
        Family("exterior_cell_wide", n, "exterior", ext / 4, False, 1, 2 ** (n - 2) * (aI - 2)),
        Family("interior_cell", n, "interior", inner, False, 1, 2 ** (n - 1) * (zI * (N - 1) + 1)),
        Family("interior_cell_wide", n, "interior", inner / 4, False, 1, 2 ** (n - 2) * (zI - 1)),
    ]


def plate_families(cfg: PlateConfig, lambda_max: float) -> list[Family]:
    """The plate-configured Laplacian's families with a line <= lambda_max.

    Interior families scale as x0^-2 and exterior families as
    (1-2 x0)^-2; the key q is the squared rational coefficient of
    pi / x0 or pi / (1-2 x0).  Interior and exterior lines are never
    merged with each other (their ratio depends on x0).
    """
    return _collect(lambda n: plate_level(cfg.N, cfg.Z, n), 2, lambda_max, plate_scales(cfg))


def plates_spectrum(cfg: PlateConfig, query: SpectrumQuery) -> Spectrum:
    """Eigenvalues of the plate-configured Laplacian, ten families
    (see `plate_families`)."""
    return _spectrum(plate_families(cfg, query.lambda_max), query, plate_scales(cfg))
