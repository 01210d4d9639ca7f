"""Quantum-graph approximations of Laakso spaces.

The level-n graph is built from the unit interval by repeatedly
subdividing every cell into j_k equal subcells (k = 1..n), duplicating
the whole graph, and gluing the two copies at the newly created nodes.
Nodes line up in columns at x = k/I_n; each of the 2^n rows records
which copy was taken at each level.

The graph is stored as integer arrays.  A row is an n-bit int bitmask,
most significant bit first (the level-1 copy).  Cell id row * I_n + k
spans columns [k, k + 1] of that row.  A column born at level m >= 1
glues the two level-m copies, so its vertices ignore bit n - m of the
row mask; vertex ids run over (column, row class) in that order.  Binary
row labels such as '0*1', and the Vertex records of the `vertices` view,
are built only when they are read.

Every level-n graph decomposes into three shape primitives:

* a V: two cells meeting at a column-1 (or column I_n - 1) node, open at
  the boundary of the space,
* a loop: two parallel cells between adjacent newest-level nodes,
* a cross: eight cells around a node column inherited from an earlier
  level, forming two X's glued at four corner nodes.

The builder does not record them.  `shape_census` finds them from the
cell endpoints alone (`_decompose`), as arrays of cell ids per kind.

All coordinates, lengths, and well geometry are exact rationals: the
eigenvalue multiplicity case analysis branches on exact comparisons, so
floating point is not allowed here.
"""

from __future__ import annotations

import functools
import math
import operator
import os
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .plates import PlateConfig, PlateConfigError
from .sequences import JSequence, level_products

# Peak bytes per cell, tracemalloc, j = 2, n = 8-10: census 158, solve 543-554,
# most of it dstemr's N x N, which the solve checks on its own (solver.py)
_BYTES_PER_CELL = 320

class GraphBuildError(ValueError):
    """The requested graph cannot be built."""


def _memory_budget() -> float:
    """Bytes a request may plan to hold: the machine's physical memory,
    or the RLIMIT_AS soft limit when one is set and lower."""
    try:
        budget = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):     # no sysconf: no budget
        budget = math.inf
    try:
        import resource
    except ImportError:
        return budget
    soft = resource.getrlimit(resource.RLIMIT_AS)[0]
    return budget if soft == resource.RLIM_INFINITY else min(budget, soft)


def _check_budget(need: float, what: str, error: type[Exception] = ValueError):
    """Raise `error` if `need` bytes are more than `_memory_budget()`;
    `what` names the stage and the sizes that need them."""
    budget = _memory_budget()
    if need > budget:
        raise error(f"{what} about {need / 1e9:.1f} GB, more than the "
                    f"{budget / 1e9:.1f} GB this process may use")


@dataclass(frozen=True, slots=True)
class Vertex:
    id: int
    column: int
    x: Fraction
    birth: int              # level at which this node column first appeared
    row_class: str          # row label with '*' at the glued level, if any
    conducting: bool = False


@dataclass(frozen=True, slots=True)
class RegionSplit:
    interior: int
    exterior: int
    straddling: int


@dataclass(frozen=True)
class ShapeCensus:
    level: int
    vees: int
    loops: int
    crosses: int
    region: str | None = None
    split: dict | None = None          # kind -> RegionSplit
    half_crosses_interior: int = 0     # straddling crosses whose center is inside


@dataclass(frozen=True)
class WellGeometry:
    """Square-well geometry of the level-n graph, all exact rationals.

    w is the wall position x = 1/4 measured in columns (I_n / 4); d is
    the x-distance from the wall to the nearest node column at or inside
    the well.  wall_on_node flags the degenerate d = 0 case, where the
    wall coincides with a node column.
    """
    level: int
    w: Fraction
    d: Fraction
    wall_on_node: bool


class _Records(Sequence):
    """Read-only sequence that builds each record only when it is read."""

    __slots__ = ("_len", "_make")

    def __init__(self, length: int, make):
        self._len = length
        self._make = make

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._make(k) for k in range(*i.indices(self._len))]
        i = operator.index(i)
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError("record index out of range")
        return self._make(i)

    def __eq__(self, other):
        if isinstance(other, (list, tuple, _Records)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"<{self._len} records>"


@dataclass(eq=False)
class QuantumGraph:
    """The level-n graph as arrays.

    Per column: `birth` (the level at which the column first appears,
    0 for the two ends) and its exact x in `column_x`, made from the cell
    lengths on first read.  Per cell column k: `length_class`, an index
    into the exact `lengths`.  Per vertex: its column.  Per cell: only
    the endpoint vertex ids `u` < `v`; cell id row * I_n + k is the
    record of its row bitmask and its start column k.

    `vertices` is a view for inspection: each Vertex record is built
    when it is read.
    """

    level: int
    js: tuple[int, ...]
    products: tuple[int, ...]           # I_0..I_n
    birth: np.ndarray
    vertex_column: np.ndarray
    u: np.ndarray
    v: np.ndarray
    length_class: np.ndarray
    lengths: tuple[Fraction, ...]
    plates: PlateConfig | None = None

    @functools.cached_property
    def column_x(self) -> tuple[Fraction, ...]:
        den = math.lcm(*(x.denominator for x in self.lengths))
        steps = [x.numerator * (den // x.denominator) for x in self.lengths]
        nums = accumulate((steps[k] for k in self.length_class.tolist()), initial=0)
        return tuple(Fraction(m, den) for m in nums)

    @property
    def columns(self) -> int:
        return self.products[self.level]

    @property
    def num_cells(self) -> int:
        return len(self.u)

    @property
    def num_vertices(self) -> int:
        return len(self.vertex_column)

    @property
    def vertices(self) -> Sequence[Vertex]:
        return _Records(self.num_vertices, self._vertex)

    def _vertex(self, i: int) -> Vertex:
        col = int(self.vertex_column[i])
        return Vertex(i, col, self.column_x[col], int(self.birth[col]),
                      str(self.vertex_labels([i])[0]),
                      col in _plate_columns(self.plates, self.columns))

    def vertex_rows(self, ids=None) -> np.ndarray:
        """Row bitmasks of the given vertices, or of all of them; the bit a
        glued vertex ignores reads 0."""
        ids = np.arange(self.num_vertices) if ids is None else np.asarray(ids)
        col = self.vertex_column[ids]
        return _row_of_class(ids - _column_start(self.birth, self.level)[col],
                             self.level - self.birth[col])

    def vertex_labels(self, ids=None) -> np.ndarray:
        """Row-class labels ('0*1') of the given vertices, or of all of them."""
        ids = np.arange(self.num_vertices) if ids is None else np.asarray(ids)
        m = self.birth[self.vertex_column[ids]]
        return _bit_strings(self.vertex_rows(ids), self.level, np.where(m > 0, m - 1, -1))

    def row_labels(self, rows) -> np.ndarray:
        """Full binary labels of the given row bitmasks."""
        return _bit_strings(np.asarray(rows), self.level)

    def conducting_columns(self) -> tuple[int, ...]:
        return _plate_columns(self.plates, self.columns)

    def conducting_ids(self) -> np.ndarray:
        return np.flatnonzero(np.isin(self.vertex_column, self.conducting_columns()))

    def degrees(self) -> np.ndarray:
        nv = self.num_vertices
        return np.bincount(self.u, minlength=nv) + np.bincount(self.v, minlength=nv)


def _bit_strings(masks: np.ndarray, n: int, star: np.ndarray | None = None) -> np.ndarray:
    """n-character binary labels of int bitmasks, most significant bit first.

    Where star[i] >= 0, character star[i] of label i reads '*'.
    """
    if n == 0:
        return np.full(len(masks), "")
    chars = (ord("0") + ((masks[:, None] >> np.arange(n - 1, -1, -1)) & 1)).astype(np.uint8)
    if star is not None:
        hit = np.flatnonzero(star >= 0)
        chars[hit, star[hit]] = ord("*")
    return chars.view(f"S{n}").ravel().astype(f"U{n}")


def _class_of(row, bit):
    """Row class of a row bitmask: the mask with `bit` removed (none when bit = n)."""
    return ((row >> (bit + 1)) << bit) | (row & ((1 << bit) - 1))


def _row_of_class(cls, bit):
    """Inverse of `_class_of`, reading the removed bit as 0."""
    return ((cls >> bit) << (bit + 1)) | (cls & ((1 << bit) - 1))


def _column_start(birth: np.ndarray, n: int) -> np.ndarray:
    """First vertex id of each column: 2^n vertices at the ends, 2^(n-1) elsewhere."""
    per_column = np.where(birth == 0, 1 << n, (1 << n) >> 1)
    return np.concatenate([[0], np.cumsum(per_column)])


def _plate_columns(plates: PlateConfig | None, I_n: int) -> tuple[int, ...]:
    if plates is None:
        return ()
    step = I_n // plates.N
    return (plates.left_node * step, plates.right_node * step)


def _birth_levels(products: list[int], n: int) -> np.ndarray:
    """birth[k] = smallest level m such that column k exists in the level-m graph."""
    I_n = products[n]
    birth = np.full(I_n + 1, n, dtype=np.int64)
    for m in range(n - 1, 0, -1):
        birth[:: I_n // products[m]] = m
    birth[[0, -1]] = 0
    return birth


def build_graph(
    seq: JSequence,
    n: int,
    plates: PlateConfig | None = None,
) -> QuantumGraph:
    """Build the explicit level-n quantum graph.

    Parameters
    ----------
    seq : JSequence
        Subdivision sequence; must be defined through level n.
    n : int
        Approximation level, n >= 0.
    plates : PlateConfig, optional
        Conducting-plate configuration.  Requires a constant sequence
        j = N and n >= 1; interior cells get length
        (2 N x0/(Z+1)) / I_n, exterior cells (1-2 x0)/(1-(Z+1)/N) / I_n,
        and every vertex on a plate column is flagged conducting.

    Returns
    -------
    QuantumGraph
        Columns carry exact rational x-coordinates; without plates
        every cell has length 1/I_n.

    A graph whose 2^n I_n cells need more than `_memory_budget()` at
    _BYTES_PER_CELL each (`_check_budget`), or whose vertex count squared
    (a packed pair key) passes int64, raises GraphBuildError before any
    array is made.
    """
    if n < 0:
        raise GraphBuildError(f"level must be >= 0, got {n}")
    if n >= 32:         # I_n >= 2^n: over 2^64 cells, and 2^62 vertices
        raise GraphBuildError(f"the level-{n} graph has more than 2^{2 * n} cells")
    products = level_products(seq, n)
    I_n = products[n]
    cells, nv = I_n << n, (2 << n) + ((I_n - 1) << n >> 1)
    _check_budget(cells * _BYTES_PER_CELL, f"the level-{n} graph has {cells} cells and "
                  f"{nv} vertices, which need", GraphBuildError)
    if nv**2 >= 2**63:
        raise GraphBuildError(f"the level-{n} graph has {nv} vertices, too many for int64 keys")

    if plates is None:
        lengths, plate_left, plate_right = (Fraction(1, I_n),), 0, 0
    else:
        if n < 1:
            raise GraphBuildError("plate columns only exist at level >= 1")
        if any(j != plates.N for j in seq.prefix(n)):
            raise PlateConfigError(
                f"plate machinery requires the constant sequence j = {plates.N}"
            )
        plate_left, plate_right = _plate_columns(plates, I_n)
        lengths = (plates.exterior_scale() / I_n, plates.interior_scale() / I_n)

    birth = _birth_levels(products, n)
    start = _column_start(birth, n)
    vertex_column = np.repeat(np.arange(I_n + 1), np.diff(start))

    # Cells in (row, column) order, so id = row * I_n + k; an end vertex's
    # id is its column's first id plus the row class.
    row = np.arange(1 << n, dtype=np.int64)[:, None]
    u = (start[:I_n] + _class_of(row, n - birth[:-1])).ravel()
    v = (start[1:-1] + _class_of(row, n - birth[1:])).ravel()
    cell = np.arange(I_n)
    length_class = ((cell >= plate_left) & (cell < plate_right)).astype(np.int8)
    return QuantumGraph(n, tuple(seq.prefix(n)), tuple(products), birth,
                        vertex_column, u, v, length_class, lengths, plates)


def _region_walls(graph: QuantumGraph, region: str) -> tuple[int, int]:
    """The region's walls in quarter columns: x = 1/4 and 3/4 for the well."""
    I_n = graph.columns
    if region == "well":
        return I_n, 3 * I_n
    if region == "plates":
        if graph.plates is None:
            raise ValueError("graph was built without plates")
        return tuple(4 * k for k in _plate_columns(graph.plates, I_n))
    raise ValueError(f"unknown region {region!r}")


def shape_census(graph: QuantumGraph, region: str | None = None) -> ShapeCensus:
    """Count shapes by brute-force decomposition of the explicit graph.

    The decomposition is derived from adjacency alone (`_decompose`), so
    it can serve as an independent check of the closed-form counts.

    Parameters
    ----------
    graph : QuantumGraph
        Level n >= 1 graph (crosses require n >= 2 to appear).
    region : {'well', 'plates'}, optional
        Also classify every shape as interior / exterior / straddling
        with respect to [1/4, 3/4] or the plate columns.  A straddling
        cross whose center lies inside the region contributes one
        half-cross to the region (two disjoint half-crosses count as one
        whole cross in the plain totals).

    Returns
    -------
    ShapeCensus
    """
    if graph.level < 1:
        raise ValueError("shape decomposition needs level >= 1")
    shapes = _decompose(graph)
    counts = [len(shapes[kind]) for kind in ("vee", "loop", "cross")]
    if region is None:
        return ShapeCensus(graph.level, *counts)

    found = {kind: [4 * x for x in _extent(graph, eids)] for kind, eids in shapes.items()}
    wl, wr = _region_walls(graph, region)
    split, straddling = {}, {}
    for kind, (a, b) in found.items():
        inside = (a >= wl) & (b <= wr)
        outside = ~inside & ((b <= wl) | (a >= wr))
        straddling[kind] = ~inside & ~outside
        split[kind] = RegionSplit(int(inside.sum()), int(outside.sum()),
                                  int(straddling[kind].sum()))
    c = found["cross"][0] + 4           # each cross's center, in quarter columns
    half_inside = int(np.sum(straddling["cross"] & (c >= wl) & (c <= wr)))
    return ShapeCensus(graph.level, *counts, region, split, half_inside)


def _extent(graph: QuantumGraph, eids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and last column touched by each row of cell ids: cell
    row * I_n + k spans columns [k, k + 1]."""
    k = eids % graph.columns
    return k.min(axis=1), k.max(axis=1) + 1


def _decompose(graph: QuantumGraph) -> dict[str, np.ndarray]:
    """The shapes of a level n >= 1 graph, as edge ids per kind (vee, loop,
    cross), one ascending row per shape.

    Parallel cells give loops, boundary legs give vees, and twin degree-4
    nodes with a common 4-corner neighborhood give crosses.  It reads only
    the cell endpoints `u`, `v` and the vertex columns, and raises
    GraphBuildError unless the shapes partition the cells.  Each kind's
    rows are in the id order of the apex, the left pair end or the least
    corner; vertex ids run by column, then by row class, so that is the
    order of (first column, edge ids).

    Stable sorts (timsort, fast on these long ascending runs) group the
    vertex-pair keys, the remaining cell ends and, by lexsort, the corner
    pairs.  No key wraps: each packs two vertex ids below nv^2, and
    `build_graph` refuses a graph with nv^2 >= 2^63.
    """
    u, v, col = graph.u, graph.v, graph.vertex_column
    nv, ne = len(col), len(u)
    deg = graph.degrees()
    used = np.zeros(ne, dtype=bool)

    # Vees: legs at degree-1 vertices, paired by apex and boundary side.
    legs = np.flatnonzero((deg[u] == 1) | (deg[v] == 1))
    leaf_is_u = deg[u[legs]] == 1
    apex = np.where(leaf_is_u, v[legs], u[legs])
    side = col[np.where(leaf_is_u, u[legs], v[legs])]
    keys, inverse, counts = np.unique(apex * (graph.columns + 1) + side,
                                      return_inverse=True, return_counts=True)
    if np.any(counts != 2):
        bad = np.flatnonzero(counts != 2)[0]
        raise GraphBuildError(f"vertex {keys[bad] // (graph.columns + 1)} has "
                              f"{counts[bad]} boundary legs")
    vees = legs[np.argsort(inverse, kind="stable")].reshape(-1, 2)
    used[legs] = True

    # Loops: exactly two parallel cells between the same vertex pair.
    key = np.minimum(u, v) * nv + np.maximum(u, v)
    order = np.argsort(key, kind="stable")
    key = key[order]
    dup = np.flatnonzero(key[1:] == key[:-1])
    loops = np.stack([order[dup], order[dup + 1]], axis=1)
    clash = used[loops[:, 0]] | used[loops[:, 1]]
    clash[1:] |= dup[1:] == dup[:-1] + 1        # a third parallel cell
    if clash.any():
        pair = divmod(int(key[dup[np.argmax(clash)]]), nv)
        raise GraphBuildError(f"unexpected multi-edge between {pair}")
    used[loops] = True

    # Crosses: twin vertices sharing the same four remaining neighbors.
    # Cell rest[p >> 1] has the ends ends[p] and ends[p ^ 1].
    rest = np.flatnonzero(~used)
    ends = np.stack([u[rest], v[rest]], axis=1).ravel()
    rdeg = np.bincount(ends, minlength=nv)
    slots = np.argsort(ends, kind="stable")[
        (np.cumsum(rdeg) - rdeg)[rdeg == 4] + np.arange(4)[:, None]]
    c = list(ends[slots ^ 1])
    for i, j in ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2)):      # a sorting network
        c[i], c[j] = np.minimum(c[i], c[j]), np.maximum(c[i], c[j])
    low, high = c[0] * nv + c[1], c[2] * nv + c[3]
    node = np.flatnonzero((c[0] < c[1]) & (c[1] < c[2]) & (c[2] < c[3]))
    node = node[np.lexsort((high[node], low[node]))]
    first = np.flatnonzero(np.diff(low[node], prepend=-1) | np.diff(high[node], prepend=-1))
    sizes = np.diff(first, append=len(node))
    if np.any(sizes > 2):
        k = np.argmax(sizes > 2)
        raise GraphBuildError(f"{sizes[k]} nodes share corners "
                              f"{set(int(x[node[first[k]]]) for x in c)}")
    first = first[sizes == 2]       # a lone one is a corner between two crosses
    twins = np.concatenate([slots[:, node[first]], slots[:, node[first + 1]]])
    cand = np.sort(rest[np.ascontiguousarray(twins.T) >> 1], axis=1)   # rows read as uint64
    if np.any(cand[:, 1:] == cand[:, :-1]):
        raise GraphBuildError("cross candidate with wrong cell count")

    # Both orientations of a K_{2,4} can look like twins when adjacent
    # cross centers carry the same glued level, so candidates are tiled
    # by exact cover: rounds commit every candidate that is the only live
    # owner of an uncovered cell and drop the live candidates it overlaps.
    # A row of 8 bools is read as one uint64, as np.any(axis=1) is slow.
    live, committed = np.arange(len(cand)), np.zeros(len(cand), dtype=bool)
    while len(live):
        rows = cand[live]
        forced = (np.bincount(rows.ravel(), minlength=ne)[rows] == 1).view(np.uint64)[:, 0] > 0
        if not forced.any():
            break
        covered = np.count_nonzero(used)
        used[rows[forced]] = True
        if np.count_nonzero(used) - covered < 8 * np.count_nonzero(forced):
            raise GraphBuildError("conflicting cross tiling")
        committed[live[forced]] = True
        live = live[used[rows].view(np.uint64)[:, 0] == 0]
    if not used.all():
        raise GraphBuildError(f"decomposition covered {int(used.sum())} of {ne} cells")

    return {"vee": vees, "loop": loops, "cross": cand[committed]}


def column_boundaries(seq: JSequence, n: int) -> list[tuple[str, int, tuple[int, int]]]:
    """Column intervals occupied by each shape family at level n.

    Vees occupy [0, 1] and [I_n - 1, I_n]; the m-th loop set occupies
    [(m-1) j_n + 1, m j_n - 1] for 1 <= m <= I_{n-1} (zero-width when
    j_n = 2); the m-th cross occupies [m j_n - 1, m j_n + 1] for
    1 <= m <= I_{n-1} - 1.
    """
    if n < 1:
        raise ValueError("column boundaries need level >= 1")
    products = level_products(seq, n)
    I_n, I_prev, j_n = products[n], products[n - 1], seq.j(n)
    out: list[tuple[str, int, tuple[int, int]]] = [("vee", 1, (0, 1))]
    for m in range(1, I_prev + 1):
        out.append(("loop", m, ((m - 1) * j_n + 1, m * j_n - 1)))
        if m <= I_prev - 1:
            out.append(("cross", m, (m * j_n - 1, m * j_n + 1)))
    out.append(("vee", 2, (I_n - 1, I_n)))
    return out


def well_geometry(seq: JSequence, n: int) -> WellGeometry:
    """Exact square-well geometry (w, d) of the level-n graph.

    w = I_n / 4 counts columns between x = 0 and the wall at x = 1/4;
    d is the distance from the wall to the nearest node column k/I_n
    with k/I_n >= 1/4 (closed side, so d = 0 when the wall sits on a
    node column).
    """
    if n < 1:
        raise ValueError("well geometry needs level >= 1")
    I_n = math.prod(seq.prefix(n))
    w = Fraction(I_n, 4)
    d = Fraction(math.ceil(w) - w, I_n)
    return WellGeometry(n, w, d, d == 0)
