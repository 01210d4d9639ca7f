"""Quantum-graph approximations of Laakso spaces.

The level-n graph is built from the unit interval by repeatedly
subdividing every cell into j_k equal subcells (k = 1..n), duplicating
the whole graph, and gluing the two copies at the newly created nodes.
Nodes line up in columns at x = k/I_n; each of the 2^n rows is labelled
by a binary string recording which copy was taken at each level.

Every level-n graph decomposes into three shape primitives:

* a V: two cells meeting at a column-1 (or column I_n - 1) node, open at
  the boundary of the space,
* a loop: two parallel cells between adjacent newest-level nodes,
* a cross: eight cells around a node column inherited from an earlier
  level, forming two X's glued at four corner nodes.

All coordinates, lengths, and well geometry are exact rationals: the
eigenvalue multiplicity case analysis branches on exact comparisons, so
floating point is not allowed here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .plates import PlateConfig, PlateConfigError
from .sequences import JSequence, level_products

WELL_LEFT = Fraction(1, 4)
WELL_RIGHT = Fraction(3, 4)


class GraphBuildError(ValueError):
    """The requested graph cannot be built."""


@dataclass(frozen=True, slots=True)
class Vertex:
    id: int
    column: int
    x: Fraction
    birth: int              # level at which this node column first appeared
    row_class: str          # row label with '*' at the glued level, if any
    conducting: bool = False


@dataclass(frozen=True, slots=True)
class Edge:
    id: int
    u: int
    v: int
    row: str                # full binary row label
    cell: int               # spans columns [cell, cell + 1]
    length: Fraction


@dataclass(frozen=True, slots=True)
class Shape:
    kind: str               # 'vee' | 'loop' | 'cross'
    col_a: int
    col_b: int
    edge_ids: tuple[int, ...]
    center: int | None = None   # cross center column


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


@dataclass
class QuantumGraph:
    level: int
    js: tuple[int, ...]
    products: tuple[int, ...]           # I_0..I_n
    vertices: list[Vertex]
    edges: list[Edge]
    shapes: list[Shape]
    plates: PlateConfig | None = None
    _vid: dict = field(default_factory=dict, repr=False)

    @property
    def columns(self) -> int:
        return self.products[self.level]

    @property
    def num_cells(self) -> int:
        return len(self.edges)

    def vertex_id(self, column: int, row_class: str) -> int:
        return self._vid[(column, row_class)]

    def conducting_ids(self) -> list[int]:
        return [v.id for v in self.vertices if v.conducting]

    def degrees(self) -> list[int]:
        deg = [0] * len(self.vertices)
        for e in self.edges:
            deg[e.u] += 1
            deg[e.v] += 1
        return deg

    def is_connected(self) -> bool:
        if not self.vertices:
            return True
        adj = [[] for _ in self.vertices]
        for e in self.edges:
            adj[e.u].append(e.v)
            adj[e.v].append(e.u)
        seen = [False] * len(self.vertices)
        stack = [0]
        seen[0] = True
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        return all(seen)

    def horizontal_image(self) -> list[int]:
        """Edge permutation induced by x -> 1 - x; raises if not a symmetry."""
        by_key = {(e.row, e.cell): e for e in self.edges}
        last = self.columns - 1
        perm = []
        for e in self.edges:
            img = by_key[(e.row, last - e.cell)]
            if img.length != e.length:
                raise GraphBuildError("graph is not horizontally symmetric")
            perm.append(img.id)
        return perm

    def vertical_image(self) -> list[int]:
        """Edge permutation induced by swapping the two copies at every level."""
        by_key = {(e.row, e.cell): e for e in self.edges}
        flip = str.maketrans("01", "10")
        return [by_key[(e.row.translate(flip), e.cell)].id for e in self.edges]


def _birth_levels(products: list[int], n: int) -> list[int]:
    """birth[k] = smallest level m such that column k exists in the level-m graph."""
    I_n = products[n]
    birth = [n] * (I_n + 1)
    birth[0] = 0
    birth[I_n] = 0
    for m in range(1, n):
        step = I_n // products[m]
        for k in range(step, I_n, step):
            if birth[k] == n:
                birth[k] = m
    return birth


def _class_label(row: str, birth: int) -> str:
    """Row-class label of a column: the glued level's bit is wildcarded."""
    if birth == 0:
        return row
    i = birth - 1
    return row[:i] + "*" + row[i + 1 :]


def build_graph(
    seq: JSequence,
    n: int,
    plates: PlateConfig | None = None,
    validate: bool = True,
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
    validate : bool
        Check the shape decomposition partitions the edge set.

    Returns
    -------
    QuantumGraph
        Vertices carry exact rational x-coordinates and column indices;
        without plates every edge has length 1/I_n.
    """
    if n < 0:
        raise GraphBuildError(f"level must be >= 0, got {n}")
    products = level_products(seq, n)
    I_n = products[n]

    plate_left = plate_right = None
    int_len = ext_len = None
    if plates is not None:
        if n < 1:
            raise GraphBuildError("plate columns only exist at level >= 1")
        if any(j != plates.N for j in seq.prefix(n)):
            raise PlateConfigError(
                f"plate machinery requires the constant sequence j = {plates.N}"
            )
        plate_left = plates.left_node * (I_n // plates.N)
        plate_right = plates.right_node * (I_n // plates.N)
        int_len = plates.interior_scale() / I_n
        ext_len = plates.exterior_scale() / I_n

    birth = _birth_levels(products, n)

    def column_x(k: int) -> Fraction:
        if plates is None:
            return Fraction(k, I_n)
        if k <= plate_left:
            return k * ext_len
        if k <= plate_right:
            return plate_left * ext_len + (k - plate_left) * int_len
        return plate_left * ext_len + (plate_right - plate_left) * int_len \
            + (k - plate_right) * ext_len

    # Vertices, ordered by (column, row class) for deterministic ids.
    vertices: list[Vertex] = []
    vid: dict[tuple[int, str], int] = {}
    half_rows = [format(r, f"0{n - 1}b") if n > 1 else "" for r in range(2 ** max(n - 1, 0))]
    full_rows = [format(r, f"0{n}b") if n > 0 else "" for r in range(2**n)]
    for k in range(I_n + 1):
        m = birth[k]
        if m == 0:
            labels = full_rows
        else:
            i = m - 1
            labels = [w[:i] + "*" + w[i:] for w in half_rows]
        x = column_x(k)
        conducting = plates is not None and k in (plate_left, plate_right)
        for label in labels:
            v = Vertex(len(vertices), k, x, m, label, conducting)
            vid[(k, label)] = v.id
            vertices.append(v)

    # Edges: one per (row, cell), deterministic order.
    edges: list[Edge] = []
    for row in full_rows:
        for k in range(I_n):
            if plates is None:
                length = Fraction(1, I_n)
            else:
                length = int_len if plate_left <= k < plate_right else ext_len
            u = vid[(k, _class_label(row, birth[k]))]
            v = vid[(k + 1, _class_label(row, birth[k + 1]))]
            edges.append(Edge(len(edges), u, v, row, k, length))

    shapes = _construct_shapes(edges, birth, I_n, n) if n >= 1 else []

    graph = QuantumGraph(n, tuple(seq.prefix(n)), tuple(products),
                         vertices, edges, shapes, plates, vid)
    if validate:
        _check_graph(graph)
    return graph


def _construct_shapes(edges: list[Edge], birth: list[int], I_n: int, n: int) -> list[Shape]:
    by_cell: dict[int, list[Edge]] = {}
    for e in edges:
        by_cell.setdefault(e.cell, []).append(e)

    shapes: list[Shape] = []

    def add_vees(cell: int, apex_col: int):
        groups: dict[int, list[Edge]] = {}
        apex_is_u = apex_col == cell
        for e in by_cell[cell]:
            apex = e.u if apex_is_u else e.v
            groups.setdefault(apex, []).append(e)
        for apex in sorted(groups):
            pair = groups[apex]
            shapes.append(Shape("vee", cell, cell + 1,
                                tuple(sorted(e.id for e in pair))))

    add_vees(0, 1)
    if I_n > 1:
        add_vees(I_n - 1, I_n - 1)

    # Loops: parallel cells between adjacent newest-level columns.
    for k in range(1, I_n - 1):
        if birth[k] == n and birth[k + 1] == n:
            groups: dict[tuple[int, int], list[Edge]] = {}
            for e in by_cell[k]:
                groups.setdefault((min(e.u, e.v), max(e.u, e.v)), []).append(e)
            for key in sorted(groups):
                shapes.append(Shape("loop", k, k + 1,
                                    tuple(sorted(e.id for e in groups[key]))))

    # Crosses: eight cells around each interior column of an earlier level.
    for c in range(1, I_n):
        m = birth[c]
        if m >= n or m == 0:
            continue
        groups: dict[str, list[Edge]] = {}
        for e in by_cell[c - 1] + by_cell[c]:
            key = _class_label(_class_label(e.row, m), n)
            groups.setdefault(key, []).append(e)
        for key in sorted(groups):
            shapes.append(Shape("cross", c - 1, c + 1,
                                tuple(sorted(e.id for e in groups[key])), center=c))

    return shapes


def _check_graph(graph: QuantumGraph):
    n, I_n = graph.level, graph.columns
    expected = 2**n * I_n if n >= 1 else 1
    if len(graph.edges) != expected:
        raise GraphBuildError(
            f"cell count {len(graph.edges)} != {expected} at level {n}"
        )
    if n >= 1:
        seen: set[int] = set()
        for s in graph.shapes:
            size = {"vee": 2, "loop": 2, "cross": 8}[s.kind]
            if len(s.edge_ids) != size:
                raise GraphBuildError(f"{s.kind} with {len(s.edge_ids)} cells")
            seen.update(s.edge_ids)
        if len(seen) != len(graph.edges):
            raise GraphBuildError("shape decomposition does not partition the cells")


def census_closed_form(seq: JSequence, n: int) -> tuple[int, int, int]:
    """Closed-form shape counts (vees, loops, crosses) of the level-n graph.

    vees = 2^n, loops = 2^(n-1) (j_n - 2) I_{n-1}, and for n >= 2
    crosses = 2^(n-2) (I_{n-1} - 1).
    """
    if n < 1:
        return (0, 0, 0)
    products = level_products(seq, n)
    j_n = seq.j(n)
    vees = 2**n
    loops = 2 ** (n - 1) * (j_n - 2) * products[n - 1]
    crosses = 2 ** (n - 2) * (products[n - 1] - 1) if n >= 2 else 0
    return (vees, loops, crosses)


def _region_walls(graph: QuantumGraph, region: str) -> tuple[Fraction, Fraction]:
    I_n = graph.columns
    if region == "well":
        return (I_n * WELL_LEFT, I_n * WELL_RIGHT)
    if region == "plates":
        if graph.plates is None:
            raise ValueError("graph was built without plates")
        step = I_n // graph.plates.N
        return (Fraction(graph.plates.left_node * step),
                Fraction(graph.plates.right_node * step))
    raise ValueError(f"unknown region {region!r}")


def shape_census(graph: QuantumGraph, region: str | None = None) -> ShapeCensus:
    """Count shapes by brute-force decomposition of the explicit graph.

    The decomposition is re-derived from adjacency alone (parallel cells
    give loops, boundary legs give vees, twin degree-4 nodes with a
    common 4-corner neighborhood give crosses) rather than read off the
    construction, so it can serve as an independent check of the
    closed-form counts.

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

    deg = graph.degrees()
    pair_edges: dict[tuple[int, int], list[Edge]] = {}
    for e in graph.edges:
        pair_edges.setdefault((min(e.u, e.v), max(e.u, e.v)), []).append(e)

    used: set[int] = set()
    found: list[Shape] = []

    # Vees: legs at degree-1 vertices, paired by apex and boundary side.
    vee_groups: dict[tuple[int, int], list[Edge]] = {}
    for e in graph.edges:
        if deg[e.u] == 1 or deg[e.v] == 1:
            leaf, apex = (e.u, e.v) if deg[e.u] == 1 else (e.v, e.u)
            side = graph.vertices[leaf].column
            vee_groups.setdefault((apex, side), []).append(e)
    for (apex, side), legs in sorted(vee_groups.items()):
        if len(legs) != 2:
            raise GraphBuildError(f"vertex {apex} has {len(legs)} boundary legs")
        cols = sorted({graph.vertices[x].column for e in legs for x in (e.u, e.v)})
        found.append(Shape("vee", cols[0], cols[-1],
                           tuple(sorted(e.id for e in legs))))
        used.update(e.id for e in legs)

    # Loops: exactly two parallel cells between the same vertex pair.
    for pair in sorted(pair_edges):
        es = pair_edges[pair]
        if len(es) >= 2:
            if len(es) != 2 or any(e.id in used for e in es):
                raise GraphBuildError(f"unexpected multi-edge between {pair}")
            cols = sorted({graph.vertices[x].column for x in pair})
            found.append(Shape("loop", cols[0], cols[-1],
                               tuple(sorted(e.id for e in es))))
            used.update(e.id for e in es)

    # Crosses: twin vertices sharing the same four remaining neighbors.
    # Both orientations of a K_{2,4} can look like twins when adjacent
    # cross centers carry the same glued level, so candidates are tiled
    # by exact cover: candidates forced through a uniquely covered cell
    # are committed first and conflicting overlaps drop out.
    rem_adj: dict[int, list[int]] = {}
    rem_edges: dict[int, list[Edge]] = {}
    for e in graph.edges:
        if e.id in used:
            continue
        rem_adj.setdefault(e.u, []).append(e.v)
        rem_adj.setdefault(e.v, []).append(e.u)
        rem_edges.setdefault(e.u, []).append(e)
        rem_edges.setdefault(e.v, []).append(e)
    twins: dict[frozenset, list[int]] = {}
    for v, nbrs in rem_adj.items():
        if len(nbrs) == 4 and len(set(nbrs)) == 4:
            twins.setdefault(frozenset(nbrs), []).append(v)
    candidates = []
    for corners, centers in sorted(twins.items(), key=lambda kv: sorted(kv[1])):
        if len(centers) == 1:
            continue    # a corner between two adjacent crosses, not a center
        if len(centers) > 2:
            raise GraphBuildError(f"{len(centers)} nodes share corners {set(corners)}")
        eids = sorted(e.id for c in centers for e in rem_edges[c])
        if len(eids) != 8 or len(set(eids)) != 8:
            raise GraphBuildError("cross candidate with wrong cell count")
        candidates.append((tuple(sorted(centers)), corners, tuple(eids)))

    owners: dict[int, list[int]] = {}
    for ci, (_, _, eids) in enumerate(candidates):
        for eid in eids:
            owners.setdefault(eid, []).append(ci)
    alive = [True] * len(candidates)
    committed: list[int] = []
    progress = True
    while progress:
        progress = False
        for eid, owner in owners.items():
            live = [ci for ci in owner if alive[ci]]
            if len(live) == 1 and eid not in used:
                ci = live[0]
                centers, corners, eids = candidates[ci]
                if any(e in used for e in eids):
                    raise GraphBuildError("conflicting cross tiling")
                used.update(eids)
                committed.append(ci)
                alive[ci] = False
                for other in {o for e in eids for o in owners[e] if alive[o]}:
                    alive[other] = False
                progress = True
    for ci in sorted(committed):
        centers, corners, eids = candidates[ci]
        cols = sorted(graph.vertices[v].column for v in corners)
        center_col = graph.vertices[centers[0]].column
        found.append(Shape("cross", cols[0], cols[-1], eids, center=center_col))
    if len(used) != len(graph.edges):
        raise GraphBuildError(
            f"decomposition covered {len(used)} of {len(graph.edges)} cells"
        )

    counts = {"vee": 0, "loop": 0, "cross": 0}
    for s in found:
        counts[s.kind] += 1

    if region is None:
        return ShapeCensus(graph.level, counts["vee"], counts["loop"], counts["cross"])

    wl, wr = _region_walls(graph, region)
    split = {k: [0, 0, 0] for k in ("vee", "loop", "cross")}
    half_inside = 0
    for s in found:
        if s.col_a >= wl and s.col_b <= wr:
            split[s.kind][0] += 1
        elif s.col_b <= wl or s.col_a >= wr:
            split[s.kind][1] += 1
        else:
            split[s.kind][2] += 1
            if s.kind == "cross" and wl <= s.center <= wr:
                half_inside += 1
    split = {k: RegionSplit(*v) for k, v in split.items()}
    return ShapeCensus(graph.level, counts["vee"], counts["loop"], counts["cross"],
                       region, split, half_inside)


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
    I_n = level_products(seq, n)[n]
    w = Fraction(I_n, 4)
    d = Fraction(_ceil_fraction(w) - w, I_n)
    return WellGeometry(n, w, d, d == 0)


def _ceil_fraction(q: Fraction) -> int:
    return -((-q.numerator) // q.denominator)
