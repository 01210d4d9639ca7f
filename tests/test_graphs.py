"""Graph construction, shape censuses, column layout, well geometry."""

from fractions import Fraction

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from laakso import (
    JSequence,
    PlateConfig,
    build_graph,
    census_closed_form,
    column_boundaries,
    shape_census,
    well_geometry,
)
from laakso.graphs import GraphBuildError, _decompose
from laakso.plates import PlateConfigError

SEQ2 = JSequence((2,), periodic=True)
SEQ23 = JSequence((2, 3), periodic=True)


def _cell_lengths(g) -> list[Fraction]:
    """The exact length of each cell column; every row has the same."""
    return [g.lengths[k] for k in g.length_class.tolist()]


def _connected(g) -> bool:
    nv = g.num_vertices
    adj = coo_matrix((np.ones(g.num_cells), (g.u, g.v)), shape=(nv, nv))
    return connected_components(adj, directed=False, return_labels=False) == 1


def _mirrors_are_automorphisms(g) -> bool:
    """x -> 1 - x (column k onto I_n - k) and the swap of the two copies at
    every level (row r onto its complement) each map every cell's ends
    onto the ends of the image cell, and the first keeps the lengths."""
    col, I_n = g.vertex_column, g.columns
    start = np.concatenate([[0], np.cumsum(np.bincount(col))])
    cls = np.arange(g.num_vertices) - start[col]       # the row class within its column
    count = np.diff(start)[col]
    x_image = start[I_n - col] + cls
    row_image = start[col] + count - 1 - cls
    by_row = (-1, I_n)
    return (np.array_equal(g.length_class, g.length_class[::-1])
            and np.array_equal(x_image[g.u].reshape(by_row)[:, ::-1].ravel(), g.v)
            and np.array_equal(x_image[g.v].reshape(by_row)[:, ::-1].ravel(), g.u)
            and np.array_equal(row_image[g.u].reshape(by_row)[::-1].ravel(), g.u)
            and np.array_equal(row_image[g.v].reshape(by_row)[::-1].ravel(), g.v))


def test_cell_count_and_lengths():
    g = build_graph(JSequence((2, 2)), 2)
    assert g.num_cells == 2**2 * 4 == 16
    assert _cell_lengths(g) == [Fraction(1, 4)] * 4


def test_vertex_coordinates_are_exact_columns():
    g = build_graph(SEQ23, 3)
    I_3 = g.products[3]
    assert I_3 == 12
    for v in g.vertices:
        assert v.x == Fraction(v.column, I_3)


def test_level_zero_graph():
    g = build_graph(SEQ2, 0)
    assert g.num_cells == 1
    assert len(g.vertices) == 2
    with pytest.raises(ValueError, match="level >= 1"):
        shape_census(g)


def test_graph_connected_and_symmetric():
    for seq, n in [(SEQ2, 3), (SEQ23, 3), (JSequence((4,), periodic=True), 2)]:
        g = build_graph(seq, n)
        assert _connected(g)
        assert _mirrors_are_automorphisms(g)


@pytest.mark.parametrize("values", [(2,), (3,), (2, 3), (3, 2), (4,), (2, 2, 3)])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_census_matches_closed_form(values, n):
    seq = JSequence(values, periodic=True)
    g = build_graph(seq, n)
    c = shape_census(g)
    assert (c.vees, c.loops, c.crosses) == census_closed_form(seq, n)


def test_census_example_j2_n3():
    # j = 2 everywhere: no loops; crosses 2^(n-2)(I_{n-1} - 1)
    c = shape_census(build_graph(SEQ2, 3))
    assert (c.vees, c.loops, c.crosses) == (8, 0, 2 * (4 - 1))


def test_census_cell_accounting():
    for seq, n in [(SEQ23, 4), (JSequence((3,), periodic=True), 3)]:
        v, l, c = census_closed_form(seq, n)
        g = build_graph(seq, n)
        assert 2 * v + 2 * l + 8 * c == g.num_cells


def test_zero_loops_at_binary_levels():
    # j_n = 2 must yield a zero loop count, not an error
    assert census_closed_form(SEQ2, 5)[1] == 0
    assert shape_census(build_graph(SEQ2, 5)).loops == 0


def test_column_boundaries_level1():
    assert column_boundaries(JSequence((3,)), 1) == [
        ("vee", 1, (0, 1)), ("loop", 1, (1, 2)), ("vee", 2, (2, 3))]


def test_column_boundaries_cross_position():
    bounds = column_boundaries(SEQ23, 2)
    assert ("cross", 1, (2, 4)) in bounds


@pytest.mark.parametrize("values,n", [
    ((2,), 4), ((3,), 3), ((2, 3), 4), ((4,), 3), ((2, 3), 5),
])
def test_column_boundaries_tile(values, n):
    seq = JSequence(values, periodic=True)
    I_n = build_graph(seq, n).products[n]
    loops_crosses = [(kind, iv) for kind, m, iv in column_boundaries(seq, n)
                     if kind != "vee"]
    # loop sets and crosses cover [1, I_n - 1], crosses sharing endpoints
    # with the adjacent loop sets
    covered = set()
    for kind, (a, b) in loops_crosses:
        assert 1 <= a <= b <= I_n - 1
        covered.update(range(a, b))
    assert covered == set(range(1, I_n - 1))


def test_well_geometry_examples():
    geom = well_geometry(SEQ23, 1)
    assert (geom.w, geom.d) == (Fraction(1, 2), Fraction(1, 4))
    geom = well_geometry(JSequence((4,), periodic=True), 1)
    assert (geom.w, geom.d) == (Fraction(1), Fraction(0))
    assert geom.wall_on_node
    geom = well_geometry(SEQ23, 2)
    assert (geom.w, geom.d) == (Fraction(3, 2), Fraction(1, 12))


@pytest.mark.parametrize("values,n", [
    ((2,), 6), ((3,), 5), ((2, 3), 6), ((5, 2), 4), ((7,), 3),
])
def test_well_distance_below_cell_length(values, n):
    from laakso import level_products
    seq = JSequence(values, periodic=True)
    geom = well_geometry(seq, n)
    I_n = level_products(seq, n)[n]
    assert 0 <= geom.d < Fraction(1, I_n)


def test_plate_graph_lengths_and_conductors():
    cfg = PlateConfig(4, 1, 0.2)
    seq = JSequence((4,), periodic=True)
    g = build_graph(seq, 2, plates=cfg)
    interior = cfg.interior_scale() / 16
    exterior = cfg.exterior_scale() / 16
    assert set(_cell_lengths(g)) == {interior, exterior}
    # plates sit at columns 4 and 12 of 16; every vertex there conducts
    cond_cols = {g.vertices[v].column for v in g.conducting_ids()}
    assert cond_cols == {4, 12}
    assert _connected(g)
    assert _mirrors_are_automorphisms(g)


def test_plate_graph_natural_position_is_uniform():
    cfg = PlateConfig(4, 1, 0.25)   # (Z+1)/(2N) = 1/4
    g = build_graph(JSequence((4,), periodic=True), 2, plates=cfg)
    assert set(_cell_lengths(g)) == {Fraction(1, 16)}


def test_plate_graph_total_width():
    cfg = PlateConfig(6, 1, 0.12)
    g = build_graph(JSequence((6,), periodic=True), 2, plates=cfg)
    xs = [v.x for v in g.vertices]
    assert min(xs) == 0 and max(xs) == 1
    assert sum(_cell_lengths(g)) == 1


def test_plate_graph_rejections():
    with pytest.raises(PlateConfigError):
        build_graph(JSequence((3, 4)), 2, plates=PlateConfig(4, 1, 0.2))
    with pytest.raises(GraphBuildError):
        build_graph(JSequence((4,), periodic=True), 0, plates=PlateConfig(4, 1, 0.2))


def test_plate_config_validation():
    with pytest.raises(PlateConfigError):
        PlateConfig(2, 0, 0.2)        # parity fails for every Z at N = 2
    with pytest.raises(PlateConfigError):
        PlateConfig(4, 2, 0.2)        # N - (Z+1) odd
    with pytest.raises(PlateConfigError):
        PlateConfig(4, 3, 0.2)        # no room
    with pytest.raises(PlateConfigError):
        PlateConfig(4, 1, 0.5)
    with pytest.raises(PlateConfigError):
        PlateConfig(4, 1, 0.0)
    cfg = PlateConfig(5, 0, 0.3)
    assert (cfg.left_node, cfg.right_node) == (2, 3)


def test_well_region_split_matches_lemma_cases():
    # wall on a cross center: half-crosses appear
    g = build_graph(JSequence((4,), periodic=True), 2)
    c = shape_census(g, region="well")
    assert c.split["cross"].interior == 1
    assert c.half_crosses_interior == 2
    assert c.split["loop"].interior == 8
    # straddling classification: level-2 [2,3] well cuts both wall loops
    c = shape_census(build_graph(SEQ23, 2), region="well")
    assert c.split["loop"].straddling == 4
    assert c.split["cross"].interior == 1
    assert c.half_crosses_interior == 0


def test_shape_decomposition_is_partition():
    g = build_graph(JSequence((2, 3, 2)), 3)
    seen = np.sort(np.concatenate([eids.ravel() for eids in _decompose(g).values()]))
    assert np.array_equal(seen, np.arange(g.num_cells))
