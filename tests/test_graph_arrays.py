"""Columnar graphs: vertex ids, cell endpoints, shape views and censuses.

The literal values were recorded with the earlier builder, which kept one
Python object per vertex and per cell, so they pin the array layout to
the same ids and the array census to the same counts.
"""

import dataclasses

import pytest

from laakso import (
    JSequence,
    PlateConfig,
    Potential,
    QuantumGraph,
    build_graph,
    census_closed_form,
    discretize,
    eigenfunction_trace,
    shape_census,
    solve_lowest,
)
from laakso.graphs import GraphBuildError

SEQ2 = JSequence((2,), periodic=True)
SEQ23 = JSequence((2, 3), periodic=True)

# (values, periodic, n, region, plates, (vees, loops, crosses),
#  split as kind -> (interior, exterior, straddling), half-crosses inside)
CENSUS_CASES = [
    ((2, 3), True, 3, None, None, (8, 0, 10), None, 0),
    ((2, 3), True, 4, "well", None, (16, 96, 44),
     {"vee": (0, 16, 0), "loop": (48, 48, 0), "cross": (20, 16, 8)}, 8),
    ((2, 3), True, 5, "well", None, (32, 0, 280),
     {"vee": (0, 32, 0), "loop": (0, 0, 0), "cross": (136, 128, 16)}, 16),
    ((2, 3), True, 6, "well", None, (64, 2304, 1136),
     {"vee": (0, 64, 0), "loop": (1152, 1152, 0), "cross": (560, 544, 32)}, 32),
    ((2, 3, 5), True, 4, "well", None, (16, 0, 116),
     {"vee": (0, 16, 0), "loop": (0, 0, 0), "cross": (60, 56, 0)}, 0),
    ((2,), True, 5, "well", None, (32, 0, 120),
     {"vee": (0, 32, 0), "loop": (0, 0, 0), "cross": (56, 48, 16)}, 16),
    ((4,), True, 3, "well", None, (8, 128, 30),
     {"vee": (0, 8, 0), "loop": (64, 64, 0), "cross": (14, 12, 4)}, 4),
    ((3, 2), True, 4, "well", None, (16, 0, 68),
     {"vee": (0, 16, 0), "loop": (0, 0, 0), "cross": (36, 32, 0)}, 0),
    ((2, 2, 3), False, 3, "well", None, (8, 16, 6),
     {"vee": (0, 8, 0), "loop": (8, 8, 0), "cross": (2, 0, 4)}, 4),
    ((7,), True, 3, "plates", (7, 2, 0.15), (8, 980, 96),
     {"vee": (0, 8, 0), "loop": (420, 560, 0), "cross": (40, 52, 4)}, 4),
    ((5,), True, 3, "plates", (5, 0, 0.2), (8, 300, 48),
     {"vee": (0, 8, 0), "loop": (60, 240, 0), "cross": (8, 36, 4)}, 4),
]


@pytest.mark.parametrize("values,periodic,n,region,plates,totals,split,half", CENSUS_CASES)
def test_census_regression(values, periodic, n, region, plates, totals, split, half):
    g = build_graph(JSequence(values, periodic=periodic), n,
                    plates=PlateConfig(*plates) if plates else None)
    c = shape_census(g, region=region)
    assert (c.vees, c.loops, c.crosses) == totals
    if region is not None:
        got = {k: (s.interior, s.exterior, s.straddling) for k, s in c.split.items()}
        assert got == split
        assert c.half_crosses_interior == half


def test_census_rejects_a_rewired_cell():
    # the census reads only u, v and the vertex columns: moving one cell end
    # to another vertex of the same column must break the decomposition
    g = build_graph(SEQ23, 3)
    v = g.v.copy()
    v[5] += 1
    assert g.vertex_column[v[5]] == g.vertex_column[g.v[5]]
    with pytest.raises(GraphBuildError):
        shape_census(dataclasses.replace(g, v=v))


def test_census_level_10_matches_closed_form():
    c = shape_census(build_graph(SEQ2, 10))
    assert (c.vees, c.loops, c.crosses) == census_closed_form(SEQ2, 10)


# (values, n) -> (vertices in id order as 'column:row class', u, v)
LAYOUTS = {
    ((3,), 1): (
        '0:0 0:1 1:* 2:* 3:0 3:1',
        [0, 2, 3, 1, 2, 3],
        [2, 3, 4, 2, 3, 5],
    ),
    ((2, 3), 2): (
        '0:00 0:01 0:10 0:11 1:0* 1:1* 2:0* 2:1* 3:*0 3:*1 4:0* 4:1* 5:0* 5:1* 6:00 '
        '6:01 6:10 6:11',
        [0, 4, 6, 8, 10, 12, 1, 4, 6, 9, 10, 12, 2, 5, 7, 8, 11, 13, 3, 5, 7, 9, 11, 13],
        [4, 6, 8, 10, 12, 14, 4, 6, 9, 10, 12, 15, 5, 7, 8, 11, 13, 16, 5, 7, 9, 11,
         13, 17],
    ),
    ((2,), 3): (
        '0:000 0:001 0:010 0:011 0:100 0:101 0:110 0:111 1:00* 1:01* 1:10* 1:11* '
        '2:0*0 2:0*1 2:1*0 2:1*1 3:00* 3:01* 3:10* 3:11* 4:*00 4:*01 4:*10 4:*11 '
        '5:00* 5:01* 5:10* 5:11* 6:0*0 6:0*1 6:1*0 6:1*1 7:00* 7:01* 7:10* 7:11* '
        '8:000 8:001 8:010 8:011 8:100 8:101 8:110 8:111',
        [0, 8, 12, 16, 20, 24, 28, 32, 1, 8, 13, 16, 21, 24, 29, 32, 2, 9, 12, 17, 22,
         25, 28, 33, 3, 9, 13, 17, 23, 25, 29, 33, 4, 10, 14, 18, 20, 26, 30, 34, 5,
         10, 15, 18, 21, 26, 31, 34, 6, 11, 14, 19, 22, 27, 30, 35, 7, 11, 15, 19, 23,
         27, 31, 35],
        [8, 12, 16, 20, 24, 28, 32, 36, 8, 13, 16, 21, 24, 29, 32, 37, 9, 12, 17, 22,
         25, 28, 33, 38, 9, 13, 17, 23, 25, 29, 33, 39, 10, 14, 18, 20, 26, 30, 34, 40,
         10, 15, 18, 21, 26, 31, 34, 41, 11, 14, 19, 22, 27, 30, 35, 42, 11, 15, 19,
         23, 27, 31, 35, 43],
    ),
    ((2,), 4): (
        '0:0000 0:0001 0:0010 0:0011 0:0100 0:0101 0:0110 0:0111 0:1000 0:1001 0:1010 '
        '0:1011 0:1100 0:1101 0:1110 0:1111 1:000* 1:001* 1:010* 1:011* 1:100* 1:101* '
        '1:110* 1:111* 2:00*0 2:00*1 2:01*0 2:01*1 2:10*0 2:10*1 2:11*0 2:11*1 3:000* '
        '3:001* 3:010* 3:011* 3:100* 3:101* 3:110* 3:111* 4:0*00 4:0*01 4:0*10 4:0*11 '
        '4:1*00 4:1*01 4:1*10 4:1*11 5:000* 5:001* 5:010* 5:011* 5:100* 5:101* 5:110* '
        '5:111* 6:00*0 6:00*1 6:01*0 6:01*1 6:10*0 6:10*1 6:11*0 6:11*1 7:000* 7:001* '
        '7:010* 7:011* 7:100* 7:101* 7:110* 7:111* 8:*000 8:*001 8:*010 8:*011 8:*100 '
        '8:*101 8:*110 8:*111 9:000* 9:001* 9:010* 9:011* 9:100* 9:101* 9:110* 9:111* '
        '10:00*0 10:00*1 10:01*0 10:01*1 10:10*0 10:10*1 10:11*0 10:11*1 11:000* '
        '11:001* 11:010* 11:011* 11:100* 11:101* 11:110* 11:111* 12:0*00 12:0*01 '
        '12:0*10 12:0*11 12:1*00 12:1*01 12:1*10 12:1*11 13:000* 13:001* 13:010* '
        '13:011* 13:100* 13:101* 13:110* 13:111* 14:00*0 14:00*1 14:01*0 14:01*1 '
        '14:10*0 14:10*1 14:11*0 14:11*1 15:000* 15:001* 15:010* 15:011* 15:100* '
        '15:101* 15:110* 15:111* 16:0000 16:0001 16:0010 16:0011 16:0100 16:0101 '
        '16:0110 16:0111 16:1000 16:1001 16:1010 16:1011 16:1100 16:1101 16:1110 '
        '16:1111',
        [0, 16, 24, 32, 40, 48, 56, 64, 72, 80, 88, 96, 104, 112, 120, 128, 1, 16, 25,
         32, 41, 48, 57, 64, 73, 80, 89, 96, 105, 112, 121, 128, 2, 17, 24, 33, 42, 49,
         56, 65, 74, 81, 88, 97, 106, 113, 120, 129, 3, 17, 25, 33, 43, 49, 57, 65, 75,
         81, 89, 97, 107, 113, 121, 129, 4, 18, 26, 34, 40, 50, 58, 66, 76, 82, 90, 98,
         104, 114, 122, 130, 5, 18, 27, 34, 41, 50, 59, 66, 77, 82, 91, 98, 105, 114,
         123, 130, 6, 19, 26, 35, 42, 51, 58, 67, 78, 83, 90, 99, 106, 115, 122, 131,
         7, 19, 27, 35, 43, 51, 59, 67, 79, 83, 91, 99, 107, 115, 123, 131, 8, 20, 28,
         36, 44, 52, 60, 68, 72, 84, 92, 100, 108, 116, 124, 132, 9, 20, 29, 36, 45,
         52, 61, 68, 73, 84, 93, 100, 109, 116, 125, 132, 10, 21, 28, 37, 46, 53, 60,
         69, 74, 85, 92, 101, 110, 117, 124, 133, 11, 21, 29, 37, 47, 53, 61, 69, 75,
         85, 93, 101, 111, 117, 125, 133, 12, 22, 30, 38, 44, 54, 62, 70, 76, 86, 94,
         102, 108, 118, 126, 134, 13, 22, 31, 38, 45, 54, 63, 70, 77, 86, 95, 102, 109,
         118, 127, 134, 14, 23, 30, 39, 46, 55, 62, 71, 78, 87, 94, 103, 110, 119, 126,
         135, 15, 23, 31, 39, 47, 55, 63, 71, 79, 87, 95, 103, 111, 119, 127, 135],
        [16, 24, 32, 40, 48, 56, 64, 72, 80, 88, 96, 104, 112, 120, 128, 136, 16, 25,
         32, 41, 48, 57, 64, 73, 80, 89, 96, 105, 112, 121, 128, 137, 17, 24, 33, 42,
         49, 56, 65, 74, 81, 88, 97, 106, 113, 120, 129, 138, 17, 25, 33, 43, 49, 57,
         65, 75, 81, 89, 97, 107, 113, 121, 129, 139, 18, 26, 34, 40, 50, 58, 66, 76,
         82, 90, 98, 104, 114, 122, 130, 140, 18, 27, 34, 41, 50, 59, 66, 77, 82, 91,
         98, 105, 114, 123, 130, 141, 19, 26, 35, 42, 51, 58, 67, 78, 83, 90, 99, 106,
         115, 122, 131, 142, 19, 27, 35, 43, 51, 59, 67, 79, 83, 91, 99, 107, 115, 123,
         131, 143, 20, 28, 36, 44, 52, 60, 68, 72, 84, 92, 100, 108, 116, 124, 132,
         144, 20, 29, 36, 45, 52, 61, 68, 73, 84, 93, 100, 109, 116, 125, 132, 145, 21,
         28, 37, 46, 53, 60, 69, 74, 85, 92, 101, 110, 117, 124, 133, 146, 21, 29, 37,
         47, 53, 61, 69, 75, 85, 93, 101, 111, 117, 125, 133, 147, 22, 30, 38, 44, 54,
         62, 70, 76, 86, 94, 102, 108, 118, 126, 134, 148, 22, 31, 38, 45, 54, 63, 70,
         77, 86, 95, 102, 109, 118, 127, 134, 149, 23, 30, 39, 46, 55, 62, 71, 78, 87,
         94, 103, 110, 119, 126, 135, 150, 23, 31, 39, 47, 55, 63, 71, 79, 87, 95, 103,
         111, 119, 127, 135, 151],
    ),
}


@pytest.mark.parametrize("values,n", sorted(LAYOUTS))
def test_vertex_ids_and_endpoints(values, n):
    vertices, u, v = LAYOUTS[values, n]
    g = build_graph(JSequence(values, periodic=True), n)
    assert " ".join(f"{x.column}:{x.row_class}" for x in g.vertices) == vertices
    assert g.vertex_labels().tolist() == [x.split(":")[1] for x in vertices.split()]
    assert g.u.tolist() == u and g.v.tolist() == v
    assert [(e.u, e.v) for e in g.edges] == list(zip(u, v))


def test_shape_view_records():
    g = build_graph(SEQ23, 2)
    assert [(s.kind, s.col_a, s.col_b, s.edge_ids, s.center) for s in g.shapes] == [
        ("vee", 0, 1, (0, 6), None), ("vee", 0, 1, (12, 18), None),
        ("vee", 5, 6, (5, 11), None), ("vee", 5, 6, (17, 23), None),
        ("loop", 1, 2, (1, 7), None), ("loop", 1, 2, (13, 19), None),
        ("loop", 4, 5, (4, 10), None), ("loop", 4, 5, (16, 22), None),
        ("cross", 2, 4, (2, 3, 8, 9, 14, 15, 20, 21), 3),
    ]


def test_views_are_read_only_sequences():
    g = build_graph(SEQ23, 3)
    assert len(g.vertices) == g.num_vertices == len(list(g.vertices))
    assert len(g.edges) == g.num_cells == 96
    assert g.edges[-1] == g.edges[95] == list(g.edges)[-1]
    assert g.vertices[3:5] == [g.vertices[3], g.vertices[4]]
    with pytest.raises(IndexError):
        g.edges[96]
    with pytest.raises(TypeError):
        g.edges[0] = None


def test_hot_paths_build_no_records(monkeypatch):
    def refuse(self, i):
        raise AssertionError("a vertex, edge or shape record was built")

    for name in ("_vertex", "_edge", "_shape"):
        monkeypatch.setattr(QuantumGraph, name, refuse)
    g = build_graph(JSequence((4,), periodic=True), 2, plates=PlateConfig(4, 1, 0.2))
    shape_census(g, region="plates")
    op = discretize(g, 4, Potential("square_well"))
    trace = eigenfunction_trace(op, solve_lowest(op, 2), 0)
    assert len(trace) == len(op.xs)
