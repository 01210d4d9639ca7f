"""Discretization and eigensolver behavior on small graphs."""

import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy import sparse
from shift_invert import shift_invert_eigenvalues
from small_graphs import RIDDLED, levels, small_sequences

import laakso
from laakso import (
    JSequence,
    PlateConfig,
    Potential,
    SpectrumQuery,
    build_graph,
    cluster,
    discretize,
    eigenfunction_trace,
    free_spectrum,
    plates_spectrum,
    reduce_rows,
    solve,
    solve_lowest,
    solve_row_flip,
)
from laakso.solver import MeshError
from laakso.spectra import free_level, plate_level

PI2 = math.pi**2
SEQ2 = JSequence((2,), periodic=True)
SEQ23 = JSequence((2, 3), periodic=True)


# ---------------------------------------------------------------------------
# potentials

def test_potential_values():
    import numpy as np
    x = np.array([0.0, 0.2499, 0.25, 0.5, 0.75, 0.7501, 1.0])
    well = Potential("square_well").values(x)
    assert list(well) == [np.inf, np.inf, 0.0, 0.0, 0.0, np.inf, np.inf]
    coul = Potential("coulomb").values(np.array([0.5, 0.6]))
    assert coul[0] == -np.inf
    assert coul[1] == pytest.approx(-1 / 0.01 + 0.25)
    par = Potential("parabolic").values(np.array([0.0, 0.5, 1.0]))
    assert par[0] == par[2] == np.inf
    assert par[1] == pytest.approx(4.0)
    assert Potential("free").values(x).max() == 0.0
    custom = Potential("custom", func=lambda x: 2 * x)
    assert list(custom.values(np.array([1.0, 2.0]))) == [2.0, 4.0]


def test_potential_validation():
    with pytest.raises(ValueError):
        Potential("box")
    with pytest.raises(ValueError):
        Potential("custom")


# ---------------------------------------------------------------------------
# discretization

def test_interval_free_spectrum():
    op = discretize(build_graph(SEQ2, 0), 99, Potential("free"))
    r = solve_lowest(op, 3)
    assert r.eigenvalues[0] == pytest.approx(0.0, abs=1e-8)
    assert r.eigenvalues[1] == pytest.approx(PI2, rel=1e-3)
    assert r.eigenvalues[2] == pytest.approx(4 * PI2, rel=1e-3)


def test_interval_square_well_ground_state():
    # the wall between mesh nodes biases the width by O(h); at M=99 the
    # ground state sits a few percent below 4 pi^2 and approaches it
    op = discretize(build_graph(SEQ2, 0), 99, Potential("square_well"))
    lam99 = solve_lowest(op, 1).eigenvalues[0]
    assert lam99 == pytest.approx(4 * PI2, rel=0.08)
    op = discretize(build_graph(SEQ2, 0), 799, Potential("square_well"))
    lam799 = solve_lowest(op, 1).eigenvalues[0]
    assert abs(lam799 - 4 * PI2) < abs(lam99 - 4 * PI2)
    assert lam799 == pytest.approx(4 * PI2, rel=0.01)


def test_f1_free_triple():
    op = discretize(build_graph(SEQ2, 1), 49, Potential("free"))
    r = solve_lowest(op, 6)
    clusters = cluster(r, 1e-2)
    assert clusters[0][1] == 1 and abs(clusters[0][0]) < 1e-8
    assert clusters[1][0] == pytest.approx(PI2, rel=1e-3)
    assert clusters[1][1] == 3


def test_matrix_symmetric_and_conservative():
    cases = [
        (SEQ23, 2, 5, "free", None),
        # in the cases below L_rc * s_r * s_c and L_cr * s_c * s_r differ in
        # the last bit, so they catch a mass scaling that is not grouped
        (SEQ2, 1, 4, "free", None),
        (SEQ23, 2, 4, "square_well", None),
        (JSequence((3, 2, 4)), 2, 4, "coulomb", None),
        (JSequence((4,), periodic=True), 2, 4, "square_well",
         PlateConfig(4, 1, 0.2)),
    ]
    for seq, n, M, kind, plates in cases:
        g = build_graph(seq, n, plates=plates)
        defect = discretize(g, M, Potential(kind)).symmetry_defect()
        assert defect == 0.0, (seq, n, M, kind, plates)
    # the kinetic part L = D^(1/2) (H - diag V) D^(1/2) conserves: every row
    # sums to zero, up to the rounding of the mass scaling and its undoing
    op = discretize(build_graph(SEQ23, 2), 5, Potential("free"))
    V = op.potential.values(op.xs[op.kept])
    d = sparse.diags(np.sqrt(op.mass))
    L = (d @ (op.matrix - sparse.diags(V)) @ d).tocsr()
    rowsums = np.abs(np.asarray(L.sum(axis=1))).ravel()
    assert np.all(rowsums <= 4 * np.finfo(float).eps * L.diagonal())


def test_dirichlet_elimination_on_plates():
    cfg = PlateConfig(4, 1, 0.2)
    g = build_graph(JSequence((4,), periodic=True), 2, plates=cfg)
    M = 4
    op = discretize(g, M, Potential("free"))
    assert op.dimension == g.num_vertices - len(g.conducting_ids()) + g.num_cells * M


@pytest.mark.parametrize("seq,n,M,kind,plates", [
    (SEQ23, 2, 6, "square_well", None),
    (SEQ23, 2, 20, "coulomb", None),
    (SEQ2, 1, 60, "parabolic", None),
    (JSequence((4,), periodic=True), 2, 4, "square_well", PlateConfig(4, 1, 0.2)),
])
def test_walls_are_eliminated(seq, n, M, kind, plates):
    g = build_graph(seq, n, plates=plates)
    pot = Potential(kind)
    op = discretize(g, M, pot)
    assert len(op.xs) == g.num_vertices + g.num_cells * M
    V = pot.values(op.xs)
    walls = int(np.sum(~np.isfinite(V)))
    assert walls > 0
    conducting = set(g.conducting_ids())
    free = sum(1 for i, v in enumerate(V) if np.isfinite(v) and i not in conducting)
    assert op.dimension == free
    assert np.isfinite(op.matrix.diagonal()).all()


def test_nan_potential_is_not_a_wall():
    # NaN is not finite, so without a check NaN nodes would be
    # eliminated silently
    pot = Potential("custom", func=lambda x: np.where(x > 0.5, np.nan, 0.0))
    with pytest.raises(MeshError):
        discretize(build_graph(SEQ2, 1), 4, pot)


def test_potential_of_the_wrong_shape_raises_mesh_error():
    # a custom func must return one value per node
    g = build_graph(SEQ2, 1)
    for build, n in [(discretize, g.num_vertices + g.num_cells * 4),
                     (reduce_rows, g.columns * 5 + 1)]:
        for func, got in [(lambda x: 5.0, "()"), (lambda x: x[1:], f"({n - 1},)")]:
            with pytest.raises(MeshError) as err:
                build(g, 4, Potential("custom", func=func))
            assert str(err.value) == f"potential returned shape {got}, expected ({n},)"


def test_trace_zero_on_eliminated_nodes():
    cases = [
        (build_graph(SEQ23, 2), 20, "coulomb", lambda x, row: x == 0.5),
        (build_graph(SEQ2, 1), 60, "parabolic", lambda x, row: x in (0.0, 1.0)),
    ]
    g = build_graph(JSequence((4,), periodic=True), 2, plates=PlateConfig(4, 1, 0.2))
    plates = {(float(g.vertices[i].x), g.vertices[i].row_class) for i in g.conducting_ids()}
    cases.append((g, 4, "free", lambda x, row: (x, row) in plates))
    for graph, M, kind, eliminated in cases:
        op, r = solve(graph, M, Potential(kind), 2)
        trace = eigenfunction_trace(op, r, 0)
        assert len(trace) == graph.num_vertices + graph.num_cells * M
        zeros = [v for x, row, v in trace if eliminated(x, row)]
        assert zeros and all(v == 0.0 for v in zeros), kind
        assert max(abs(v) for _, _, v in trace) > 0


def test_mesh_and_count_validation():
    g = build_graph(SEQ2, 1)
    for build in (discretize, reduce_rows):
        with pytest.raises(MeshError, match="^mesh must have at least 2 interior points, got 1$"):
            build(g, 1, Potential("free"))
    op = discretize(g, 4, Potential("free"))
    rop = reduce_rows(g, 4, Potential("free"))
    dim = op.dimension
    assert rop.dimension == dim
    # both solvers reject a request with the same words
    for count, mode, message in [(0, "auto", f"count must be in 1..{dim}, got 0"),
                                 (dim + 1, "auto", f"count must be in 1..{dim}, got {dim + 1}"),
                                 (1, "highest", "unknown mode 'highest'")]:
        for solver, o in [(solve_lowest, op), (solve_row_flip, rop)]:
            with pytest.raises(ValueError) as err:
                solver(o, count, mode)
            assert str(err.value) == message


def test_mesh_convergence_second_order():
    # F_1 (j=2) free Laplacian: first positive eigenvalues converge at
    # order >= 1.8 in h between M = 25, 50, 100
    exact = np.array([PI2, PI2, PI2, 4 * PI2, 9 * PI2])
    errs = {}
    for M in (25, 50, 100):
        op = discretize(build_graph(SEQ2, 1), M, Potential("free"))
        vals = solve_lowest(op, 6).eigenvalues[1:6]
        errs[M] = np.abs(vals - exact)
    h = {M: 1.0 / (M + 1) for M in errs}
    for i in range(5):
        p = math.log(errs[25][i] / errs[100][i]) / math.log(h[25] / h[100])
        assert p >= 1.8, f"eigenvalue {i}: observed order {p:.2f}"


SEQ5, SEQ7 = JSequence((5,), periodic=True), JSequence((7,), periodic=True)


@pytest.mark.parametrize("seq,n,plates,pot", [
    (SEQ2, 2, None, "free"),
    (SEQ23, 2, None, "free"),
    (SEQ2, 3, None, "parabolic"),
    (SEQ5, 1, PlateConfig(5, 0, 0.2), "free"),
    (SEQ7, 1, PlateConfig(7, 2, 0.15), "free"),
])
def test_row_flip_converges_at_second_order(seq, n, plates, pot):
    # the lowest 8 eigenvalues at M + 1 = 4, 8, ..., 64: each difference
    # shrinks by about 4 (3.70-4.00), and the Richardson value from the
    # last two meets the closed form within 1.03e-6, where M + 1 = 64
    # alone is 5e-5 to 8e-4 off
    graph = build_graph(seq, n, plates=plates)
    vals = np.array([solve(graph, m - 1, Potential(pot), 8)[1].eigenvalues
                     for m in (4, 8, 16, 32, 64)])
    vals = vals[:, np.abs(vals[-1]) > 1e-6]           # the zero mode does not move
    steps = np.diff(vals, axis=0)
    ratios = steps[:-1] / steps[1:]
    assert ((3 <= ratios) & (ratios <= 5)).all(), ratios
    if pot == "free":
        query = SpectrumQuery(1e4)
        spectrum = plates_spectrum(plates, query) if plates else free_spectrum(seq, query)
        exact = np.repeat(spectrum.lam, spectrum.multiplicity)
        exact = exact[exact > 0][:vals.shape[1]]
        richardson = vals[-1] + (vals[-1] - vals[-2]) / 3
        np.testing.assert_allclose(richardson, exact, rtol=1e-5)


def test_residual_contract():
    op = discretize(build_graph(SEQ23, 2), 8, Potential("square_well"))
    r = solve_lowest(op, 8)
    assert r.residuals.max() <= 1e-8
    assert r.info["residual_max"] <= 1e-8


def test_determinism():
    g = build_graph(SEQ23, 3)
    op1 = discretize(g, 5, Potential("square_well"))
    op2 = discretize(g, 5, Potential("square_well"))
    assert np.array_equal(op1.matrix.data, op2.matrix.data)
    assert np.array_equal(op1.matrix.indices, op2.matrix.indices)
    r1 = solve_lowest(op1, 6)
    r2 = solve_lowest(op2, 6)
    assert np.array_equal(r1.eigenvalues, r2.eigenvalues)
    assert np.array_equal(r1.eigenvectors, r2.eigenvectors)


# ---------------------------------------------------------------------------
# row-flip reduction

SEQ3 = JSequence((3,), periodic=True)
PLATES5 = (JSequence((5,), periodic=True), PlateConfig(5, 0, 0.2))
SINE = Potential("custom", func=lambda x: 50.0 * np.sin(7.0 * x) ** 2)


def _case_id(value):
    if isinstance(value, JSequence):
        return ",".join(map(str, value.values))
    if isinstance(value, Potential):
        return value.kind
    return "plates" if isinstance(value, PlateConfig) else str(value)


def _close(got, want, rel):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    return np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= rel


@pytest.mark.parametrize("seq,n,plates,pot", [
    (seq, 3, None, Potential(kind))
    for seq in (SEQ2, SEQ3, SEQ23)
    for kind in ("free", "square_well", "coulomb", "parabolic")
] + [
    (PLATES5[0], 2, PLATES5[1], Potential("free")),
    (PLATES5[0], 2, PLATES5[1], Potential("square_well")),
    (SEQ23, 3, None, SINE),
    # bottom near -9532: 'lowest' has no floor on V
    pytest.param(SEQ23, 3, None, Potential("custom", func=lambda x: -1e4 * x),
                 id="2,3-3-None-steep"),
], ids=_case_id)
def test_row_flip_full_spectrum(seq, n, plates, pot):
    # the union of the segment spectra, with multiplicity, is the spectrum of H
    g = build_graph(seq, n, plates=plates)
    op = discretize(g, 5, pot)
    rop = reduce_rows(g, 5, pot)
    assert rop.dimension == op.dimension
    r = solve_row_flip(rop, rop.dimension, mode="lowest")
    # Both sides are backward stable: each eigenvalue is within
    # sqrt(dim) eps ||H||_2 <= sqrt(dim) eps ||H||_1 of the exact one, so
    # they differ by at most twice that.  The widest gap measured is
    # 26 eps ||H||_1 (plates, free), and against 50-digit solves of the
    # segments the dense side is the inexact one (2.2e-10 off at
    # lambda = -2.12 for j = 3 coulomb, against at most 7e-12 for row-flip).
    H = op.matrix.toarray()
    bound = 2 * np.sqrt(op.dimension) * np.finfo(float).eps * np.abs(H).sum(axis=0).max()
    assert np.abs(r.eigenvalues - np.linalg.eigvalsh(H)).max() <= bound
    assert r.residuals.max() <= 1e-8


@pytest.mark.parametrize("seq,n,plates,pot,mode", [
    (SEQ2, 5, None, Potential("free"), "auto"),
    (SEQ2, 5, None, Potential("square_well"), "auto"),
    (SEQ2, 5, None, Potential("coulomb"), "auto"),
    (SEQ2, 5, None, Potential("parabolic"), "auto"),
    (SEQ23, 4, None, Potential("square_well"), "auto"),
    (PLATES5[0], 3, PLATES5[1], Potential("free"), "auto"),
    (SEQ2, 5, None, SINE, "auto"),
    # up to 54 negative eigenvalues below a segment's zero window
    (SEQ2, 5, None, Potential("custom", func=lambda x: -3e4 + 5e3 * np.sin(7.0 * x) ** 2),
     "nearest_zero"),
], ids=_case_id)
def test_row_flip_matches_full_path(seq, n, plates, pot, mode):
    # against ARPACK on the assembled H, where a dense solve is slow
    g = build_graph(seq, n, plates=plates)
    op = discretize(g, 7, pot)
    rop = reduce_rows(g, 7, pot)
    assert rop.dimension == op.dimension > 2000
    r = solve_row_flip(rop, 20, mode)
    if mode == "auto":
        mode = "nearest_zero" if pot.kind == "coulomb" else "lowest"
    assert (r.info["mode"], r.info["method"]) == (mode, "row-flip")
    assert _close(r.eigenvalues, shift_invert_eigenvalues(op, 20, mode), 1e-9)
    assert r.info["residual_max"] == r.residuals.max() <= 1e-8
    assert r.info["characters"] == 2**n
    assert r.info["segments"] == len(rop.starts)
    assert r.info["polish_rounds"] == 0


def test_row_flip_weights_closed_form():
    # a segment whose end columns are Dirichlet only through the character
    # (born at levels R) and whose inner columns are born at levels B lies
    # in 2^(n - |R u B|) characters, and R and B never meet
    for seq, n, plates, pot in [(SEQ2, 6, None, Potential("free")),
                                (SEQ23, 4, None, Potential("square_well")),
                                (PLATES5[0], 3, PLATES5[1], Potential("free"))]:
        g = build_graph(seq, n, plates=plates)
        M = 7
        rop = reduce_rows(g, M, pot)
        base = ~np.isfinite(pot.values(rop.xs))
        base[np.asarray(g.conducting_columns(), dtype=int) * (M + 1)] = True
        birth = np.zeros(len(rop.xs), dtype=int)
        birth[::M + 1] = g.birth
        for a, b, w in zip(rop.starts, rop.stops, rop.weights):
            ends = [p for p in (a - 1, b) if 0 <= p < len(rop.xs) and not base[p]]
            R = {int(birth[p]) for p in ends}
            B = {int(m) for m in birth[a:b]} - {0}
            assert 0 not in R and not R & B
            assert w == 2 ** (n - len(R | B)), (seq, n, a, b)


def _segment_table(graph, mesh, potential) -> Counter:
    """The weights of reduce_rows's segments, summed per (end types, length):
    an end is N past a path end, else D at its neighbour node's exact x."""
    rop = reduce_rows(graph, mesh, potential)
    cx = graph.column_x

    def x(p):
        k, r = divmod(int(p), mesh + 1)
        return cx[k] + Fraction(r, mesh + 1) * (cx[k + 1] - cx[k]) if r else cx[k]

    last = len(rop.xs) - 1
    table = Counter()
    for a, b, w in zip(rop.starts, rop.stops, rop.weights):
        left = ("N", x(0)) if a == 0 else ("D", x(a - 1))
        right = ("N", x(last)) if b == last + 1 else ("D", x(b))
        table["".join(sorted(left[0] + right[0])), right[1] - left[1]] += int(w)
    return table


def _family_table(rows, scale=lambda f: 1) -> Counter:
    """Rows with multiplicity > 0, summed per (end types, length
    scale(f)/sqrt(rate)): DN for (k + 1/2)^2, NN for the k = 0 line, else DD."""
    table = Counter()
    for f in rows:
        if f.multiplicity > 0:
            root = Fraction(math.isqrt(f.rate.numerator), math.isqrt(f.rate.denominator))
            assert root**2 == f.rate
            kind = "DN" if f.half else "NN" if f.k_min == 0 else "DD"
            table[kind, scale(f) / root] += f.multiplicity
    return table


def _free_table(seq, n) -> Counter:
    """The free rows of levels 0..n as a `_family_table`."""
    return _family_table(f for m in range(n + 1) for f in free_level(seq, m))


def _plate_table(cfg, n) -> Counter:
    """The plate rows of levels 0..n as a `_family_table`, lengths in units
    of x0 inside the plates and of 1 - 2 x0 outside, as the graph's are."""
    scale = {"interior": cfg.x0_exact, "exterior": 1 - 2 * cfg.x0_exact}
    return _family_table((f for m in range(n + 1) for f in plate_level(cfg.N, cfg.Z, m)),
                         lambda f: scale[f.region])


def _new_cases(cases, more, case_id=_case_id):
    """`cases`, then each of `more` whose test id is not taken yet (pytest
    would rename both cases of a repeated id)."""
    seen = {tuple(map(case_id, c)) for c in cases}
    return cases + [c for c in more if tuple(map(case_id, c)) not in seen]


@pytest.mark.parametrize("seq,n", _new_cases([(SEQ2, n) for n in range(11)] + [
    (SEQ3, 4), (SEQ23, 5), (JSequence((3, 2, 4), periodic=True), 4),
], [(seq, n) for seq in small_sequences() for n in levels(seq)]), ids=_case_id)
def test_row_flip_segments_are_the_free_table(seq, n):
    # the distinct free segments, counted with their weights, are the
    # paper's free families in exact integers: each family is one interval
    # problem, and its multiplicity is the number of blocks that hold it
    assert _segment_table(build_graph(seq, n), 7, Potential("free")) == _free_table(seq, n)


def _plate_id(v):
    return f"{v.N},{v.Z},{v.x0}" if isinstance(v, PlateConfig) else str(v)


@pytest.mark.parametrize("cfg,n", _new_cases([
    (PlateConfig(*c), n)
    for c in ((4, 1, 0.2), (5, 0, 0.2), (7, 2, 0.15), (9, 2, 0.3))
    for n in range(1, 5)
], [
    (PlateConfig(N, Z, x0), n)
    for N in range(3, 8) for Z in range(N - 3, -1, -2) for x0 in (0.2, 0.15)
    for n in levels(JSequence((N,), periodic=True), first=1)
], _plate_id), ids=_plate_id)
def test_row_flip_segments_are_the_plate_table(cfg, n):
    # with plates the conducting columns cut every row, and the distinct
    # segments are the paper's plate families, inside and outside
    g = build_graph(JSequence((cfg.N,), periodic=True), n, plates=cfg)
    assert _segment_table(g, 7, Potential("free")) == _plate_table(cfg, n)


def _sine_values(kind: str, m: int, h: float) -> np.ndarray:
    """The eigenvalues of the free chain of m nodes and step h, Dirichlet
    past both ends (DD), past one (DN) or past neither (NN, masses h/2 at
    the ends): the discrete sine closed forms, ascending."""
    if kind == "NN":
        return 4 / h**2 * np.sin(np.arange(m) * np.pi / (2 * (m - 1))) ** 2
    k = np.arange(1, m + 1)
    angle = k * np.pi / (2 * (m + 1)) if kind == "DD" else (2 * k - 1) * np.pi / (4 * m)
    return 4 / h**2 * np.sin(angle) ** 2


@pytest.mark.parametrize("seq,n", [(SEQ2, n) for n in range(7)] + [(SEQ3, 4), (SEQ23, 5)],
                         ids=_case_id)
def test_row_flip_segments_are_discrete_sines(seq, n):
    # with the free potential the mesh is uniform, so every segment is a
    # chain of one step whose eigenvalues are the closed form of its ends:
    # N past a path end, D at a cut node
    from laakso.solver import _segment_eigh

    g = build_graph(seq, n)
    rop = reduce_rows(g, 7, Potential("free"))
    (length,) = g.lengths
    h = float(length) / 8
    kinds = Counter()
    for a, b in zip(rop.starts, rop.stops):
        d, e = rop.diag[a:b], rop.off[a:b - 1]
        kind = "".join(sorted(("N" if a == 0 else "D") + ("N" if b == len(rop.xs) else "D")))
        norm = np.max(np.abs(d) + np.abs(np.append(e, 0.0)) + np.abs(np.append(0.0, e)))
        got = _segment_eigh(d, e, 0, len(d))[0]
        assert np.abs(got - _sine_values(kind, len(d), h)).max() <= 8 * np.finfo(float).eps * norm
        kinds[kind] += 1
    assert kinds["NN"] == 1 and kinds["DN"] >= (n > 0) and kinds["DD"] >= (n > 1)


def _closed_form_spectrum(seq, n, mesh: int) -> np.ndarray:
    """The free discrete spectrum of the level-n graph, ascending, from the
    free rows of levels 0..n alone: each row is a chain of L/h - 1 (DD),
    L/h (DN) or L/h + 1 (NN) nodes, whose sine values count as often as
    the row's multiplicity."""
    steps = math.prod(seq.prefix(n)) * (mesh + 1)        # 1/h, an integer
    nodes = {"DD": -1, "DN": 0, "NN": 1}
    return np.sort(np.concatenate([
        np.repeat(_sine_values(kind, int(L * steps) + nodes[kind], 1 / steps), mult)
        for (kind, L), mult in _free_table(seq, n).items()]))


@pytest.mark.parametrize("seq,n,count", [(SEQ2, 8, 20), (SEQ2, 8, 60), (SEQ3, 5, 20)],
                         ids=_case_id)
def test_solve_is_the_closed_form_spectrum(seq, n, count):
    # beyond the dense oracle (dim 491k at j = 2, n = 8): the lowest values
    # of the solve, copy by copy, are the closed form's, within the sine
    # test's 8 eps ||T||_1 (||T||_1 = 4/h^2); about 0.1 eps ||T||_1 is seen
    _, r = solve(build_graph(seq, n), 7, Potential("free"), count)
    h = 1 / (math.prod(seq.prefix(n)) * 8)
    want = _closed_form_spectrum(seq, n, 7)
    assert len(want) == r.info["dim"]
    assert np.abs(r.eigenvalues - want[:count]).max() <= 8 * np.finfo(float).eps * 4 / h**2


def test_row_flip_free_clusters_match_closed_form():
    r = solve_row_flip(reduce_rows(build_graph(SEQ2, 6), 7, Potential("free")), 60)
    clusters = cluster(r, 1e-2)
    lines = free_spectrum(SEQ2, SpectrumQuery(1.01 * clusters[-1][0]))
    # the last cluster may continue past the window
    for mean, count in clusters[:-1]:
        line = min(lines, key=lambda line: abs(line.lam - mean))
        assert mean == pytest.approx(line.lam, rel=1e-3, abs=1e-8)
        assert count == line.multiplicity


def test_row_flip_trace_is_an_eigenvector_of_H():
    # the lifted pairs are orthonormal eigenvectors of the assembled H,
    # with the dense path's sign rule and exact zeros on eliminated nodes
    g = build_graph(SEQ2, 5)
    op = discretize(g, 7, Potential("square_well"))
    rop = reduce_rows(g, 7, Potential("square_well"))
    r = solve_row_flip(rop, 12)
    rows = np.concatenate([g.vertex_labels(),
                           g.row_labels(np.repeat(np.arange(1 << g.level), g.columns * 7))])
    order = np.lexsort((rows, op.xs))
    psis = []
    for i in range(12):
        trace = eigenfunction_trace(rop, r, i)
        assert [x for x, _, _ in trace] == op.xs[order].tolist()
        assert [row for _, row, _ in trace] == rows[order].tolist()
        u = np.empty(len(op.xs))
        u[order] = [v for _, _, v in trace]
        gone = np.setdiff1d(np.arange(len(u)), op.kept)
        assert np.all(u[gone] == 0.0) and not np.signbit(u[gone]).any()
        assert u[np.argmax(np.abs(u))] > 0
        psi = np.sqrt(op.mass) * u[op.kept]
        assert np.linalg.norm(op.matrix @ psi - r.eigenvalues[i] * psi) <= 1e-8
        psis.append(psi)
    gram = np.array(psis) @ np.array(psis).T
    assert np.abs(gram - np.eye(12)).max() <= 1e-12
    r.eigenvectors *= -1
    assert eigenfunction_trace(rop, r, 11) == trace


def test_row_flip_lift_character_signs():
    # row r of the lift carries 2^(-n/2) (-1)^popcount(r & S)
    g = build_graph(SEQ2, 4)
    rop = reduce_rows(g, 3, Potential("free"))
    for S in range(16):
        u = rop.lift(np.ones(len(rop.xs)), S)
        chi = np.array([(-1) ** bin(r & S).count("1") / 4 for r in range(16)])
        rows = u[g.num_vertices:].reshape(16, -1)
        assert np.array_equal(rows, np.repeat(chi[:, None], rows.shape[1], axis=1))
        assert np.array_equal(u[:g.num_vertices], chi[g.vertex_rows()])


def _segment_problems():
    """(d, e) of every segment of a free, a square-well, a Coulomb and a
    plates op, then a 1-node and a 2-node problem."""
    for seq, n, plates, pot in [(SEQ2, 4, None, "free"), (SEQ2, 4, None, "square_well"),
                                (SEQ23, 3, None, "coulomb"),
                                (PLATES5[0], 2, PLATES5[1], "free")]:
        rop = reduce_rows(build_graph(seq, n, plates=plates), 7, Potential(pot))
        for a, b in zip(rop.starts, rop.stops):
            yield rop.diag[a:b], rop.off[a:b - 1]
    yield np.array([2.5]), np.array([])
    yield np.array([2.5, -1.25]), np.array([0.75])


def test_segment_eigh_matches_eigh_tridiagonal():
    # the direct dstemr call is bit for bit scipy's wrapper, with index
    # windows at both ends of the spectrum
    from scipy.linalg import eigh_tridiagonal

    from laakso.solver import _segment_eigh

    problems = 0
    for d, e in _segment_problems():
        N = len(d)
        for lo, hi in {(0, min(3, N)), (max(N - 3, 0), N), (N // 2, N // 2 + 1)}:
            w, v = eigh_tridiagonal(d, e, select="i", select_range=(lo, hi - 1),
                                    lapack_driver="stemr")
            lam, g = _segment_eigh(d, e, lo, hi)
            assert lam.tobytes() == w.tobytes()
            assert g.shape == v.shape and g.tobytes() == v.tobytes()
        problems += 1
    assert problems > 100


def _counted_segment_eigh(monkeypatch):
    """Patch `_segment_eigh` to log (T's bytes, lo, hi) of every call."""
    import laakso.solver

    calls = []
    inner = laakso.solver._segment_eigh

    def counted(d, e, lo, hi):
        calls.append((d.tobytes() + e.tobytes(), lo, hi))
        return inner(d, e, lo, hi)

    monkeypatch.setattr(laakso.solver, "_segment_eigh", counted)
    return calls


def _pairs(rop, r):
    """The segment and character of each pair of a row-flip result: the
    segment of its character that holds the peak of its path function."""
    from row_flip_reference import pair_table

    from laakso.solver import _aranges

    pair_character, pair_segment = pair_table(rop)
    reps = (rop.stops - rop.starts)[pair_segment]
    seg_at = np.full((1 << rop.graph.level, len(rop.xs)), -1)
    seg_at[np.repeat(pair_character, reps),
           _aranges(rop.starts[pair_segment], reps)] = np.repeat(pair_segment, reps)
    peaks = np.argmax(np.abs(r.eigenvectors), axis=0)
    return seg_at[r.characters, peaks], r.characters


def _windows(rop, r):
    """(T's bytes, lo, hi) of each segment r holds pairs of, lo .. hi - 1 the
    indices of its eigenvalues there (dense eigvalsh of its T)."""
    seg, _ = _pairs(rop, r)
    out = set()
    for i in set(seg.tolist()):
        a, b = rop.starts[i], rop.stops[i]
        d, e = rop.diag[a:b], rop.off[a:b - 1]
        full = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
        idx = [int(np.argmin(np.abs(full - lam))) for lam in r.eigenvalues[seg == i]]
        out.add((d.tobytes() + e.tobytes(), min(idx), max(idx) + 1))
    return out


def test_segment_solves_count_lapack_calls(monkeypatch):
    # the free segments repeat, so far fewer LAPACK calls than segments:
    # no values-only call, and one vectors call per distinct picked
    # (T, index window)
    calls = _counted_segment_eigh(monkeypatch)
    rop = reduce_rows(build_graph(SEQ2, 6), 7, Potential("free"))
    r = solve_row_flip(rop, 20)
    assert r.info["segments"] == 184
    assert r.info["segment_solves"] == len(calls) < 184 // 4
    assert set(calls) == _windows(rop, r) and len(set(calls)) == len(calls)
    assert r.info["count_rounds"] > 0


def test_parabolic_segments_are_all_distinct(monkeypatch):
    # no two segments see the same V = 1/(x(1-x)), so each picked segment
    # takes one vectors call of its own, and none is solved for values only
    calls = _counted_segment_eigh(monkeypatch)
    rop = reduce_rows(build_graph(SEQ2, 6), 7, Potential("parabolic"))
    r = solve_row_flip(rop, 20)
    picked = set(_pairs(rop, r)[0].tolist())
    assert r.info["segment_solves"] == len(calls) == len(picked) < r.info["segments"] == 184
    assert set(calls) == _windows(rop, r) and len({key for key, _, _ in calls}) == len(calls)


def _rounding_noise(monkeypatch, sign):
    """Patch `_segment_eigh` to move each eigenvalue by 4 ulps, up or down
    by the parity of its segment's length and its index."""
    import laakso.solver

    inner = laakso.solver._segment_eigh

    def noisy(d, e, lo, hi):
        lam, g = inner(d, e, lo, hi)
        flip = (-1) ** (len(d) + np.arange(lo, hi))
        return lam + sign * flip * 4 * np.spacing(lam), g

    monkeypatch.setattr(laakso.solver, "_segment_eigh", noisy)


@pytest.mark.parametrize("case", [
    (SEQ2, 1, "free", 6), (SEQ2, 1, "square_well", 6), (SEQ2, 1, "parabolic", 3),
    (SEQ2, 2, "parabolic", 20), (SEQ2, 2, "coulomb", 8),
], ids=["free-1", "square_well-1", "parabolic-1", "parabolic-2", "coulomb-2"])
def test_picks_do_not_follow_rounding_noise(monkeypatch, case):
    # which copies of a tie are taken is decided by Sturm counts, so a
    # few ulps on the computed eigenvalues move no pick (with a values
    # pass they do, in the first four cases)
    seq, n, pot, count = case
    rop = reduce_rows(build_graph(seq, n), 3, Potential(pot))
    want = sorted(zip(*(x.tolist() for x in _pairs(rop, solve_row_flip(rop, count)))))
    for sign in (1, -1):
        _rounding_noise(monkeypatch, sign)
        got = sorted(zip(*(x.tolist() for x in _pairs(rop, solve_row_flip(rop, count)))))
        assert got == want
        monkeypatch.undo()


def _sweep_ops(mesh, cells=64):
    """The row-flip operators of the small-sequence sweep at n <= 3 with
    at most `cells` cells, for every potential kind, and of the (5, 0, 0.2)
    plates at n = 1, 2."""
    for seq in small_sequences():
        for n in levels(seq):
            if n > 3 or 2**n * laakso.level_products(seq, n)[n] > cells:
                break
            g = build_graph(seq, n)
            for pot in ("free", "square_well", "coulomb", "parabolic"):
                yield reduce_rows(g, mesh, Potential(pot))
    for n in (1, 2):
        yield reduce_rows(build_graph(PLATES5[0], n, plates=PLATES5[1]), mesh, Potential("free"))


def test_segments_match_the_character_table():
    # reduce_rows finds each segment once, from its ends and the levels
    # between them; the table of every character by every cut node that it
    # replaced gives the same segments and weights and, copy by copy, the
    # same characters, byte for byte
    from row_flip_reference import table_segments

    g8 = build_graph(SEQ2, 8)
    ops = [*_sweep_ops(7), *(reduce_rows(g8, 7, pot) for pot in (
        Potential("free"), Potential("square_well"), Potential("coulomb"),
        Potential("parabolic"), SINE, RIDDLED)),
        reduce_rows(build_graph(PLATES5[0], 3, plates=PLATES5[1]), 7, Potential("free")),
        reduce_rows(build_graph(SEQ23, 3), 3, RIDDLED)]
    for rop in ops:
        starts, stops, weights, pair_character, pair_segment = table_segments(rop)
        copies = [rop.characters(i, np.arange(w)) for i, w in enumerate(rop.weights.tolist())]
        for got, want in ((rop.starts, starts), (rop.stops, stops), (rop.weights, weights),
                          (np.concatenate(copies),
                           pair_character[np.lexsort((pair_character, pair_segment))])):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert len(ops) > 300


def test_row_flip_selection_matches_the_two_pass_reference(monkeypatch):
    # The Sturm-count selection against the values pass it replaced, for
    # counts 1, 20 and dim in both modes: the same eigenvalues within
    # 8 eps ||T_seg||_1 (the largest gap is 2.6 eps, where the picked
    # copies of a band come from other segments), the same number of
    # copies from each tie band,
    # and where the reference's cut splits no band, the same (segment,
    # character) pairs and the same eigenvalue bits.  The residual
    # contract is not compared: where a band is split the picked copies
    # may come from other index windows, and the large parabolic segments
    # meet 1e-8 in some windows only.
    import row_flip_reference as reference
    from scipy.linalg import eigvalsh_tridiagonal

    import laakso.solver

    monkeypatch.setattr(laakso.solver, "_contract", lambda res, info: None)
    eps = np.finfo(float).eps
    cases = split = 0
    for rop in _sweep_ops(3):
        e0 = np.append(rop.off, 0.0)
        norm = np.array([np.max(np.abs(rop.diag[a:b]) + np.abs(e0[a:b])
                                + np.abs(np.append(0.0, rop.off[a:b - 1])))
                         for a, b in zip(rop.starts, rop.stops)])
        tie = 1024 * eps * norm.max()         # the solver's tie width
        spectrum = np.concatenate([eigvalsh_tridiagonal(rop.diag[a:b], rop.off[a:b - 1],
                                                        lapack_driver="stev")
                                   for a, b in zip(rop.starts, rop.stops)])
        copies = np.repeat(rop.weights, rop.stops - rop.starts)
        for mode in ("lowest", "nearest_zero"):
            keys = spectrum if mode == "lowest" else np.abs(spectrum)
            for count in sorted({1, min(20, rop.dimension), rop.dimension}):
                got = solve_row_flip(rop, count, mode)
                want = reference.solve_row_flip(rop, count, mode)
                got_seg, got_char = _pairs(rop, got)
                want_seg, want_char = _pairs(rop, want)
                gap = np.abs(got.eigenvalues - want.eigenvalues)
                assert np.all(gap <= 8 * eps * np.maximum(norm[got_seg], norm[want_seg]))
                # copies per tie band, each band around one of the reference's values
                got_keys = np.sort(got.eigenvalues if mode == "lowest"
                                   else np.abs(got.eigenvalues))
                want_keys = np.sort(want.eigenvalues if mode == "lowest"
                                    else np.abs(want.eigenvalues))
                for edge, side in ((want_keys - tie, "left"), (want_keys + tie, "right")):
                    assert np.array_equal(np.searchsorted(got_keys, edge, side),
                                          np.searchsorted(want_keys, edge, side))
                cut = want_keys[-1]
                if np.count_nonzero(np.abs(want_keys - cut) <= tie) == copies[
                        np.abs(keys - cut) <= tie].sum():
                    assert (sorted(zip(got_seg.tolist(), got_char.tolist()))
                            == sorted(zip(want_seg.tolist(), want_char.tolist())))
                    assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
                else:
                    split += 1
                cases += 1
    assert cases > 2000 and split > 0


def test_memoized_solve_leaves_shared_arrays_intact():
    # two calls on one op share nothing, and a call's arrays are its own
    rop = reduce_rows(build_graph(SEQ2, 5), 7, Potential("free"))
    r1 = solve_row_flip(rop, 20)
    r1.eigenvalues[:] = 0.0
    r1.eigenvectors[:] = 0.0
    r2 = solve_row_flip(rop, 20)
    assert r2.eigenvalues[0] != 0.0 and np.abs(r2.eigenvectors).max() > 0.0
    assert r2.info["segment_solves"] < r2.info["segments"]


@pytest.mark.parametrize("seq,n,dim", [
    (JSequence((3,), periodic=True), 2, 140),
    (SEQ2, 3, 244),
], ids=["dim140", "dim244"])
def test_solve_takes_row_flip_on_both_sides_of_200_nodes(seq, n, dim):
    # solve once switched to a dense path below 200 kept nodes; it takes
    # row-flip at both sizes, and matches the dense oracle
    g = build_graph(seq, n)
    pot = Potential("square_well")
    full = discretize(g, 7, pot)
    assert full.dimension == dim
    op, r = laakso.solve(g, 7, pot, 10)
    assert op.dimension == full.dimension
    assert r.info["method"] == "row-flip"
    assert _close(r.eigenvalues, solve_lowest(full, 10).eigenvalues, 1e-9)


@pytest.mark.parametrize("mode", ["lowest", "nearest_zero"])
def test_one_node_segments_are_counted(mode):
    # the well cuts j = 3, n = 1 at mesh 5 into segments of one node too,
    # for which dstebz still takes one off-diagonal entry
    g = build_graph(SEQ3, 1)
    pot = Potential("square_well")
    rop = reduce_rows(g, 5, pot)
    assert (rop.stops - rop.starts).min() == 1
    r = solve_row_flip(rop, 9, mode)
    assert _close(r.eigenvalues, solve_lowest(discretize(g, 5, pot), 9, mode).eigenvalues, 1e-9)


# ---------------------------------------------------------------------------
# clustering

def test_cluster_pairs():
    assert cluster(np.array([39.47, 39.49]), 1e-2) == [
        (pytest.approx(39.48), 2)]


def test_cluster_exact_degeneracy():
    out = cluster(np.array([1.0, 1.0, 1.0, 2.0, 2.0]), 1e-6)
    assert [(round(m, 6), c) for m, c in out] == [(1.0, 3), (2.0, 2)]


def test_cluster_requires_ascending():
    with pytest.raises(ValueError):
        cluster(np.array([2.0, 1.0]), 1e-2)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-3])
def test_cluster_rejects_bad_tolerance(tol):
    with pytest.raises(ValueError, match="tolerance"):
        cluster(np.array([1.0, 2.0]), tol)


def test_cluster_zero_tolerance_is_exact():
    assert cluster(np.array([1.0, 1.0, np.nextafter(1.0, 2.0)]), 0.0) == [
        (1.0, 2), (np.nextafter(1.0, 2.0), 1)]


# ---------------------------------------------------------------------------
# traces

def test_free_ground_state_constant():
    op, r = solve(build_graph(SEQ23, 2), 6, Potential("free"), 2)
    trace = eigenfunction_trace(op, r, 0)
    values = np.array([v for _, _, v in trace])
    assert np.ptp(values) / np.abs(values).max() < 1e-8


def test_coulomb_trace_vanishes_at_center():
    op, r = solve(build_graph(SEQ23, 2), 20, Potential("coulomb"), 4)
    assert r.info["mode"] == "nearest_zero"
    trace = eigenfunction_trace(op, r, 0)
    vmax = max(abs(v) for _, _, v in trace)
    at_center = [abs(v) for x, _, v in trace if x == 0.5]
    assert at_center and max(at_center) <= 1e-3 * vmax


def test_parabolic_trace_vanishes_at_ends():
    op, r = solve(build_graph(SEQ2, 1), 60, Potential("parabolic"), 2)
    trace = eigenfunction_trace(op, r, 0)
    vmax = max(abs(v) for _, _, v in trace)
    ends = [abs(v) for x, _, v in trace if x in (0.0, 1.0)]
    assert ends and max(ends) <= 1e-3 * vmax


def test_trace_unit_norm_and_index_checks():
    op, r = solve(build_graph(SEQ2, 1), 10, Potential("free"), 2)
    u = r.eigenvectors[:, 0]
    assert float(op.mass @ u**2) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(IndexError):
        eigenfunction_trace(op, r, 5)


# ---------------------------------------------------------------------------
# H's CSR form

@pytest.mark.parametrize("seq,n,M,pot,plates", [
    (SEQ2, 2, 7, Potential("free"), None),
    (SEQ2, 2, 7, Potential("square_well"), None),       # walls
    (SEQ2, 2, 8, Potential("coulomb"), None),           # the centre nodes
    (SEQ2, 2, 7, Potential("parabolic"), None),         # the ends
    (PLATES5[0], 1, 7, Potential("free"), PLATES5[1]),  # conducting vertices
    (SEQ23, 2, 5, Potential("square_well"), None),
], ids=_case_id)
def test_matrix_has_sorted_indices_and_no_stored_zero(seq, n, M, pot, plates):
    op = discretize(build_graph(seq, n, plates=plates), M, pot)
    assert op.matrix.has_sorted_indices
    assert np.all(op.matrix.data != 0)


def test_exact_zero_diagonal_is_not_stored():
    # a potential cancelling the kinetic diagonal exactly leaves the
    # arrays scipy's eliminate_zeros leaves
    g = build_graph(SEQ23, 2)
    free = discretize(g, 5, Potential("free"))
    op = discretize(g, 5, Potential("custom", func=lambda x: -free.matrix.diagonal()))
    want = free.matrix.copy()
    want.setdiag(0.0)
    want.eliminate_zeros()
    assert op.matrix.nnz == free.matrix.nnz - free.dimension
    for got, ref in ((op.matrix.data, want.data), (op.matrix.indices, want.indices),
                     (op.matrix.indptr, want.indptr)):
        assert np.array_equal(got, ref)
    assert op.matrix.toarray().tobytes() == want.toarray().tobytes()




def _digest(*arrays) -> str:
    """The first 16 hex digits of the sha256 of the arrays' dtypes and bytes."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.dtype.str.encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def _pinned_case(case):
    """(graph, mesh, V for discretize, V for reduce_rows) of a pinned case;
    'cancel' gives each operator a potential that cancels its free
    diagonal exactly."""
    if case == "cancel":
        g = build_graph(SEQ23, 2)
        free = discretize(g, 5, Potential("free"))
        diagonal = free.matrix.diagonal()
        path = reduce_rows(g, 5, Potential("free")).diag
        return (g, 5, Potential("custom", func=lambda x: -diagonal),
                Potential("custom", func=lambda x: -path))
    seq, n, M, kind, plates = {"free": (SEQ2, 3, 7, "free", None),
                               "walls": (SEQ23, 2, 5, "square_well", None),
                               "centre": (SEQ2, 2, 8, "coulomb", None),
                               "ends": (SEQ2, 2, 7, "parabolic", None),
                               "plates": (JSequence((4,), periodic=True), 2, 4, "free",
                                          PlateConfig(4, 1, 0.2))}[case]
    g = build_graph(seq, n, plates=plates)
    return g, M, Potential(kind), Potential(kind)


@pytest.mark.parametrize("case,want", [
    ("free", ("691525d894d12783", "8ca00adff82ba717")),
    ("walls", ("f4ecc39bc6d712a3", "79d95f5821a34ca1")),
    ("centre", ("bb9faf5be0c3e642", "c5d13b1c76df1962")),
    ("ends", ("a4d2de662f15248f", "104c05be4a100bf9")),
    ("plates", ("f85637dcafff092c", "9f4a3e2f0bf6ec5c")),
    ("cancel", ("5975b84f3b337a7a", "150dcede02ced15b")),
])
def test_operator_bits_are_pinned(case, want):
    # the bits of both operators, fixed across rewrites of their assembly:
    # walls, the Coulomb centre, the parabolic ends, conducting vertices
    # and a diagonal that cancels to exact zeros (not stored) each drop
    # entries.  The row-flip pairs are hashed as the table held them.
    from row_flip_reference import pair_table

    g, M, pot, path_pot = _pinned_case(case)
    op = discretize(g, M, pot)
    rop = reduce_rows(g, M, path_pot)
    H = op.matrix
    # scipy stores int32 indices; the pinned digests hash them as int64
    got = (_digest(H.data, H.indices.astype(np.int64), H.indptr.astype(np.int64),
                   op.mass, op.xs, op.kept),
           _digest(rop.xs, rop.mass, rop.diag, rop.off, rop.starts, rop.stops,
                   rop.weights, *pair_table(rop)))
    assert got == want


def test_lapack_is_the_extension_scipy_linalg_wraps():
    # loaded from its file first, _flapack is the module a later
    # `import scipy.linalg` wraps, so dstemr and dstebz are the very same
    # routines
    code = ("import sys; from laakso.solver import _lapack; flapack = _lapack(); "
            "assert 'scipy.linalg' not in sys.modules; "
            "from scipy.linalg import lapack; "
            "print(flapack.dstemr is lapack.dstemr, flapack.dstebz is lapack.dstebz)")
    src = os.path.dirname(os.path.dirname(laakso.__file__))
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.split() == ["True", "True"]


def test_entries_outside_double_range_raise_mesh_error():
    g = build_graph(JSequence((5,), periodic=True), 1, plates=PlateConfig(5, 0, 1e-200))
    with pytest.raises(MeshError, match=r"^reduce_rows: T on 41 path nodes \(mesh 7\) is "
                                        "outside double range$"):
        reduce_rows(g, 7, Potential("free"))
    with pytest.raises(MeshError, match=r"^discretize: H on 76 kept nodes \(mesh 7\) is "
                                        "outside double range$"):
        discretize(g, 7, Potential("free"))


def _reduce_rows_estimate(monkeypatch, graph, pot):
    """The bytes reduce_rows(graph, 7, pot) last asks the budget for, and
    its tracemalloc peak."""
    from laakso import solver

    asked = []
    check = solver._check_budget
    monkeypatch.setattr(solver, "_check_budget",
                        lambda need, *args: asked.append(need) or check(need, *args))
    tracemalloc.start()
    try:
        reduce_rows(graph, 7, Potential(pot))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return asked[-1], peak


@pytest.mark.parametrize("n", [8, 9, 10])
@pytest.mark.parametrize("pot", ["free", "square_well", "coulomb"])
def test_reduce_rows_estimate_is_within_twice_its_peak(monkeypatch, n, pot):
    need, peak = _reduce_rows_estimate(monkeypatch, build_graph(SEQ2, n), pot)
    assert peak / 2 <= need <= 2 * peak


def test_relative_norms_rescale_only_columns_that_overflow():
    from laakso.solver import _relative_norms

    rng = np.random.default_rng(5)
    R, V = rng.standard_normal((30, 4)), rng.standard_normal((30, 4))
    plain = np.linalg.norm(R, axis=0) / np.linalg.norm(V, axis=0)
    big = R.copy()
    big[:, 1] *= 1e200                 # squares overflow; the norm does not
    with np.errstate(over="raise"):
        got = _relative_norms(big, V)
    assert np.array_equal(got[[0, 2, 3]], plain[[0, 2, 3]])
    assert got[1] == pytest.approx(1e200 * plain[1], rel=1e-14)
    R[0, 3] = np.inf                   # an overflowed residual stays infinite
    assert _relative_norms(R, V)[3] == np.inf
