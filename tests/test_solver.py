"""Discretization and eigensolver behavior on small graphs."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import laakso
from laakso import (
    ConvergenceError,
    JSequence,
    PlateConfig,
    Potential,
    build_graph,
    cluster,
    discretize,
    eigenfunction_trace,
    export_matrix,
    solve_lowest,
)
from laakso.solver import MeshError

PI2 = math.pi**2
SEQ2 = JSequence((2,), periodic=True)
SEQ23 = JSequence((2, 3), periodic=True)


# ---------------------------------------------------------------------------
# potentials

def test_potential_values():
    import numpy as np
    x = np.array([0.0, 0.2499, 0.25, 0.5, 0.75, 0.7501, 1.0])
    well = Potential("square_well").values(x)
    assert list(well) == [1e15, 1e15, 0.0, 0.0, 0.0, 1e15, 1e15]
    coul = Potential("coulomb").values(np.array([0.5, 0.6]))
    assert coul[0] == -1e15
    assert coul[1] == pytest.approx(-1 / 0.01 + 0.25)
    par = Potential("parabolic").values(np.array([0.0, 0.5, 1.0]))
    assert par[0] == par[2] == 1e15
    assert par[1] == pytest.approx(4.0)
    assert Potential("free").values(x).max() == 0.0
    custom = Potential("custom", func=lambda x: 2 * x)
    assert list(custom.values(np.array([1.0, 2.0]))) == [2.0, 4.0]


def test_potential_validation():
    with pytest.raises(ValueError):
        Potential("box")
    with pytest.raises(ValueError):
        Potential("custom")
    with pytest.raises(ValueError):
        Potential("free", cutoff=-1.0)


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
    op = discretize(build_graph(SEQ23, 2), 5, Potential("free"))
    rowsums = np.abs(np.asarray(op.stiffness.sum(axis=1))).ravel()
    assert rowsums.max() == 0.0


def test_dirichlet_elimination_on_plates():
    cfg = PlateConfig(4, 1, 0.2)
    g = build_graph(JSequence((4,), periodic=True), 2, plates=cfg)
    M = 4
    op = discretize(g, M, Potential("free"))
    assert op.dimension == len(g.vertices) - len(g.conducting_ids()) \
        + len(g.edges) * M


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
    assert len(op.xs) == len(g.vertices) + len(g.edges) * M
    V = pot.values(op.xs)
    walls = int(np.sum(np.abs(V) >= pot.cutoff))
    assert walls > 0
    conducting = set(g.conducting_ids())
    free = sum(1 for i, v in enumerate(V) if abs(v) < pot.cutoff and i not in conducting)
    assert op.dimension == free
    assert np.all(np.abs(op.matrix.diagonal()) < pot.cutoff)


def test_nan_potential_is_not_a_wall():
    # |nan| < cutoff is False, so without a check NaN nodes would be
    # eliminated silently
    pot = Potential("custom", func=lambda x: np.where(x > 0.5, np.nan, 0.0))
    with pytest.raises(MeshError):
        discretize(build_graph(SEQ2, 1), 4, pot)


def test_trace_zero_on_eliminated_nodes():
    cases = [
        (build_graph(SEQ23, 2), 20, "coulomb", lambda x, row: x == 0.5),
        (build_graph(SEQ2, 1), 60, "parabolic", lambda x, row: x in (0.0, 1.0)),
    ]
    g = build_graph(JSequence((4,), periodic=True), 2, plates=PlateConfig(4, 1, 0.2))
    plates = {(float(g.vertices[i].x), g.vertices[i].row_class) for i in g.conducting_ids()}
    cases.append((g, 4, "free", lambda x, row: (x, row) in plates))
    for graph, M, kind, eliminated in cases:
        op = discretize(graph, M, Potential(kind))
        trace = eigenfunction_trace(op, solve_lowest(op, 2), 0)
        assert len(trace) == len(graph.vertices) + len(graph.edges) * M
        zeros = [v for x, row, v in trace if eliminated(x, row)]
        assert zeros and all(v == 0.0 for v in zeros), kind
        assert max(abs(v) for _, _, v in trace) > 0


def test_square_well_shift_invert_regression():
    # The 631.5 cluster (multiplicity >= 11) straddles k_solve = 23.  With
    # ARPACK's default ncv = 2k + 1 this solve misses the contract under
    # single-threaded BLAS, as the CLI benchmark runs it; the thread count
    # must be set before numpy is imported, hence the child process.
    code = (
        "from laakso import JSequence, Potential, build_graph, discretize, solve_lowest\n"
        "g = build_graph(JSequence((2,), periodic=True), 6)\n"
        "r = solve_lowest(discretize(g, 7, Potential('square_well')), 20)\n"
        "print(r.info['method'], r.info['polish_rounds'], float(r.residuals.max()))\n"
    )
    src = os.path.dirname(os.path.dirname(laakso.__file__))
    env = dict(os.environ, PYTHONPATH=src, LAAKSO_THREADS="1", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    method, rounds, res = proc.stdout.split()
    assert (method, rounds) == ("shift-invert", "0")
    assert float(res) <= 1e-8


def test_mesh_and_count_validation():
    g = build_graph(SEQ2, 1)
    with pytest.raises(MeshError):
        discretize(g, 1, Potential("free"))
    op = discretize(g, 4, Potential("free"))
    with pytest.raises(ValueError):
        solve_lowest(op, 0)
    with pytest.raises(ValueError):
        solve_lowest(op, op.dimension + 1)


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


def test_cutoff_saturation():
    # raising the well cutoff 1e12 -> 1e15 moves the lowest eigenvalues
    # by far less than 0.1%
    g = build_graph(SEQ23, 3)
    vals = {}
    for cutoff in (1e12, 1e15):
        op = discretize(g, 6, Potential("square_well", cutoff=cutoff))
        vals[cutoff] = solve_lowest(op, 10).eigenvalues
    rel = np.abs(vals[1e15] - vals[1e12]) / np.abs(vals[1e15])
    assert rel.max() < 1e-3


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


# ---------------------------------------------------------------------------
# traces and export

def test_free_ground_state_constant():
    op = discretize(build_graph(SEQ23, 2), 6, Potential("free"))
    r = solve_lowest(op, 2)
    trace = eigenfunction_trace(op, r, 0)
    values = np.array([v for _, _, v in trace])
    assert np.ptp(values) / np.abs(values).max() < 1e-8


def test_coulomb_trace_vanishes_at_center():
    op = discretize(build_graph(SEQ23, 2), 20, Potential("coulomb"))
    r = solve_lowest(op, 4)
    assert r.info["mode"] == "nearest_zero"
    trace = eigenfunction_trace(op, r, 0)
    vmax = max(abs(v) for _, _, v in trace)
    at_center = [abs(v) for x, _, v in trace if x == 0.5]
    assert at_center and max(at_center) <= 1e-3 * vmax


def test_parabolic_trace_vanishes_at_ends():
    op = discretize(build_graph(SEQ2, 1), 60, Potential("parabolic"))
    r = solve_lowest(op, 2)
    trace = eigenfunction_trace(op, r, 0)
    vmax = max(abs(v) for _, _, v in trace)
    ends = [abs(v) for x, _, v in trace if x in (0.0, 1.0)]
    assert ends and max(ends) <= 1e-3 * vmax


def test_trace_unit_norm_and_index_checks():
    op = discretize(build_graph(SEQ2, 1), 10, Potential("free"))
    r = solve_lowest(op, 2)
    u = r.eigenvectors[:, 0]
    assert float(op.mass @ u**2) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(IndexError):
        eigenfunction_trace(op, r, 5)
    r2 = solve_lowest(op, 2, keep_vectors=False)
    with pytest.raises(ValueError):
        eigenfunction_trace(op, r2, 0)


def test_export_matrix_roundtrip(tmp_path):
    op = discretize(build_graph(SEQ2, 1), 4, Potential("free"))
    path = tmp_path / "matrix.txt"
    export_matrix(op, str(path))
    rows = path.read_text().strip().splitlines()
    assert rows[0].startswith("%")
    entries = [line.split() for line in rows[1:]]
    assert len(entries) == op.matrix.nnz
    vals = {(int(r), int(c)): float(v) for r, c, v in entries}
    for (r, c), v in vals.items():
        assert vals[(c, r)] == v


def test_lowest_mode_rejects_potential_below_shift():
    # shift-invert at sigma = -10 misses eigenvalues below it: unchecked,
    # this solve returned 16.8 while the true bottom is about -9527.5
    op = discretize(build_graph(SEQ2, 5), 7, Potential("custom", func=lambda x: -1e4 * x))
    assert op.dimension > 2000
    with pytest.raises(ValueError, match="nearest_zero"):
        solve_lowest(op, 5, mode="lowest")
