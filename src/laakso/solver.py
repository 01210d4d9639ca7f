"""Sparse discretization and eigensolves of Hamiltonians on quantum graphs.

Each edge carries M interior mesh points with step h_e = length_e/(M+1),
so it is a chain of M + 1 links.  The kinetic part is the Dirichlet
energy of the links (one shared unknown per vertex, so continuity is
built in and the Kirchhoff closure is the weak form of the vertex
condition): a link of step h adds 1/h to the stiffness diagonal and h/2
to the lumped mass at both its ends, and -1/h between them, one rule
(`_link_sums`) for `discretize` and `reduce_rows`.  It is symmetrized
with the lumped node masses:

    H = D^(-1/2) L D^(-1/2) + diag(V(x)),   D = node masses.

Potentials act pointwise through the x-coordinate of each node.  An
infinite wall is a Dirichlet constraint: nodes where V is infinite are
eliminated together with the conducting vertices, so the wavefunction
is zero there and H carries only the finite part of V.

Row flips.  Swapping the two level-m copies (flipping bit n - m of every
row mask) is a graph automorphism that fixes x, and everything H is built
from (V, walls, conducting columns, cell lengths) depends on x alone, so
H commutes with the group Z_2^n of row flips.  Its characters
chi_S(row) = (-1)^popcount(row & S), S a set of row bits, block-diagonalize
H.  Block S is the finite-difference problem on one row, the path [0, 1]
with the same nodes, steps, masses and V, free at x = 0 and x = 1 and
Dirichlet at every column born at a level whose bit is in S, besides the
walls and conducting columns.  Cut at its Dirichlet nodes, a block falls
into segments.  A segment whose end columns are Dirichlet only through S
and born at levels R, and whose inner columns are born at levels B, lies
in 2^(n - |R u B|) blocks, and in none if R and B meet: the closed-form
multiplicities of the paper, at the discrete level.  `reduce_rows` keeps
each distinct segment once, and `solve_row_flip` solves them as
tridiagonal problems without assembling H.  Segments at different
places can still carry the same T (the paper's families repeat), so
within one call each distinct problem, T's bytes and the index window
asked of it, goes to LAPACK once: the eigenvalues of the 184 segments
of the free j = 2, n = 6 solve (count 20) take 23 calls.  `solve` takes
this path at every size.  `discretize` + `solve_lowest`, the dense solve
of the assembled H, is the reduction's oracle.

The commands that never solve (`describe`, `census`, `spectrum`, `zeta`,
`casimir`) would spend most of their start-up importing scipy, and even
`solve` needs only one kernel, LAPACK's `dstemr`.  So it imports none of
scipy's subpackages: `_lapack` loads scipy's `_flapack` extension straight
from its file (the same shared object `scipy.linalg.lapack` wraps, so
the bits are the same).  Every `solve` loads `_flapack`, so a warm-up
solve pays for every later one.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .graphs import QuantumGraph, _check_budget

if TYPE_CHECKING:
    from scipy import sparse


@functools.cache
def _lapack():
    """`dstemr` from scipy's `_flapack` extension, loaded from its file
    without running `scipy/linalg/__init__.py`.

    The module goes into sys.modules under its own name, so a later
    `import scipy.linalg` wraps this very module.
    """
    import importlib.machinery as machinery
    import importlib.util

    import scipy

    where = os.path.join(scipy.__path__[0], "linalg")
    finder = machinery.FileFinder(where, (machinery.ExtensionFileLoader,
                                          machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec("scipy.linalg._flapack")
    if spec is None:
        raise ImportError(f"no _flapack extension in {where}")
    mod = sys.modules.get(spec.name)
    if mod is None:
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        sys.modules[spec.name] = mod
    return mod.dstemr


def eigsh(*args, **kwargs):
    """scipy.sparse.linalg.eigsh, imported on the first call.  Nothing in the
    package calls it; the benchmark's tracer wraps the name (ROADMAP item 1)."""
    from scipy.sparse.linalg import eigsh

    return eigsh(*args, **kwargs)


class MeshError(ValueError):
    """Discretization parameters are unusable, or too large for memory."""


# Peak bytes reduce_rows holds per path node, tracemalloc, mesh 1e4-1e6 at
# n = 1-6, every potential: 88.  dstemr's eigenvectors of an N-node
# segment take 8 N^2 bytes more.
_BYTES_PER_PATH_NODE = 100
# and per (character, cut) entry of its segment table, j = 2, mesh 7,
# n = 8-11: 42 free and Coulomb, 38 square well
_BYTES_PER_TABLE_ENTRY = 48


class ConvergenceError(RuntimeError):
    """The eigensolver failed to meet the residual contract."""


@dataclass(frozen=True)
class Potential:
    """Potential V(x) on the horizontal coordinate.

    kind is one of 'free', 'square_well', 'coulomb', 'parabolic',
    'custom'.  Infinite values are walls, which `discretize` and
    `reduce_rows` eliminate as Dirichlet nodes; a 'custom' func returns
    np.inf (or -np.inf) where it wants one.  The square well is +inf
    outside [1/4, 3/4] and zero on the closed well, so a node exactly on
    the wall sees V = 0.  The Coulomb potential -1/(x-1/2)^2 + 1/4 is
    -inf at x = 1/2 exactly; the parabolic potential 1/(x(1-x)) is +inf
    at x = 0, 1.
    """

    kind: str
    func: object = None

    def __post_init__(self):
        if self.kind not in ("free", "square_well", "coulomb", "parabolic", "custom"):
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if self.kind == "custom" and not callable(self.func):
            raise ValueError("custom potential needs a callable func")

    def values(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "free":
            return np.zeros_like(x)
        if self.kind == "square_well":
            return np.where((x >= 0.25) & (x <= 0.75), 0.0, np.inf)
        with np.errstate(divide="ignore"):
            if self.kind == "coulomb":
                return -1.0 / (x - 0.5) ** 2 + 0.25
            if self.kind == "parabolic":
                return 1.0 / (x * (1.0 - x))
        return np.asarray(self.func(x), dtype=float)


@dataclass
class DiscretizedOperator:
    """The Hamiltonian `discretize` assembles from the graph's links.

    Nodes are the vertices, then the interior points of each cell in
    turn.  H acts on the kept ones, `kept` indexes them; eliminated nodes
    (walls, conducting vertices) are Dirichlet.  H is held as CSR arrays
    (its link entries sorted by row, then column, no stored zero);
    `matrix`, the scipy.sparse form, is built on demand.
    """

    data: np.ndarray                   # symmetrized H on kept nodes, CSR
    indices: np.ndarray
    indptr: np.ndarray
    mass: np.ndarray                   # lumped node masses (kept nodes)
    xs: np.ndarray                     # x-coordinate per node
    kept: np.ndarray                   # indices of the kept nodes
    mesh: int
    potential: Potential
    graph: QuantumGraph = field(repr=False)

    @property
    def dimension(self) -> int:
        return len(self.indptr) - 1

    def rows(self) -> np.ndarray:
        """The row of each stored entry."""
        return np.repeat(np.arange(self.dimension), np.diff(self.indptr))

    @functools.cached_property
    def matrix(self) -> sparse.csr_matrix:
        from scipy import sparse

        n = self.dimension
        return sparse.csr_matrix((self.data, self.indices, self.indptr), shape=(n, n))

    def dense(self) -> np.ndarray:
        """H as a dense array: `matrix.toarray()`."""
        n = self.dimension
        H = np.zeros((n, n))
        H[self.rows(), self.indices] = self.data
        return H

    def symmetry_defect(self) -> float:
        d = self.matrix - self.matrix.T
        return float(abs(d).max()) if d.nnz else 0.0


def _lengths(graph: QuantumGraph, mesh: int) -> np.ndarray:
    """The graph's lengths as floats; MeshError for mesh < 2 or a length <= 0."""
    if mesh < 2:
        raise MeshError(f"mesh must have at least 2 interior points, got {mesh}")
    lengths = np.array([float(x) for x in graph.lengths])
    if np.any(lengths <= 0):
        raise MeshError("degenerate edge length")
    return lengths


def _potential_at(potential: Potential, xs: np.ndarray) -> np.ndarray:
    """V at the nodes xs; MeshError unless it holds one value per node, none NaN."""
    V = potential.values(xs)
    if V.shape != xs.shape:
        raise MeshError(f"potential returned shape {V.shape}, expected {xs.shape}")
    if np.isnan(V).any():
        raise MeshError(f"potential is NaN at x = {xs[np.isnan(V)][0]!r}")
    return V


def _link_sums(a: np.ndarray, b: np.ndarray, h: np.ndarray, nodes: int):
    """(stiffness diagonal, lumped mass) of links a[i] -- b[i] of step h[i]:
    each adds 1/h and h/2 at both ends.  A node sums the links it starts,
    then those it ends, each in link order, so the float sums never change."""
    ends = np.concatenate([a, b])
    w = 1.0 / h
    return (np.bincount(ends, np.concatenate([w, w]), minlength=nodes),
            np.bincount(ends, np.concatenate([h / 2, h / 2]), minlength=nodes))


def _interior_x(x0: np.ndarray, x1: np.ndarray, mesh: int) -> np.ndarray:
    """x of the mesh interior points of cells from x0 to x1, a row per cell."""
    t = (np.arange(mesh) + 1.0) / (mesh + 1)
    return x0[:, None] + t[None, :] * (x1 - x0)[:, None]


# Overflow and division by zero in the assembly end as non-finite entries,
# which discretize and reduce_rows reject with MeshError; numpy's warnings
# would only print ahead of that error.
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def discretize(graph: QuantumGraph, mesh: int, potential: Potential
               ) -> DiscretizedOperator:
    """Assemble the symmetric finite-difference Hamiltonian from its links.

    Cell c is the chain u, p_1 ... p_M, v of M + 1 links of step h_c
    (module docstring).  Links that touch an eliminated node are dropped,
    the rest and the kept diagonal are remapped to the kept nodes, scaled
    by the masses and sorted into CSR order.

    Parameters
    ----------
    graph : QuantumGraph
    mesh : int
        Interior points per edge, M >= 2; step h_e = length_e/(M+1).
    potential : Potential

    Returns
    -------
    DiscretizedOperator
        Second-order accurate; matrix exactly symmetric by construction;
        conducting vertices and wall nodes (V infinite) eliminated.
        MeshError if an entry is outside double range.

    Memory (tracemalloc, M = 7, every node kept): about 310 bytes per
    node at the peak, the result's 82 included.
    """
    lengths = _lengths(graph, mesh)
    nv, ne, M = graph.num_vertices, graph.num_cells, mesh
    ndof = nv + ne * M
    chain = np.column_stack([graph.u, nv + np.arange(ne * M).reshape(ne, M), graph.v])
    a, b = chain[:, :-1].ravel(), chain[:, 1:].ravel()
    h = np.repeat(np.tile(lengths[graph.length_class] / (M + 1), 1 << graph.level), M + 1)
    stiff, massv = _link_sums(a, b, h, ndof)

    xv = np.array([float(x) for x in graph.column_x])[graph.vertex_column]
    xs = np.concatenate([xv, _interior_x(xv[graph.u], xv[graph.v], M).ravel()])
    V = _potential_at(potential, xs)
    keep = np.isfinite(V)
    keep[graph.conducting_ids()] = False
    idx = np.flatnonzero(keep)
    n = len(idx)
    new = np.cumsum(keep) - 1
    live = keep[a] & keep[b]
    a, b, w = new[a[live]], new[b[live]], -1.0 / h[live]
    row = np.concatenate([np.arange(n), a, b])
    col = np.concatenate([np.arange(n), b, a])
    val = np.concatenate([stiff[idx], w, w])
    order = np.argsort(row * n + col, kind="stable")    # timsort: the keys come in runs
    row, col, val = row[order], col[order], val[order]
    massk = massv[idx]
    s = 1.0 / np.sqrt(massk)
    # group s_r s_c first: it is commutative, so (r, c) and (c, r) round alike
    hval = s[row] * s[col] * val
    hval[row == col] += V[idx]
    if not np.isfinite(hval).all():
        raise MeshError(f"discretize: H on {n} kept nodes (mesh {M}) is outside double range")
    nz = hval != 0            # a diagonal that cancels exactly is not stored
    row, col, hval = row[nz], col[nz], hval[nz]
    return DiscretizedOperator(
        data=hval,
        indices=col,
        indptr=np.concatenate([[0], np.cumsum(np.bincount(row, minlength=n))]),
        mass=massk,
        xs=xs,
        kept=idx,
        mesh=M,
        potential=potential,
        graph=graph,
    )


@dataclass
class RowFlipOperator:
    """The Hamiltonian of `discretize` split by the row flips (module docstring).

    The path is one row of the graph: column k is node k (M + 1), and the
    M interior points of cell k follow it.  `diag` and `off` are the
    tridiagonal T = D^(-1/2) L D^(-1/2) + diag(V) on every path node.
    Segment i is T on nodes starts[i]:stops[i], a block of H for
    weights[i] characters; the occurrence p is segment pair_segment[p] of
    character pair_character[p], in ascending character order.
    """

    graph: QuantumGraph = field(repr=False)
    mesh: int
    potential: Potential
    xs: np.ndarray                     # x-coordinate per path node
    mass: np.ndarray                   # lumped path-node masses
    diag: np.ndarray
    off: np.ndarray
    starts: np.ndarray
    stops: np.ndarray
    weights: np.ndarray
    pair_character: np.ndarray
    pair_segment: np.ndarray

    @property
    def dimension(self) -> int:
        """The kept-node count of the graph: segment sizes summed over all characters."""
        return int(self.weights @ (self.stops - self.starts))

    def node_x(self) -> np.ndarray:
        """x-coordinate of every graph node, in `discretize`'s node order."""
        g, M = self.graph, self.mesh
        interior = self.xs[:-1].reshape(g.columns, M + 1)[:, 1:].ravel()
        return np.concatenate([self.xs[g.vertex_column * (M + 1)],
                               np.tile(interior, 1 << g.level)])

    def lift(self, f: np.ndarray, character: int) -> np.ndarray:
        """2^(-n/2) chi_S (x) f on every graph node, in `discretize`'s node
        order: unit discrete L2 when the path function f is."""
        g, M = self.graph, self.mesh
        bits = np.arange(1 << g.level) & character
        parity = np.zeros_like(bits)
        for b in range(g.level):
            parity ^= (bits >> b) & 1
        chi = (1.0 - 2.0 * parity) * 2.0 ** (-g.level / 2)
        interior = f[:-1].reshape(g.columns, M + 1)[:, 1:].ravel()
        return np.concatenate([chi[g.vertex_rows()] * f[g.vertex_column * (M + 1)],
                               np.outer(chi, interior).ravel()])


@np.errstate(over="ignore", divide="ignore", invalid="ignore")     # as in discretize
def reduce_rows(graph: QuantumGraph, mesh: int, potential: Potential
                ) -> RowFlipOperator:
    """Split the Hamiltonian `discretize(graph, mesh, potential)` assembles
    into its row-flip segments, without assembling it.

    Reads only the graph's columns: birth levels, x, the length class of
    each cell column and the conducting columns.  MeshError if an entry
    of T is outside double range, or if what it holds needs more than
    `_memory_budget()` (`_check_budget`): the path nodes at
    _BYTES_PER_PATH_NODE each, checked before any array is made, and with
    them the table of 2^n characters by the cut columns and cut run ends
    at _BYTES_PER_TABLE_ENTRY each, checked before the table is made.
    """
    lengths = _lengths(graph, mesh)
    n, I_n, M = graph.level, graph.columns, mesh
    nodes = (M + 1) * I_n + 1
    _check_budget(nodes * _BYTES_PER_PATH_NODE, f"reduce_rows: mesh {M} gives {nodes} "
                  f"path nodes at level {n}, which need", MeshError)
    # link p joins path nodes p and p + 1
    h = np.repeat(lengths[graph.length_class] / (M + 1), M + 1)
    links = np.arange(len(h))
    stiff, mass = _link_sums(links, links + 1, h, len(h) + 1)

    xv = np.array([float(x) for x in graph.column_x])
    xs = np.empty(len(h) + 1)
    xs[::M + 1] = xv
    xs[:-1].reshape(I_n, M + 1)[:, 1:] = _interior_x(xv[:-1], xv[1:], M)
    V = _potential_at(potential, xs)
    cut = ~np.isfinite(V)
    cut[np.asarray(graph.conducting_columns(), dtype=np.int64) * (M + 1)] = True
    s = 1.0 / np.sqrt(mass)
    diag = stiff * (s * s) + np.where(cut, 0.0, V)
    off = -(1.0 / h) * (s[:-1] * s[1:])
    if not (np.isfinite(diag).all() and np.isfinite(off).all()):
        raise MeshError(f"reduce_rows: T on {len(xs)} path nodes (mesh {M}) "
                        "is outside double range")

    # A column born at level m >= 1 is Dirichlet for the characters holding
    # row bit n - m.  Pad each character's cut nodes with the two path ends
    # and take the non-empty gaps between neighbours.  Only the two ends of
    # a run of cut nodes can bound a gap, so the table keeps those, and a
    # gap may not start on a cut node.
    node_bit = np.zeros(len(xs), dtype=np.int64)
    node_bit[::M + 1] = np.where(graph.birth > 0, 1 << (n - graph.birth), 0)
    run_end = cut & ~(np.append(cut[1:], False) & np.insert(cut[:-1], 0, False))
    at = np.flatnonzero(run_end | (node_bit > 0))
    _check_budget(nodes * _BYTES_PER_PATH_NODE + (len(at) << n) * _BYTES_PER_TABLE_ENTRY,
                  f"reduce_rows: the table of {1 << n} characters by {len(at)} cut nodes, "
                  f"with {nodes} path nodes at mesh {M}, needs", MeshError)
    hit = cut[at] | ((np.arange(1 << n)[:, None] & node_bit[at]) != 0)
    char, k = np.nonzero(np.pad(hit, ((0, 0), (1, 1)), constant_values=True))
    pos = np.concatenate([[-1], at, [len(xs)]])
    a, b = pos[k[:-1]] + 1, pos[k[1:]]
    ok = (char[:-1] == char[1:]) & (b > a)
    ok[ok] = ~cut[a[ok]]
    span = len(xs) + 1
    keys, seg, weights = np.unique(a[ok] * span + b[ok], return_inverse=True,
                                   return_counts=True)
    return RowFlipOperator(graph, mesh, potential, xs, mass, diag, off,
                           keys // span, keys % span, weights, char[:-1][ok], seg)


def _count_negative(diag, off, starts, stops) -> np.ndarray:
    """Negative eigenvalues of each segment's T (Sylvester's law of inertia:
    the negative pivots of its LDL^T), with all segments run in lockstep."""
    coupling = np.concatenate([[0.0], off**2])      # off[p - 1]^2, into row p
    pivmin = np.finfo(float).tiny * max(1.0, coupling.max())
    count = np.zeros(len(starts), dtype=np.int64)
    q = np.ones(len(starts))
    for i in range(int((stops - starts).max())):
        p = starts + i
        live = p < stops
        p = np.where(live, p, starts)
        q = diag[p] - (coupling[p] / q if i else 0.0)
        q = np.where(~live, 1.0, np.where(np.abs(q) < pivmin, -pivmin, q))
        count += q < 0
    return count


def _segment_eigh(d: np.ndarray, e: np.ndarray, lo: int, hi: int, vectors: bool):
    """Eigenvalues lo..hi-1 (by index) of the tridiagonal T with diagonal d
    and off-diagonal e, and with `vectors` their eigenvectors (columns).

    LAPACK's MRRR driver dstemr, called with the arguments scipy's
    `eigh_tridiagonal(d, e, select="i", select_range=(lo, hi - 1),
    lapack_driver="stemr")` passes it (e padded to length N), so the
    output is bit for bit the same, without that wrapper's validation.
    Its default workspaces (18N and 10N with vectors, 12N and 8N without)
    are the sizes LAPACK's workspace query returns, so none is made.
    """
    e_n = np.zeros(len(d))
    e_n[:-1] = e
    # range 2 selects by 1-based index il..iu; vl and vu are then unused
    m, w, v, info = _lapack()(d, e_n, 2, 0.0, 1.0, lo + 1, hi, compute_v=vectors)
    if info != 0:
        raise ConvergenceError(f"dstemr failed (info={info}) on a segment of {len(d)} nodes")
    # v is N x N whatever m is; a copy of its m columns lets it go
    return (w[:m], v[:, :m].copy(order="K")) if vectors else w[:m]


@dataclass
class EigenResult:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray           # function values, columns; unit discrete L2
    residuals: np.ndarray
    info: dict
    characters: np.ndarray | None = None   # row-flip character of each pair (solve_row_flip)

    def __len__(self) -> int:
        return len(self.eigenvalues)


_RESIDUAL_TOL = 1e-8


def _relative_norms(R: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """||R[:, i]|| / ||vecs[:, i]|| for each column i.

    The plain 2-norm squares the entries and overflows beyond about
    1e154; only a column where it does is recomputed with both columns
    scaled by their largest |entry|.  A column of R holding inf stays inf.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.linalg.norm(R, axis=0) / np.linalg.norm(vecs, axis=0)
        for i in np.flatnonzero(~np.isfinite(out)):
            r, v = np.abs(R[:, i]).max(), np.abs(vecs[:, i]).max()
            if np.isfinite(r):
                out[i] = (np.linalg.norm(R[:, i] / r) / np.linalg.norm(vecs[:, i] / v)
                          * (r / v))
    return out


def _window(op, count: int, mode: str) -> str:
    """The mode `count` eigenpairs of op are asked in ('auto': 'nearest_zero'
    for Coulomb, else 'lowest'); ValueError for a bad count or mode."""
    dim = op.dimension
    if not 1 <= count <= dim:
        raise ValueError(f"count must be in 1..{dim}, got {count}")
    if mode == "auto":
        mode = "nearest_zero" if op.potential.kind == "coulomb" else "lowest"
    if mode not in ("lowest", "nearest_zero"):
        raise ValueError(f"unknown mode {mode!r}")
    return mode


def _contract(res: np.ndarray, info: dict):
    """ConvergenceError if a residual exceeds 1e-8, else record residual_max
    and polish_rounds (0: walls are eliminated, so no refinement follows)."""
    if np.any(res > _RESIDUAL_TOL):
        raise ConvergenceError(
            f"residuals up to {res.max():.3e} exceed {_RESIDUAL_TOL:.0e} "
            f"({info['method']}, dim={info['dim']})"
        )
    info["residual_max"] = float(res.max())
    info["polish_rounds"] = 0


def solve_lowest(op: DiscretizedOperator, count: int, mode: str = "auto") -> EigenResult:
    """Dense eigensolve of the assembled H, the row-flip reduction's oracle.

    It holds about 16 dim^2 bytes (H as a dense array and its
    eigenvectors); the tests compare `solve` against it.  mode 'lowest'
    returns the `count` algebraically smallest eigenvalues,
    'nearest_zero' the `count` closest to zero: the meaningful window for
    the Coulomb potential, whose discretized -1/(x-1/2)^2 is unbounded
    below as h -> 0, so its lowest eigenvalues are mesh artifacts far
    below zero.  'auto' picks 'nearest_zero' for Coulomb and 'lowest'
    otherwise.  Raises ConvergenceError if any residual exceeds 1e-8.
    """
    mode = _window(op, count, mode)
    H = op.dense()
    vals, vecs = np.linalg.eigh(H)
    if mode == "lowest":
        sel = np.arange(count)
    else:
        sel = np.sort(np.argsort(np.abs(vals), kind="stable")[:count])
    vals, vecs = vals[sel], vecs[:, sel]
    res = _relative_norms(H @ vecs - vecs * vals[None, :], vecs)
    info = {"method": "dense", "mode": mode, "dim": op.dimension}
    _contract(res, info)

    funcs = vecs / np.sqrt(op.mass)[:, None]
    for i in range(funcs.shape[1]):
        jmax = int(np.argmax(np.abs(funcs[:, i])))
        if funcs[jmax, i] < 0:
            funcs[:, i] = -funcs[:, i]
    return EigenResult(vals, funcs, res, info)


def solve_row_flip(op: RowFlipOperator, count: int, mode: str = "auto") -> EigenResult:
    """The eigenvalues `solve_lowest` returns, from the row-flip segments.

    Modes are those of `solve_lowest`.  Each segment is solved by index
    with LAPACK's MRRR driver (dstemr, `_segment_eigh`): 'lowest' takes
    the bottom of every segment, so it finds the true bottom of the
    spectrum for any potential, and 'nearest_zero' takes a window around
    each segment's count of negative eigenvalues.  Segments with the same
    T and window share one LAPACK call, in the values pass and in the
    vectors pass; info["segment_solves"] counts the calls made, next to
    info["segments"].  Masses, residuals and characters are still taken
    per segment.  A segment eigenvalue counts weights[i] times; its c-th
    copy belongs to the segment's c-th character, so a degenerate
    eigenspace gets a canonical basis.

    Eigenvectors are the path functions f (columns on the path nodes,
    zero off their segment, unit discrete L2); `characters` holds each
    pair's character, and `eigenfunction_trace` lifts the pair onto the
    graph.  The residual ||T f - lambda f|| / ||f|| of each segment pair
    equals that of the lifted pair under H.  Raises ConvergenceError if
    any residual exceeds 1e-8, and MeshError, before any LAPACK call, if
    the N x N eigenvector array of the longest segment needs more than
    `_memory_budget()` (`_check_budget`).
    """
    mode = _window(op, count, mode)
    starts, stops, weights = op.starts, op.stops, op.weights
    N = int((stops - starts).max())
    _check_budget(8 * N * N, f"eigensolve: the longest row-flip segment has {N} path "
                             f"nodes, whose {N} x {N} eigenvector array needs", MeshError)
    # An eigenvalue of a segment with w copies is picked only if fewer
    # than count / w of the segment's eigenvalues come before it; one more
    # for nearest_zero, where lambda and -lambda tie.
    k = np.minimum(stops - starts, -(-count // weights) + 1)
    if mode == "lowest":
        lo = np.zeros_like(k)
    else:
        neg = _count_negative(op.diag, op.off, starts, stops)
        lo = np.maximum(neg - k, 0)
        k = np.minimum(stops - starts, neg + k) - lo
    # Segments repeat (the paper's families), so each distinct problem,
    # T's bytes and the index window, goes to LAPACK once per call.
    memo = {}

    def segment_eigh(i, lo_i, hi_i, vectors):
        a, b = starts[i], stops[i]
        d, e = op.diag[a:b], op.off[a:b - 1]
        key = (d.tobytes(), e.tobytes(), lo_i, hi_i, vectors)
        if key not in memo:
            memo[key] = _segment_eigh(d, e, lo_i, hi_i, vectors)
        return memo[key]

    cand = [segment_eigh(i, lo[i], lo[i] + k[i], False) for i in range(len(k))]
    vals = np.concatenate(cand)
    seg = np.repeat(np.arange(len(k)), k)
    idx = np.concatenate([np.arange(lo[i], lo[i] + k[i]) for i in range(len(k))])

    order = np.argsort(vals if mode == "lowest" else np.abs(vals), kind="stable")
    copies = weights[seg[order]]
    need = int(np.searchsorted(np.cumsum(copies), count)) + 1
    pick = np.repeat(order[:need], copies[:need])[:count]
    copy = np.concatenate([np.arange(c) for c in copies[:need]])[:count]

    out = np.empty(count)
    res = np.empty(count)
    funcs = np.zeros((len(op.xs), count))
    characters = np.empty(count, dtype=np.int64)
    for i in np.flatnonzero(np.bincount(seg[pick])):     # np.unique would import numpy.ma
        cols = np.flatnonzero(seg[pick] == i)
        want = idx[pick[cols]]
        first = int(want.min())
        lam, g = segment_eigh(i, first, int(want.max()) + 1, True)
        lam, g = lam[want - first], g[:, want - first]      # copies: the memo stays intact
        a, b = starts[i], stops[i]
        e = op.off[a:b - 1, None]
        r = op.diag[a:b, None] * g - g * lam
        r[:-1] += e * g[1:]
        r[1:] += e * g[:-1]
        out[cols] = lam
        res[cols] = _relative_norms(r, g)
        funcs[a:b, cols] = g / np.sqrt(op.mass[a:b])[:, None]
        characters[cols] = op.pair_character[op.pair_segment == i][copy[cols]]
    o = np.argsort(out, kind="stable")
    info = {"method": "row-flip", "mode": mode, "dim": op.dimension,
            "characters": 1 << op.graph.level, "segments": len(k), "segment_solves": len(memo)}
    _contract(res, info)
    return EigenResult(out[o], funcs[:, o], res[o], info, characters[o])


def solve(graph: QuantumGraph, mesh: int, potential: Potential, count: int,
          mode: str = "auto"):
    """The eigenpairs `solve_lowest` defines, without assembling H:
    `reduce_rows` splits it into row-flip segments and `solve_row_flip`
    solves them.  Returns (op, result).
    """
    op = reduce_rows(graph, mesh, potential)
    return op, solve_row_flip(op, count, mode)


def cluster(eigenvalues, rel_tol: float = 1e-2):
    """Greedy clustering of an ascending eigenvalue list into (mean, count).

    A value joins the current cluster when it lies within
    rel_tol * max(1, |running mean|) of the mean; rel_tol = 0 groups
    exact degeneracies only.  Returns a list of (mean, count) pairs in
    ascending order.  Raises ValueError for a negative or non-finite
    rel_tol.
    """
    if not (math.isfinite(rel_tol) and rel_tol >= 0):
        raise ValueError(f"cluster tolerance must be finite and >= 0, got {rel_tol!r}")
    vals = np.asarray(
        eigenvalues.eigenvalues if isinstance(eigenvalues, EigenResult) else eigenvalues,
        dtype=float,
    )
    if np.any(np.diff(vals) < 0):
        raise ValueError("eigenvalues must be ascending")
    out: list[tuple[float, int]] = []
    total, count = 0.0, 0
    for v in vals:
        if count and abs(v - total / count) > rel_tol * max(1.0, abs(total / count)):
            out.append((total / count, count))
            total, count = 0.0, 0
        total += v
        count += 1
    if count:
        out.append((total / count, count))
    return out


def eigenfunction_trace(op: DiscretizedOperator | RowFlipOperator, result: EigenResult,
                        index: int):
    """Sample eigenfunction `index` over the node map for plotting.

    Returns (x, row label, value) tuples for every node, sorted by
    (x, row); values are in the unit discrete-L2 normalization, and
    eliminated nodes (walls, conducting vertices) read exactly 0.0.  A
    row-flip pair is lifted onto the graph and signed as `solve_lowest`
    signs its vectors: positive where |value| first peaks in node order.
    """
    if not 0 <= index < result.eigenvectors.shape[1]:
        raise IndexError(f"eigenfunction index {index} out of range")
    if isinstance(op, RowFlipOperator):
        xs = op.node_x()
        u = op.lift(result.eigenvectors[:, index], int(result.characters[index]))
        if u[np.argmax(np.abs(u))] < 0:
            u = -u
        u += 0.0              # a zero times -1 is -0.0; eliminated nodes read 0.0
    else:
        xs = op.xs
        u = np.zeros(len(op.xs))
        u[op.kept] = result.eigenvectors[:, index]
    g = op.graph
    # node order: vertices, then the interior points of each cell in turn
    rows = np.concatenate([g.vertex_labels(),
                           g.row_labels(np.repeat(np.arange(1 << g.level), g.columns * op.mesh))])
    order = np.lexsort((rows, xs))
    return list(zip(xs[order].tolist(), rows[order].tolist(), u[order].tolist()))


_EXPORT_SLICE = 4096


def export_matrix(op: DiscretizedOperator, path: str):
    """Write the assembled matrix in coordinate text format (row col value),
    rows ascending and columns ascending within a row.  It converts
    `_EXPORT_SLICE` stored entries at a time to Python lists, so its own
    memory is bounded whatever the size: 0.5 MB at its peak (tracemalloc)
    for the j = 2, n = 8, M = 7 free matrix, 1.54 M entries and 51 MB of text."""
    nnz = len(op.data)
    with open(path, "w") as fh:
        fh.write(f"% symmetric {op.dimension} x {op.dimension}, nnz {nnz}\n")
        for a in range(0, nnz, _EXPORT_SLICE):
            b = min(a + _EXPORT_SLICE, nnz)
            rows = np.searchsorted(op.indptr, np.arange(a, b), side="right") - 1
            for r, c, v in zip(rows.tolist(), op.indices[a:b].tolist(), op.data[a:b].tolist()):
                fh.write(f"{r} {c} {v:.17g}\n")
