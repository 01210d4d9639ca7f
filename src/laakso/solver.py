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
multiplicities of the paper, at the discrete level (the character
decomposition of Band, Parzanchevski and Ben-Shach, J. Phys. A 42, 2009).
`reduce_rows` finds each segment once by that rule, from its ends and the
levels between them, never per character, and `solve_row_flip` solves
them as tridiagonal problems without assembling H.  Segments at different
places can still carry the same T (the paper's families repeat), so
within one call each distinct T, by its bytes, is counted once, and each
T and index window asked of it is solved once.  The 184 segments of the
free j = 2, n = 6 solve (count 20) hold 19 distinct T's: Sturm counts on
them (13 dstebz calls) pick the 20 eigenpairs, and 8 dstemr calls solve
those.  The count-th copy often falls in a band of eigenvalues of
different T's that tie, within tau = 1024 eps ||T||_1 of it (the paper's
multiplicities): every eigenvalue below the band is taken, then copies
from the band in (segment, eigenvalue index) order, not by the rounding
of their values.  `solve` takes this path at every size, and
`eigenfunction_trace` writes each pair (S, f) out as chi_S (x) f, a path
node at a time, which is already (x, row) order.  `discretize` +
`solve_lowest`, the dense solve of the assembled H, is the reduction's
oracle; nothing traces its eigenvectors.

The commands that never solve (`describe`, `census`, `spectrum`, `zeta`,
`casimir`) would spend most of their start-up importing scipy, and even
`solve` needs only two kernels, LAPACK's `dstebz` and `dstemr`.  So it
imports none of scipy's subpackages: `_lapack` loads scipy's `_flapack`
extension straight from its file (the same shared object
`scipy.linalg.lapack` wraps, so the bits are the same).  Every `solve`
loads `_flapack`, so a warm-up solve pays for every later one.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .graphs import QuantumGraph, _bit_strings, _check_budget, _row_of_class

if TYPE_CHECKING:
    from scipy import sparse


@functools.cache
def _lapack():
    """scipy's `_flapack` extension (LAPACK's `dstemr` and `dstebz`),
    loaded from its file without running `scipy/linalg/__init__.py`.

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
    return mod


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
# and per (column, level) pair, for the scan that finds the segments:
# 28-85 more at mesh 7, for j = 2 at n = 8-12 and j = 3, (2,3), (3,2) at
# n = 6-7, every potential; up to 102 at n = 4
_BYTES_PER_COLUMN_LEVEL = 80


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
    (walls, conducting vertices) are Dirichlet.  `matrix` is H in CSR
    form, with sorted column indices and no stored zero.
    """

    matrix: sparse.csr_matrix          # symmetrized H on kept nodes
    mass: np.ndarray                   # lumped node masses (kept nodes)
    xs: np.ndarray                     # x-coordinate per node
    kept: np.ndarray                   # indices of the kept nodes
    mesh: int
    potential: Potential
    graph: QuantumGraph = field(repr=False)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

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
    by the masses and handed to scipy.sparse as CSR.

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

    Memory (tracemalloc, j = 2, n = 7, M = 7, every node kept): about 280
    bytes per node at the peak, the result's 66 included.
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
    massk = massv[idx]
    s = 1.0 / np.sqrt(massk)
    # group s_r s_c first: it is commutative, so (r, c) and (c, r) round alike
    hval = s[row] * s[col] * val
    hval[row == col] += V[idx]
    if not np.isfinite(hval).all():
        raise MeshError(f"discretize: H on {n} kept nodes (mesh {M}) is outside double range")
    from scipy import sparse

    # mesh >= 2, so no (row, col) pair repeats and the conversion sums nothing
    H = sparse.csr_matrix((hval, (row, col)), shape=(n, n))
    H.eliminate_zeros()       # a diagonal that cancels exactly is not stored
    return DiscretizedOperator(
        matrix=H,
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
    weights[i] characters.  Its n-bit masks are the levels its end columns
    are cut at only through the character, `fixed[i]` (R), and those with
    its inner columns' birth levels, `used[i]` (R u B): it lies in the
    characters that hold R and avoid B, 2^(n - |R u B|) of them.  A path
    function f in character S is the graph function chi_S (x) f.
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
    fixed: np.ndarray
    used: np.ndarray

    @property
    def dimension(self) -> int:
        """The kept-node count of the graph: segment sizes summed over all characters."""
        return int(self.weights @ (self.stops - self.starts))

    def characters(self, i: int, copies: np.ndarray) -> np.ndarray:
        """The character of each copy c of segment i, ascending in c: R,
        with c's bits deposited in order on the levels outside R u B."""
        out = np.full_like(copies, self.fixed[i])
        free = [m for m in range(self.graph.level) if not self.used[i] >> m & 1]
        for j, m in enumerate(free):
            out |= (copies >> j & 1) << m
        return out


@np.errstate(over="ignore", divide="ignore", invalid="ignore")     # as in discretize
def reduce_rows(graph: QuantumGraph, mesh: int, potential: Potential
                ) -> RowFlipOperator:
    """Split the Hamiltonian `discretize(graph, mesh, potential)` assembles
    into its row-flip segments, without assembling it.

    Reads only the graph's columns: birth levels, x, the length class of
    each cell column and the conducting columns.  The segments follow the
    module docstring's rule, never a character at a time: from each cut
    node p, a segment ends at the first node of each level bit not yet
    passed, up to the first node cut in every character or the next one
    with p's bit.  MeshError if an entry of T is outside double range, or
    if what it holds needs more than `_memory_budget()` (`_check_budget`),
    checked before any array is made: the path nodes at
    _BYTES_PER_PATH_NODE each and the (column, level) pairs at
    _BYTES_PER_COLUMN_LEVEL each.
    """
    lengths = _lengths(graph, mesh)
    n, I_n, M = graph.level, graph.columns, mesh
    nodes = (M + 1) * I_n + 1
    _check_budget(nodes * _BYTES_PER_PATH_NODE + (I_n + 1) * n * _BYTES_PER_COLUMN_LEVEL,
                  f"reduce_rows: mesh {M} gives {nodes} path nodes at level {n}, which need",
                  MeshError)
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
    # row bit n - m.  bit[i] is that bit of node i, -1 if it is cut in every
    # character, and bit[end] = -1 is past the path; mask[bit] is its mask.
    end = len(xs)
    bit = np.full(end + 1, -1)
    bit[:-1:M + 1] = np.where(graph.birth > 0, n - graph.birth, -1)
    bit[:-1][cut] = -1
    mask = np.append(1 << np.arange(n), 0)
    # p: the cut node (or -1, the left path end) before each segment start
    p = np.flatnonzero(~cut & np.append(True, cut[:-1] | (bit[:-2] >= 0))) - 1
    # nxt[m, k]: the first node after p[k] with bit m, or end
    marked = np.flatnonzero(bit >= 0)
    span, level = end + 1, np.arange(n)[:, None]
    keys = np.append(np.sort(bit[marked] * span + marked), n * span)
    found = keys[np.searchsorted(keys, level * span + p, side="right")]
    nxt = np.where(found // span == level, found % span, end)
    walls = np.append(np.flatnonzero(cut[1:] & ~cut[:-1]) + 1, end)
    stop = walls[np.searchsorted(walls, p, side="right")]
    own = np.flatnonzero(bit[p] >= 0)
    stop[own] = np.minimum(stop[own], nxt[bit[p[own]], own])
    # The ends from p, ascending: the first node of each bit before the
    # stop, then the stop.  An end's B is the bits of the nodes before it,
    # so |B| is its rank; R (fixed) is the bits of p and of the end.
    ends = np.sort(np.vstack([np.minimum(nxt, stop), stop]), axis=0)
    passed = mask[bit[ends]]
    inner = np.cumsum(passed, axis=0) - passed
    keep = ends > p + 1
    keep[1:] &= ends[1:] > ends[:-1]
    k, rank = np.nonzero(keep.T)
    q = ends.T[keep.T]
    fixed = mask[bit[p[k]]] | mask[bit[q]]
    held = rank + (bit[p[k]] >= 0) + ((bit[q] >= 0) & (bit[q] != bit[p[k]]))
    return RowFlipOperator(graph, mesh, potential, xs, mass, diag, off,
                           p[k] + 1, q, 1 << (n - held), fixed, fixed | inner.T[keep.T])


def _segment_eigh(d: np.ndarray, e: np.ndarray, lo: int, hi: int):
    """Eigenvalues lo..hi-1 (by index) of the tridiagonal T with diagonal d
    and off-diagonal e, and their eigenvectors (columns).

    LAPACK's MRRR driver dstemr, called with the arguments scipy's
    `eigh_tridiagonal(d, e, select="i", select_range=(lo, hi - 1),
    lapack_driver="stemr")` passes it (e padded to length N), so the
    output is bit for bit the same, without that wrapper's validation.
    Its default workspaces (18N and 10N) are the sizes LAPACK's workspace
    query returns, so none is made.
    """
    e_n = np.zeros(len(d))
    e_n[:-1] = e
    # range 2 selects by 1-based index il..iu; vl and vu are then unused
    m, w, v, info = _lapack().dstemr(d, e_n, 2, 0.0, 1.0, lo + 1, hi, compute_v=True)
    if info != 0:
        raise ConvergenceError(f"dstemr failed (info={info}) on a segment of {len(d)} nodes")
    # v is N x N whatever m is; a copy of its m columns lets it go
    return w[:m], v[:, :m].copy(order="K")


def _aranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges starts[i] .. starts[i] + lengths[i] - 1, concatenated."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - ends + lengths, lengths) + np.arange(ends[-1] if len(ends) else 0)


# Eigenvalues of distinct segments closer than 1024 eps ||T||_1 tie, with
# ||T||_1 the largest 1-norm among the segments that hold them.
_TIE = 1024 * np.finfo(float).eps
_HUGE = np.finfo(float).max


def _tie_band(diag, off, starts, stops, weight, count: int, nearest: bool):
    """Where the `count`-th eigenvalue copy falls, from Sturm counts alone.

    T t is the tridiagonal on path nodes starts[t]:stops[t] (diagonal
    diag, off-diagonal off), with weight[t] copies; no two are equal.
    Each T is scaled by 2^-k, k the exponent of its largest |entry|, which
    leaves its counts unchanged; sigma is in units of 2^K, K the largest
    k.  The count C(sigma) = sum of weight * #{lambda <= sigma} ('lowest',
    or #{|lambda| <= sigma} for 'nearest_zero') is bisected on the bracket
    (lo, hi], C(lo) < count <= C(hi), at its midpoint, or its geometric
    midpoint while it spans orders of magnitude.  Each round counts only
    the T's with eigenvalues in the bracket.  Bisection ends when the
    bracket is narrower than the tie width tau of those T's, or when each
    holds one eigenvalue there: dstebz's own bisection then places them,
    and the bracket becomes tau wide around the one the count-th copy
    falls on.  The band is the bracket widened by tau on each side, so
    that it splits no tie.

    Returns (first, stop, sides, rounds): the eigenvalues first[t] ..
    stop[t] - 1 of T t lie below the band, and each side (of zero) of the
    band, a pair (start, n), holds its eigenvalues start[t] .. start[t] +
    n[t] - 1; rounds counts the dstebz calls.
    """
    sizes = stops - starts
    t_row = np.repeat(np.arange(len(sizes)), sizes)
    rows = _aranges(starts, sizes)
    tops = np.cumsum(sizes) - sizes         # each T's first row
    D = diag[rows]
    E = np.append(off, 0.0)[rows]
    E[tops + sizes - 1] = 0.0               # no coupling from one T to the next
    k = np.frexp(np.maximum.reduceat(np.maximum(np.abs(D), np.abs(E)), tops))[1]
    D, E = np.ldexp(D, -k[t_row]), np.ldexp(E, -k[t_row])
    norm = np.maximum.reduceat(np.abs(D) + np.abs(E) + np.abs(np.append(0.0, E[:-1])), tops)
    tie = _TIE * np.ldexp(norm, k - k.max())
    # sigma in a T's own scale; past 2^1000 no count can change
    grow = np.ldexp(1.0, np.minimum(k.max() - k, 1000))
    stretch = grow[t_row]
    dstebz = _lapack().dstebz
    rounds = 0

    def counter(ts):
        """#{lambda <= sigma} of each T in ts, a row per sigma: dstebz with
        a tolerance so large that it never bisects, so that its m is a pure
        Sturm count, on one shifted copy of the T's per sigma."""
        slot = np.full(len(sizes), -1)
        slot[ts] = np.arange(len(ts))
        mine = np.flatnonzero(slot[t_row] >= 0)
        d, e, st, own = D[mine], E[mine], stretch[mine], slot[t_row[mine]]

        def below(sigmas):
            nonlocal rounds
            x = d - sigmas[:, None] * st
            ex = np.tile(e, len(sigmas))[:max(x.size - 1, 1)]     # dstebz takes e[0] at N = 1
            m, _, block, split, info = dstebz(x.ravel(), ex, 1, -_HUGE, 0.0, 0, 0, 1e300, b"B")
            rounds += 1
            if info != 0:
                raise ConvergenceError(f"dstebz failed (info={info}) counting {x.size} rows")
            owner = (np.arange(len(sigmas))[:, None] * len(ts) + own).ravel()
            hits = owner[split[block[:m] - 1] - 1]
            return np.bincount(hits, minlength=len(sigmas) * len(ts)).reshape(len(sigmas), -1)
        return below

    def located(ts, lo, hi, tau):
        """The sigma, or |sigma|, of the count-th copy when each T in ts
        holds one eigenvalue in the bracket: dstebz bisects each to within
        tau / 16.  None if dstebz finds another number of them."""
        nonlocal rounds
        where = []
        for t in ts.tolist():
            d, g = D[tops[t]:tops[t] + sizes[t]], grow[t]
            e = E[tops[t]:tops[t] + max(sizes[t] - 1, 1)]     # dstebz takes e[0] at N = 1
            for vl, vu in ((-hi, -lo), (lo, hi)) if nearest else ((lo, hi),):
                m, w, _, _, info = dstebz(d, e, 1, vl * g, vu * g, 0, 0, tau * g / 8, b"E")
                rounds += 1
                if info != 0:
                    raise ConvergenceError(f"dstebz failed (info={info}) on {len(d)} rows")
                where += [((abs(x) if nearest else x) / g, t) for x in w[:m].tolist()]
        if len(where) != len(ts):       # its count at an end of the bracket differs
            return None
        total = base
        for x, t in sorted(where):
            total += weight[t]
            if total >= count:
                return x

    def widened(lo, hi):
        """(first, stop, sides) for the band (lo, hi]."""
        below = counter(everything)
        if not nearest:
            N = below(np.array([lo, hi]))
            return 0 * N[0], N[0], [(N[0], N[1] - N[0])]
        if lo <= 0:
            N = below(np.array([-hi, hi]))
            return N[0], N[0], [(N[0], N[1] - N[0])]
        N = below(np.array([-hi, -lo, lo, hi]))
        return N[1], N[2], [(N[0], N[1] - N[0]), (N[2], N[3] - N[2])]

    everything = np.arange(len(sizes))
    lo, hi = (0.0, 4.0) if nearest else (-4.0, 4.0)
    act, at_lo, at_hi = everything, 0 * sizes, sizes        # the counts of act's T's
    base, changed = 0, True                                  # base = C(lo)
    while True:
        if changed:
            tau = tie[act].max()
            below, w = counter(act), weight[act]
        # the geometric midpoint while the bracket spans orders of magnitude
        if lo >= 0 and hi > 8 * max(lo, tau):
            a = max(lo, tau, hi * 2.0**-64)
            sigma = a * math.sqrt(hi / a)
        elif hi <= 0 and -lo > 8 * max(-hi, tau):
            a = max(-hi, tau, -lo * 2.0**-64)
            sigma = -a * math.sqrt(-lo / a)
        else:
            sigma = lo + (hi - lo) / 2
        if hi - lo < tau or not lo < sigma < hi:
            first, stop, sides = widened(lo - tau, hi + tau)
            break
        x = located(act, lo, hi, tau) if (at_hi - at_lo == 1).all() else None
        if x is not None:
            first, stop, sides = widened(x - 1.5 * tau, x + 1.5 * tau)
            break
        c = below(np.array([sigma, -sigma]) if nearest else np.array([sigma]))
        c = c[0] - c[1] if nearest else c[0]
        C = base + (c - at_lo) @ w
        if C >= count:
            hi, at_hi = sigma, c
        else:
            lo, at_lo, base = sigma, c, C
        live = at_hi > at_lo
        changed = not live.all()
        if changed:
            act, at_lo, at_hi = act[live], at_lo[live], at_hi[live]
    return first, stop, sides, rounds


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
    The eigenvectors carry the sign LAPACK gives them.
    """
    mode = _window(op, count, mode)
    H = op.matrix.toarray()
    vals, vecs = np.linalg.eigh(H)
    if mode == "lowest":
        sel = np.arange(count)
    else:
        sel = np.sort(np.argsort(np.abs(vals), kind="stable")[:count])
    vals, vecs = vals[sel], vecs[:, sel]
    res = _relative_norms(H @ vecs - vecs * vals[None, :], vecs)
    info = {"method": "dense", "mode": mode, "dim": op.dimension}
    _contract(res, info)
    return EigenResult(vals, vecs / np.sqrt(op.mass)[:, None], res, info)


def solve_row_flip(op: RowFlipOperator, count: int, mode: str = "auto") -> EigenResult:
    """The eigenvalues `solve_lowest` returns, from the row-flip segments.

    Modes are those of `solve_lowest`.  A segment eigenvalue counts
    weights[i] times, and which ones are taken is decided from Sturm
    counts alone (`_tie_band`), on each distinct T once: every eigenvalue
    below the tie band of the `count`-th copy (the eigenvalues within
    about 1024 eps ||T||_1 of it), then copies from the band in (segment,
    eigenvalue index) order until there are `count`.  So a degenerate cut
    is a stated rule, not the rounding of computed values;
    info["count_rounds"] counts the dstebz calls.  Then only the
    picked eigenpairs are solved, by index with LAPACK's MRRR driver
    (dstemr, `_segment_eigh`); segments with the same T and index window
    share one call, and info["segment_solves"] counts them, next to
    info["segments"].  Masses, residuals and characters are still taken
    per segment.  The c-th copy of a segment eigenvalue belongs to the
    segment's c-th character, so a degenerate eigenspace gets a canonical
    basis.

    Eigenvectors are the path functions f (columns on the path nodes,
    zero off their segment, unit discrete L2); `characters` holds each
    pair's character S, and the pair is the graph function
    2^(-n/2) chi_S (x) f, which `eigenfunction_trace` writes out.  The
    residual ||T f - lambda f|| / ||f|| of each segment pair equals that
    of chi_S (x) f under H.  Raises ConvergenceError if
    any residual exceeds 1e-8, and MeshError, before any LAPACK call, if
    the N x N eigenvector array of the longest segment needs more than
    `_memory_budget()` (`_check_budget`).
    """
    mode = _window(op, count, mode)
    starts, stops, weights = op.starts, op.stops, op.weights
    N = int((stops - starts).max())
    _check_budget(8 * N * N, f"eigensolve: the longest row-flip segment has {N} path "
                             f"nodes, whose {N} x {N} eigenvector array needs", MeshError)
    # Segments repeat (the paper's families): each distinct T, by its
    # bytes, is counted once, and each (T, index window) solved once.
    distinct, one = {}, []                  # one: each T's first segment
    seg_t = np.empty(len(starts), dtype=np.int64)
    for i, (a, b) in enumerate(zip(starts.tolist(), stops.tolist())):
        key = (op.diag[a:b].tobytes(), op.off[a:b - 1].tobytes())
        if key not in distinct:
            distinct[key] = len(one)
            one.append(i)
        seg_t[i] = distinct[key]
    first, stop, sides, rounds = _tie_band(
        op.diag, op.off, starts[one], stops[one],
        np.bincount(seg_t, weights, len(one)).astype(np.int64), count, mode == "nearest_zero")

    # every eigenvalue below the band, then the band's, each part in
    # (segment, index) order
    seg, idx = [], []
    for part in ([(first, stop - first)], sides):
        part_seg = np.concatenate([np.repeat(np.arange(len(starts)), n[seg_t]) for _, n in part])
        part_idx = np.concatenate([_aranges(a[seg_t], n[seg_t]) for a, n in part])
        o = np.lexsort((part_idx, part_seg))
        seg.append(part_seg[o])
        idx.append(part_idx[o])
    seg, idx = np.concatenate(seg), np.concatenate(idx)
    copies = weights[seg]
    total = np.cumsum(copies)
    need = int(np.searchsorted(total, count)) + 1
    copies = copies[:need]
    copies[-1] -= total[need - 1] - count
    pick_seg, pick_idx = np.repeat(seg[:need], copies), np.repeat(idx[:need], copies)
    copy = _aranges(np.zeros_like(copies), copies)

    memo = {}
    out = np.empty(count)
    res = np.empty(count)
    funcs = np.zeros((len(op.xs), count))
    characters = np.empty(count, dtype=np.int64)
    for i in np.flatnonzero(np.bincount(pick_seg)):     # np.unique would import numpy.ma
        cols = np.flatnonzero(pick_seg == i)
        want = pick_idx[cols]
        key = (seg_t[i], int(want.min()), int(want.max()) + 1)
        a, b = starts[i], stops[i]
        if key not in memo:
            memo[key] = _segment_eigh(op.diag[a:b], op.off[a:b - 1], *key[1:])
        lam, g = memo[key]
        lam, g = lam[want - key[1]], g[:, want - key[1]]    # copies: the memo stays intact
        e = op.off[a:b - 1, None]
        r = op.diag[a:b, None] * g - g * lam
        r[:-1] += e * g[1:]
        r[1:] += e * g[:-1]
        out[cols] = lam
        res[cols] = _relative_norms(r, g)
        funcs[a:b, cols] = g / np.sqrt(op.mass[a:b])[:, None]
        characters[cols] = op.characters(i, copy[cols])
    o = np.argsort(out, kind="stable")
    info = {"method": "row-flip", "mode": mode, "dim": op.dimension,
            "characters": 1 << op.graph.level, "segments": len(starts),
            "count_rounds": rounds, "segment_solves": len(memo)}
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


def eigenfunction_trace(op: RowFlipOperator, result: EigenResult, index: int):
    """Sample eigenfunction `index` over the node map for plotting.

    Pair (S, f) is 2^(-n/2) chi_S (x) f on the graph.  Path node p stands
    for every row at an interior node or a path end, and for the 2^(n-1)
    row classes ('*' at label position m - 1, read as bit 0) of a column
    born at level m >= 1.  (x, row label, value) tuples are returned a
    path node at a time, rows in label order, so sorted by (x, row);
    values are in the unit discrete-L2 normalization, and eliminated
    nodes (walls, conducting vertices) read exactly 0.0.  The trace is
    signed by one rule: positive where |value| first peaks in
    `discretize`'s node order, the columns left to right and then the
    interior nodes.
    """
    if not 0 <= index < result.eigenvectors.shape[1]:
        raise IndexError(f"eigenfunction index {index} out of range")
    n, step = op.graph.level, op.mesh + 1
    scale = 2.0 ** (-n / 2)
    f = result.eigenvectors[:, index]
    # the values in `discretize`'s node order: the columns, then the interior
    first = scale * np.concatenate([f[::step], np.delete(f, np.s_[::step])])
    if first[np.argmax(np.abs(first))] < 0:
        f = -f
    S, rows = int(result.characters[index]), np.arange(1 << n)
    chi = np.array([-scale if bin(r & S).count("1") % 2 else scale for r in range(1 << n)])
    # copies[m]: chi and the labels of the rows a node born at level m stands for
    copies = []
    for m in range(n + 1):
        r = rows if m == 0 else _row_of_class(rows[:len(rows) >> 1], n - m)
        copies.append((chi[r], _bit_strings(r, n, np.full(len(r), m - 1)).tolist()))
    birth = np.zeros(len(f), dtype=np.int64)
    birth[::step] = op.graph.birth
    out = []
    for x, m, v in zip(op.xs.tolist(), birth.tolist(), f.tolist()):
        sign, labels = copies[m]
        # a zero times -1 is -0.0; eliminated nodes read 0.0
        out += zip(itertools.repeat(x), labels, (sign * v + 0.0).tolist())
    return out
