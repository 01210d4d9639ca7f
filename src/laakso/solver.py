"""Sparse discretization and eigensolves of Hamiltonians on quantum graphs.

Each edge carries M interior mesh points with step h_e = length_e/(M+1).
The kinetic part is assembled from the Dirichlet energy (one shared
unknown per vertex, so continuity is built in and the Kirchhoff closure
is the weak form of the vertex condition), then symmetrized with the
lumped node masses:

    H = D^(-1/2) L D^(-1/2) + diag(V(x)),   D = node masses.

Potentials act pointwise through the x-coordinate of each node.  An
infinite wall is a Dirichlet constraint: nodes where |V| reaches the
potential's cutoff are eliminated together with the conducting
vertices, so the wavefunction is zero there and H carries only the
finite part of V.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import eigsh

from .graphs import QuantumGraph


class MeshError(ValueError):
    """Discretization parameters are unusable."""


class ConvergenceError(RuntimeError):
    """The eigensolver failed to meet the residual contract."""


@dataclass(frozen=True)
class Potential:
    """Potential V(x) on the horizontal coordinate.

    kind is one of 'free', 'square_well', 'coulomb', 'parabolic',
    'custom'.  Values at or beyond +-cutoff are infinite walls, which
    `discretize` eliminates as Dirichlet nodes; this holds for 'custom'
    too.  The square well is +cutoff outside [1/4, 3/4] and zero on the
    closed well, so a node exactly on the wall sees V = 0.  The Coulomb
    potential -1/(x-1/2)^2 + 1/4 is -cutoff at x = 1/2 exactly; the
    parabolic potential 1/(x(1-x)) is +cutoff at x = 0, 1.
    """

    kind: str
    cutoff: float = 1e15
    func: object = None

    def __post_init__(self):
        if self.kind not in ("free", "square_well", "coulomb", "parabolic", "custom"):
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if self.kind == "custom" and not callable(self.func):
            raise ValueError("custom potential needs a callable func")
        if self.cutoff <= 0:
            raise ValueError("cutoff must be positive")

    def values(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "free":
            return np.zeros_like(x)
        if self.kind == "square_well":
            return np.where((x >= 0.25) & (x <= 0.75), 0.0, self.cutoff)
        if self.kind == "coulomb":
            out = np.empty_like(x)
            at_center = x == 0.5
            with np.errstate(divide="ignore"):
                out[~at_center] = -1.0 / (x[~at_center] - 0.5) ** 2 + 0.25
            out[at_center] = -self.cutoff
            return out
        if self.kind == "parabolic":
            out = np.empty_like(x)
            at_end = (x == 0.0) | (x == 1.0)
            out[~at_end] = 1.0 / (x[~at_end] * (1.0 - x[~at_end]))
            out[at_end] = self.cutoff
            return out
        return np.asarray(self.func(x), dtype=float)


@dataclass
class DiscretizedOperator:
    """Symmetric matrix realization of a Hamiltonian on a quantum graph.

    The matrix acts on the kept nodes, `kept` indexes them among all
    nodes; eliminated nodes (walls, conducting vertices) are Dirichlet.
    """

    matrix: sparse.csr_matrix          # symmetrized H on kept nodes
    stiffness: sparse.csr_matrix       # kinetic part L before mass scaling
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


def discretize(graph: QuantumGraph, mesh: int, potential: Potential
               ) -> DiscretizedOperator:
    """Assemble the symmetric finite-difference Hamiltonian.

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
        conducting vertices and wall nodes (|V| >= potential.cutoff)
        eliminated.
    """
    if mesh < 2:
        raise MeshError(f"mesh must have at least 2 interior points, got {mesh}")
    nv, ne, M = graph.num_vertices, graph.num_cells, mesh
    lengths = np.array([float(x) for x in graph.lengths])
    if np.any(lengths <= 0):
        raise MeshError("degenerate edge length")
    h = lengths[graph.length_class] / (M + 1)
    w = 1.0 / h                        # weight of every link of a cell
    eu, ev = graph.u, graph.v
    ndof = nv + ne * M

    # Fixed summation order, so the float sums never change: a vertex adds
    # the cells it starts, then the cells it ends, each in cell order.
    ends = np.concatenate([eu, ev])
    diag = np.concatenate([np.bincount(ends, np.concatenate([w, w]), minlength=nv),
                           np.repeat(w + w, M)])
    massv = np.concatenate([np.bincount(ends, np.concatenate([h / 2, h / 2]), minlength=nv),
                            np.repeat(h, M)])

    xv = np.array([float(x) for x in graph.column_x])[graph.vertex_column]
    t = (np.arange(M) + 1.0) / (M + 1)
    xs = np.empty(ndof)
    xs[:nv] = xv
    xs[nv:] = (xv[eu][:, None] + t[None, :] * (xv[ev] - xv[eu])[:, None]).ravel()

    V = potential.values(xs)
    if np.isnan(V).any():
        raise MeshError(f"potential is NaN at x = {xs[np.isnan(V)][0]!r}")
    keep = np.abs(V) < potential.cutoff
    keep[graph.conducting_ids()] = False
    idx = np.flatnonzero(keep)

    # Stiffness entries in CSR order: rows ascending, columns ascending
    # within a row.  A vertex row holds its diagonal, then the nearest
    # interior node of each of its cells; interior row p holds
    # (p - 1, p, p + 1), where a cell's first interior node has the start
    # vertex in place of p - 1 and its last one reads (end vertex, p - 1, p).
    first = nv + np.arange(ne, dtype=np.int64) * M
    cell_ends = np.stack([eu, ev], axis=1).ravel()
    by_vertex = np.argsort(cell_ends, kind="stable")
    count = np.concatenate([np.bincount(cell_ends, minlength=nv) + 1, np.full(ne * M, 3)])
    start = np.concatenate([[0], np.cumsum(count)])
    at_diag = start[:-1].copy()
    at_diag[nv:] += 1
    at_diag[nv + M - 1::M] += 1
    col = np.empty(start[-1], dtype=np.int64)
    val = np.empty(start[-1])
    off = np.ones(start[nv], dtype=bool)
    off[at_diag[:nv]] = False
    col[:start[nv]][off] = np.stack([first, first + M - 1], axis=1).ravel()[by_vertex]
    val[:start[nv]][off] = -np.repeat(w, 2)[by_vertex]
    p = first[:, None] + np.arange(M)
    icol = col[start[nv]:].reshape(ne, M, 3)
    icol[:, :, 0] = p - 1
    icol[:, :, 1] = p
    icol[:, :, 2] = p + 1
    icol[:, 0, 0] = eu
    icol[:, -1] = np.stack([ev, p[:, -1] - 1, p[:, -1]], axis=1)
    val[start[nv]:].reshape(ne, 3 * M)[:] = -w[:, None]
    col[at_diag] = np.arange(ndof)
    val[at_diag] = diag

    if not keep.all():
        ok = keep[col] & np.repeat(keep, count)
        before = np.concatenate([[0], np.cumsum(ok)])
        count = (before[start[1:]] - before[start[:-1]])[keep]
        at_diag = before[at_diag[keep]]
        col, val = (np.cumsum(keep) - 1)[col[ok]], val[ok]
    n = len(idx)
    indptr = np.concatenate([[0], np.cumsum(count)])
    L = sparse.csr_matrix((val, col, indptr), shape=(n, n))
    massk = massv[idx]
    s = 1.0 / np.sqrt(massk)
    # group s_r s_c first: it is commutative, so (r, c) and (c, r) round alike
    hval = np.repeat(s, count)
    hval *= s[col]
    hval *= val
    hval[at_diag] += V[idx]
    H = sparse.csr_matrix((hval, L.indices.copy(), L.indptr.copy()), shape=(n, n))
    H.eliminate_zeros()       # a diagonal that cancels exactly is not stored
    return DiscretizedOperator(
        matrix=H,
        stiffness=L,
        mass=massk,
        xs=xs,
        kept=idx,
        mesh=M,
        potential=potential,
        graph=graph,
    )


@dataclass
class EigenResult:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None    # function values, columns; unit discrete L2
    residuals: np.ndarray
    info: dict

    def __len__(self) -> int:
        return len(self.eigenvalues)


_DENSE_LIMIT = 2000
_RESIDUAL_TOL = 1e-8


def _start_vector(dim: int) -> np.ndarray:
    # fixed, generic start vector keeps ARPACK runs bit-reproducible
    return 1.1 + np.cos(0.7 * np.arange(dim))


def _residuals(H, vals, vecs) -> np.ndarray:
    R = H @ vecs - vecs * vals[None, :]
    return np.linalg.norm(R, axis=0) / np.linalg.norm(vecs, axis=0)


def solve_lowest(op: DiscretizedOperator, count: int, mode: str = "auto",
                 keep_vectors: bool = True) -> EigenResult:
    """Solve for eigenvalues at the physical end of the spectrum.

    mode 'lowest' returns the `count` algebraically smallest eigenvalues.
    Above the dense limit it shift-inverts at sigma = -10, which reaches
    the bottom of the spectrum only when H >= sigma; the mass-scaled
    kinetic part is positive semidefinite, so H >= min V, and a potential
    whose minimum over the kept nodes is below sigma raises ValueError.
    mode 'nearest_zero' returns the
    `count` eigenvalues closest to zero, the meaningful window for the
    Coulomb potential: the discretized -1/(x-1/2)^2 is unbounded below
    as h -> 0, so its lowest eigenvalues are mesh artifacts far below
    zero.  'auto' picks 'nearest_zero' for Coulomb and 'lowest'
    otherwise.

    Raises ConvergenceError if any residual exceeds 1e-8.  Walls are
    eliminated in `discretize`, so no refinement follows the solve and
    info["polish_rounds"] is always 0.
    """
    dim = op.dimension
    if not 1 <= count <= dim:
        raise ValueError(f"count must be in 1..{dim}, got {count}")
    if mode == "auto":
        mode = "nearest_zero" if op.potential.kind == "coulomb" else "lowest"
    if mode not in ("lowest", "nearest_zero"):
        raise ValueError(f"unknown mode {mode!r}")

    H = op.matrix
    if dim <= _DENSE_LIMIT:
        vals, vecs = np.linalg.eigh(H.toarray())
        if mode == "lowest":
            sel = np.arange(count)
        else:
            sel = np.sort(np.argsort(np.abs(vals), kind="stable")[:count])
        vals, vecs = vals[sel], vecs[:, sel]
        info = {"method": "dense", "mode": mode, "dim": dim}
    else:
        sigma = -10.0 if mode == "lowest" else 0.0
        if mode == "lowest":
            v_min = float(op.potential.values(op.xs[op.kept]).min())
            if v_min < sigma:
                raise ValueError(
                    f"mode 'lowest' cannot reach the bottom of the spectrum: "
                    f"min V = {v_min:.6g} is below the shift sigma = {sigma:g} "
                    f"(dim={dim}); use mode='nearest_zero'")
        # the outermost Ritz pairs converge worst; solve a few extra and
        # keep only the requested window
        k_solve = min(dim - 1, count + max(3, count // 20))
        # ARPACK's default ncv = 2k + 1 is too small a Krylov space when a
        # degenerate cluster straddles the k_solve boundary
        ncv = min(dim, 3 * k_solve)
        try:
            vals, vecs = eigsh(H, k=k_solve, sigma=sigma, which="LM", ncv=ncv,
                               v0=_start_vector(dim), maxiter=5000)
        except Exception as exc:     # ARPACK failures surface with context
            raise ConvergenceError(f"eigensolve failed ({mode}, dim={dim}): {exc}")
        if mode == "lowest":
            sel = np.argsort(vals, kind="stable")[:count]
        else:
            sel = np.argsort(np.abs(vals), kind="stable")[:count]
        sel = sel[np.argsort(vals[sel], kind="stable")]
        vals, vecs = vals[sel], vecs[:, sel]
        info = {"method": "shift-invert", "mode": mode, "sigma": sigma, "dim": dim}

    res = _residuals(H, vals, vecs)
    if np.any(res > _RESIDUAL_TOL):
        raise ConvergenceError(
            f"residuals up to {res.max():.3e} exceed {_RESIDUAL_TOL:.0e} "
            f"({info['method']}, dim={dim})"
        )
    info["residual_max"] = float(res.max())
    info["polish_rounds"] = 0

    funcs = None
    if keep_vectors:
        funcs = vecs / np.sqrt(op.mass)[:, None]
        for i in range(funcs.shape[1]):
            jmax = int(np.argmax(np.abs(funcs[:, i])))
            if funcs[jmax, i] < 0:
                funcs[:, i] = -funcs[:, i]
    return EigenResult(vals, funcs, res, info)


def cluster(eigenvalues, rel_tol: float = 1e-2):
    """Greedy clustering of an ascending eigenvalue list into (mean, count).

    A value joins the current cluster when it lies within
    rel_tol * max(1, |running mean|) of the mean.  Returns a list of
    (mean, count) pairs in ascending order.
    """
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


def eigenfunction_trace(op: DiscretizedOperator, result: EigenResult, index: int):
    """Sample eigenfunction `index` over the node map for plotting.

    Returns (x, row label, value) tuples for every node, sorted by
    (x, row); values are in the unit discrete-L2 normalization, and
    eliminated nodes (walls, conducting vertices) read exactly 0.0.
    """
    if result.eigenvectors is None:
        raise ValueError("eigenvectors were not retained")
    if not 0 <= index < result.eigenvectors.shape[1]:
        raise IndexError(f"eigenfunction index {index} out of range")
    u = np.zeros(len(op.xs))
    u[op.kept] = result.eigenvectors[:, index]
    g = op.graph
    # node order: vertices, then the interior points of each cell in turn
    rows = np.concatenate([g.vertex_labels(), g.row_labels(np.repeat(g.row, op.mesh))])
    order = np.lexsort((rows, op.xs))
    return list(zip(op.xs[order].tolist(), rows[order].tolist(), u[order].tolist()))


def export_matrix(op: DiscretizedOperator, path: str):
    """Write the assembled matrix in coordinate text format (row col value)."""
    coo = op.matrix.tocoo()
    order = np.lexsort((coo.col, coo.row))
    with open(path, "w") as fh:
        fh.write(f"% symmetric {op.dimension} x {op.dimension}, nnz {coo.nnz}\n")
        for i in order:
            fh.write(f"{coo.row[i]} {coo.col[i]} {coo.data[i]:.17g}\n")
