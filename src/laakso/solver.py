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
    rows: list[str]                    # row label per node
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
    nv, ne, M = len(graph.vertices), len(graph.edges), mesh
    lengths = np.array([float(e.length) for e in graph.edges])
    if np.any(lengths <= 0):
        raise MeshError("degenerate edge length")
    h = lengths / (M + 1)

    eu = np.array([e.u for e in graph.edges], dtype=np.int64)
    ev = np.array([e.v for e in graph.edges], dtype=np.int64)
    interior = nv + np.arange(ne, dtype=np.int64)[:, None] * M + np.arange(M)[None, :]
    left = np.hstack([eu[:, None], interior])           # (ne, M+1) link tails
    right = np.hstack([interior, ev[:, None]])          # (ne, M+1) link heads
    w = np.repeat(1.0 / h, M + 1)

    ndof = nv + ne * M
    rows_ = left.ravel()
    cols_ = right.ravel()
    diag = np.zeros(ndof)
    np.add.at(diag, rows_, w)
    np.add.at(diag, cols_, w)
    L = sparse.coo_matrix(
        (np.concatenate([-w, -w, diag]),
         (np.concatenate([rows_, cols_, np.arange(ndof)]),
          np.concatenate([cols_, rows_, np.arange(ndof)]))),
        shape=(ndof, ndof),
    ).tocsr()

    massv = np.zeros(ndof)
    np.add.at(massv, eu, h / 2)
    np.add.at(massv, ev, h / 2)
    massv[nv:] = np.repeat(h, M)

    xv = np.array([float(v.x) for v in graph.vertices])
    t = (np.arange(M) + 1.0) / (M + 1)
    xs = np.empty(ndof)
    xs[:nv] = xv
    xs[nv:] = (xv[eu][:, None] + t[None, :] * (xv[ev] - xv[eu])[:, None]).ravel()

    labels = [v.row_class for v in graph.vertices]
    for e in graph.edges:
        labels.extend([e.row] * M)

    V = potential.values(xs)
    if np.isnan(V).any():
        raise MeshError(f"potential is NaN at x = {xs[np.isnan(V)][0]!r}")
    keep = np.abs(V) < potential.cutoff
    keep[list(graph.conducting_ids())] = False
    idx = np.flatnonzero(keep)
    L = L[idx][:, idx].tocoo()
    massk = massv[idx]

    s = 1.0 / np.sqrt(massk)
    # group s_r s_c first: it is commutative, so (r, c) and (c, r) round alike
    hdata = L.data * (s[L.row] * s[L.col])
    H = sparse.coo_matrix((hdata, (L.row, L.col)), shape=L.shape).tocsr()
    H = H + sparse.diags(V[idx])

    return DiscretizedOperator(
        matrix=H.tocsr(),
        stiffness=L.tocsr(),
        mass=massk,
        xs=xs,
        rows=labels,
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

    mode 'lowest' returns the `count` algebraically smallest eigenvalues
    (valid for potentials bounded below by 0, where shift-invert at a
    negative shift reaches the bottom).  mode 'nearest_zero' returns the
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
    trace = list(zip(op.xs.tolist(), op.rows, u.tolist()))
    trace.sort(key=lambda rec: (rec[0], rec[1]))
    return trace


def export_matrix(op: DiscretizedOperator, path: str):
    """Write the assembled matrix in coordinate text format (row col value)."""
    coo = op.matrix.tocoo()
    order = np.lexsort((coo.col, coo.row))
    with open(path, "w") as fh:
        fh.write(f"% symmetric {op.dimension} x {op.dimension}, nnz {coo.nnz}\n")
        for i in order:
            fh.write(f"{coo.row[i]} {coo.col[i]} {coo.data[i]:.17g}\n")
