"""The eigenpair selection `laakso.solver.solve_row_flip` replaced: a
values pass over every segment, then the `count` lowest copies by the
computed values.  The reference its Sturm-count selection must agree
with, up to the order of tied copies."""

import numpy as np
from scipy.linalg import eigh_tridiagonal

from laakso.solver import EigenResult, _relative_norms, _segment_eigh, _window


def count_negative(diag, off, starts, stops) -> np.ndarray:
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


def segment_values(d, e, lo, hi) -> np.ndarray:
    """Eigenvalues lo..hi-1 of the tridiagonal (d, e): dstemr by index,
    values only, as the values pass called it."""
    return eigh_tridiagonal(d, e, eigvals_only=True, select="i", select_range=(lo, hi - 1),
                            lapack_driver="stemr")


def solve_row_flip(op, count: int, mode: str = "auto") -> EigenResult:
    """`solve_row_flip` with the two-pass selection: each segment's
    candidate window by values, the copies sorted by value (ties in
    segment order), then the vectors of the picked ones."""
    mode = _window(op, count, mode)
    starts, stops, weights = op.starts, op.stops, op.weights
    # An eigenvalue of a segment with w copies is picked only if fewer
    # than count / w of the segment's eigenvalues come before it; one more
    # for nearest_zero, where lambda and -lambda tie.
    k = np.minimum(stops - starts, -(-count // weights) + 1)
    if mode == "lowest":
        lo = np.zeros_like(k)
    else:
        neg = count_negative(op.diag, op.off, starts, stops)
        lo = np.maximum(neg - k, 0)
        k = np.minimum(stops - starts, neg + k) - lo
    memo = {}

    def segment_eigh(i, lo_i, hi_i, vectors):
        a, b = starts[i], stops[i]
        d, e = op.diag[a:b], op.off[a:b - 1]
        key = (d.tobytes(), e.tobytes(), lo_i, hi_i, vectors)
        if key not in memo:
            memo[key] = (_segment_eigh if vectors else segment_values)(d, e, lo_i, hi_i)
        return memo[key]

    vals = np.concatenate([segment_eigh(i, lo[i], lo[i] + k[i], False) for i in range(len(k))])
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
    for i in np.flatnonzero(np.bincount(seg[pick])):
        cols = np.flatnonzero(seg[pick] == i)
        want = idx[pick[cols]]
        first = int(want.min())
        lam, g = segment_eigh(i, first, int(want.max()) + 1, True)
        lam, g = lam[want - first], g[:, want - first]
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
    return EigenResult(out[o], funcs[:, o], res[o], info, characters[o])
