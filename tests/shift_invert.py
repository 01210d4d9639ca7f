"""ARPACK shift-invert eigenvalues of an assembled H: the reference the
row-flip and closed-form spectra are checked against above the size where
a dense solve is cheap."""

import numpy as np
from scipy.sparse.linalg import eigsh


def shift_invert_eigenvalues(op, count, mode):
    """The `count` eigenvalues of op.matrix lowest ('lowest', shift -10,
    so only for H >= -10) or nearest zero ('nearest_zero'), ascending."""
    dim = op.dimension
    sigma = -10.0 if mode == "lowest" else 0.0
    # a few extra Ritz pairs, since the outermost converge worst, and
    # ncv = 3k, since a degenerate cluster can straddle the k-th pair
    k = min(dim - 1, count + max(3, count // 20))
    vals, _ = eigsh(op.matrix, k=k, sigma=sigma, which="LM", ncv=min(dim, 3 * k),
                    v0=1.1 + np.cos(0.7 * np.arange(dim)), maxiter=5000)
    key = vals if mode == "lowest" else np.abs(vals)
    return np.sort(vals[np.argsort(key, kind="stable")[:count]])
