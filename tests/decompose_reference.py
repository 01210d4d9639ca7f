"""The shape decomposition `laakso.graphs._decompose` replaced: the
reference its sort-lean version must equal, array for array and row for
row, on every graph it decomposes."""

import numpy as np

from laakso.graphs import GraphBuildError, QuantumGraph


def decompose(graph: QuantumGraph) -> dict[str, np.ndarray]:
    """The shapes of a level n >= 1 graph, as edge ids per kind (vee, loop,
    cross), one ascending row per shape.

    Parallel cells give loops, boundary legs give vees, and twin degree-4
    nodes with a common 4-corner neighborhood give crosses.  It reads only
    the cell endpoints `u`, `v` and the vertex columns, and raises
    GraphBuildError unless the shapes partition the cells.  Each kind's
    rows are in the id order of the apex, the left pair end or the least
    corner; vertex ids run by column, then by row class, so that is the
    order of (first column, edge ids).
    """
    u, v, col = graph.u, graph.v, graph.vertex_column
    nv, ne = len(col), len(u)
    deg = graph.degrees()
    used = np.zeros(ne, dtype=bool)

    # Vees: legs at degree-1 vertices, paired by apex and boundary side.
    legs = np.flatnonzero((deg[u] == 1) | (deg[v] == 1))
    leaf_is_u = deg[u[legs]] == 1
    apex = np.where(leaf_is_u, v[legs], u[legs])
    side = col[np.where(leaf_is_u, u[legs], v[legs])]
    keys, inverse, counts = np.unique(apex * (graph.columns + 1) + side,
                                      return_inverse=True, return_counts=True)
    if np.any(counts != 2):
        bad = np.flatnonzero(counts != 2)[0]
        raise GraphBuildError(f"vertex {keys[bad] // (graph.columns + 1)} has "
                              f"{counts[bad]} boundary legs")
    vees = legs[np.argsort(inverse, kind="stable")].reshape(-1, 2)
    used[legs] = True

    # Loops: exactly two parallel cells between the same vertex pair.
    keys, inverse, counts = np.unique(np.minimum(u, v) * nv + np.maximum(u, v),
                                      return_inverse=True, return_counts=True)
    clash = (counts > 2) | ((counts == 2) & (np.bincount(inverse[used], minlength=len(keys)) > 0))
    if clash.any():
        pair = divmod(int(keys[np.argmax(clash)]), nv)
        raise GraphBuildError(f"unexpected multi-edge between {pair}")
    multi = np.flatnonzero(counts[inverse] == 2)
    loops = multi[np.argsort(inverse[multi], kind="stable")].reshape(-1, 2)
    used[multi] = True

    # Crosses: twin vertices sharing the same four remaining neighbors.
    # Both orientations of a K_{2,4} can look like twins when adjacent
    # cross centers carry the same glued level, so candidates are tiled
    # by exact cover: rounds commit every candidate that is the only live
    # owner of an uncovered cell and drop the live candidates it overlaps.
    rest = np.flatnonzero(~used)
    end = np.concatenate([u[rest], v[rest]])
    order = np.argsort(end, kind="stable")
    end = end[order]
    other = np.concatenate([v[rest], u[rest]])[order]
    incident = np.concatenate([rest, rest])[order]
    rdeg = np.bincount(end, minlength=nv)
    four = np.flatnonzero(rdeg == 4)
    slots = (np.cumsum(rdeg) - rdeg)[four][:, None] + np.arange(4)
    nbrs = np.sort(other[slots], axis=1)
    distinct = np.all(nbrs[:, 1:] != nbrs[:, :-1], axis=1)
    four, nbrs, slots = four[distinct], nbrs[distinct], slots[distinct]
    order = np.lexsort(nbrs.T[::-1])
    four, nbrs, slots = four[order], nbrs[order], slots[order]
    new = np.ones(len(four), dtype=bool)
    new[1:] = np.any(nbrs[1:] != nbrs[:-1], axis=1)
    first = np.flatnonzero(new)
    sizes = np.diff(np.append(first, len(four)))
    if np.any(sizes > 2):
        k = np.argmax(sizes > 2)
        raise GraphBuildError(f"{sizes[k]} nodes share corners {set(nbrs[first[k]].tolist())}")
    first = first[sizes == 2]       # a lone one is a corner between two crosses
    cand = np.sort(np.concatenate([incident[slots[first]],
                                   incident[slots[first + 1]]], axis=1), axis=1)
    if np.any(cand[:, 1:] == cand[:, :-1]):
        raise GraphBuildError("cross candidate with wrong cell count")

    cells, local = np.unique(cand, return_inverse=True)
    local = local.reshape(cand.shape)
    taken = np.zeros(len(cells), dtype=bool)
    alive = np.ones(len(cand), dtype=bool)
    committed = np.zeros(len(cand), dtype=bool)
    while True:
        owners = np.bincount(local[alive].ravel(), minlength=len(cells))
        forced = alive & np.any(owners[local] == 1, axis=1)
        if not forced.any():
            break
        cover = local[forced].ravel()
        if np.bincount(cover).max() > 1:
            raise GraphBuildError("conflicting cross tiling")
        taken[cover] = True
        committed |= forced
        alive &= ~np.any(taken[local], axis=1)
    used[cells[taken]] = True
    if not used.all():
        raise GraphBuildError(
            f"decomposition covered {int(used.sum())} of {ne} cells"
        )

    return {"vee": vees, "loop": loops, "cross": cand[committed]}
