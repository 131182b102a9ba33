"""Scalar reference for ``walk.high_order_step_counts``.

One path at a time, one ``SplitMix64.randrange`` call per step, with the
neighbor table built straight from the triangle incidences.  The library
advances all paths of a block together on uint64 arrays; tests require its
counts to equal these.
"""

from hdxwalk.errors import ParameterError, UndefinedTransitionError
from hdxwalk.rng import SplitMix64, derive_seed


def edge_neighbor_table(X):
    """Sorted neighbor edge ids per edge, from the triangle incidences of X."""
    nbrs = [set() for _ in range(X.n_edges)]
    for (a, b, c) in X.triangle_edge_ids:
        nbrs[a].update((b, c))
        nbrs[b].update((a, c))
        nbrs[c].update((a, b))
    return tuple(tuple(sorted(s)) for s in nbrs)


def scalar_step_counts(X, e0, steps, paths, seed):
    if paths < 0:
        raise ParameterError(f"path count must be non-negative, got {paths}")
    if not (0 <= e0 < X.n_edges):
        raise ParameterError(f"start edge {e0} out of range")
    table = edge_neighbor_table(X)
    counts = [[0] * X.n_edges for _ in range(steps + 1)]
    for i in range(paths):
        rng = SplitMix64(derive_seed(seed, i))
        e = e0
        counts[0][e] += 1
        for t in range(1, steps + 1):
            nbrs = table[e]
            if not nbrs:
                raise UndefinedTransitionError(
                    f"edge {e} belongs to no triangle; walk undefined"
                )
            e = nbrs[rng.randrange(len(nbrs))]
            counts[t][e] += 1
    return tuple(tuple(row) for row in counts)
