"""Scalar references for ``walk.high_order_step_counts``, and seeded single paths.

One path at a time, seeded by ``derive_seed``, one ``randrange`` draw per
step, with the neighbor table built straight from the triangle incidences.
The library advances all paths of a block together on uint64 arrays, seeded
by ``rng.derive_seeds``; tests require its seeds to equal ``derive_seed``'s
and its counts to equal these.
"""

from hdxwalk.errors import ParameterError, UndefinedTransitionError
from hdxwalk.graphs import Graph
from hdxwalk.rng import _GAMMA, _MASK64, SplitMix64, _mix


def derive_seed(seed, index):
    """Seed of substream ``index``: output ``index`` (from 0) of the root stream SplitMix64(seed)."""
    return _mix((seed + (index + 1) * _GAMMA) & _MASK64)


def randrange(rng, n):
    """Uniform integer in [0, n) from the SplitMix64 stream rng, unbiased: a draw
    at or above the largest multiple of n below 2**64 is redrawn."""
    if n <= 0:
        raise ValueError("randrange bound must be positive")
    limit = ((1 << 64) // n) * n
    while True:
        u = rng.next_u64()
        if u < limit:
            return u % n


def edge_neighbor_table(X):
    """Sorted neighbor edge ids per edge, from the triangle incidences of X."""
    nbrs = [set() for _ in range(X.n_edges)]
    for (a, b, c) in X.triangle_edge_ids:
        nbrs[a].update((b, c))
        nbrs[b].update((a, c))
        nbrs[c].update((a, b))
    return tuple(tuple(sorted(s)) for s in nbrs)


def simulate(G, v0, steps, seed):
    """Seeded uniform-neighbor walk on the vertices of G."""
    if not (0 <= v0 < G.n):
        raise ParameterError(f"start vertex {v0} out of range")
    if steps < 0:
        raise ParameterError(f"steps must be non-negative, got {steps}")
    rng, path = SplitMix64(seed), [v0]
    for _ in range(steps):
        nbrs = G.adjacency[path[-1]]
        if not nbrs:
            raise UndefinedTransitionError(f"vertex {path[-1]} has no neighbors")
        path.append(nbrs[randrange(rng, len(nbrs))])
    return tuple(path)


def _edge_walk(X, e0, steps):
    """The graph the edge walk of X moves on, once its start edge can move."""
    if not (0 <= e0 < X.n_edges):
        raise ParameterError(f"start edge {e0} out of range")
    table = edge_neighbor_table(X)
    if steps and not table[e0]:
        # Every other edge a walk reaches has the edge it came from as a neighbor.
        raise UndefinedTransitionError(f"edge {e0} belongs to no triangle; walk undefined")
    return Graph(X.n_edges, table)


def high_order_simulate(X, e0, steps, seed):
    """Seeded walk on the edges of X; each step is uniform over triangle-neighbors."""
    return simulate(_edge_walk(X, e0, steps), e0, steps, seed)


def scalar_step_counts(X, e0, steps, paths, seed):
    if paths < 0:
        raise ParameterError(f"path count must be non-negative, got {paths}")
    G = _edge_walk(X, e0, steps if paths else 0)
    counts = [[0] * X.n_edges for _ in range(steps + 1)]
    for i in range(paths):
        for t, e in enumerate(simulate(G, e0, steps, derive_seed(seed, i))):
            counts[t][e] += 1
    return tuple(tuple(row) for row in counts)
