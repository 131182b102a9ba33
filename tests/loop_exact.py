"""Loop reference for ``walk.max_distances`` and the dense matrices behind it.

The matrices are filled one neighbor at a time, and the walk propagates the
distribution one matrix-vector product per step, then takes ``np.linalg.norm``
of each step's difference from uniform; ``propagated_distances`` propagates
over the neighbor lists instead, for graphs too large for a dense matrix.
The library computes the same distances in closed form from a spectral
measure; tests require its distances to agree with these within a stated
tolerance.
"""

import numpy as np

from hdxwalk.errors import ParameterError, RegularityError, UndefinedTransitionError


def loop_adjacency_matrix(G):
    A = np.zeros((G.n, G.n))
    for u, nbrs in enumerate(G.adjacency):
        for v in nbrs:
            A[u, v] = 1.0
    return A


def loop_transition_matrix(G):
    """Uniform-neighbor transition matrix of a regular graph."""
    k = G.regular_k
    if k is None:
        raise RegularityError("exact evolution requires a regular graph")
    if k == 0:
        raise UndefinedTransitionError("every vertex has zero degree; walk undefined")
    M = np.zeros((G.n, G.n))
    for u, nbrs in enumerate(G.adjacency):
        for v in nbrs:
            M[v, u] = 1.0 / k
    return M


def loop_evolve_exact(G, start, steps, rate_bound=None, *, slack=1e-9):
    """(distributions, distances, bound_ok) of the point mass at vertex ``start``
    evolved for the given number of steps."""
    if steps < 0:
        raise ParameterError(f"steps must be non-negative, got {steps}")
    M = loop_transition_matrix(G)
    u = np.full(G.n, 1.0 / G.n)
    p = np.zeros(G.n)
    p[start] = 1.0
    dists = [p]
    for _ in range(steps):
        p = M @ p
        dists.append(p)
    distributions = tuple(tuple(float(x) for x in p) for p in dists)
    distances = tuple(float(np.linalg.norm(p - u)) for p in dists)
    bound_ok = None
    if rate_bound is not None:
        bound_ok = tuple(d <= rate_bound**i + slack for i, d in enumerate(distances))
    return distributions, distances, bound_ok


def loop_max_distances(G, steps):
    """Largest distance to uniform over every point-mass start, per step, by propagating
    all starts at once: column j of P is the distribution started at vertex j."""
    M = loop_transition_matrix(G)
    u = np.full(G.n, 1.0 / G.n)
    P = np.eye(G.n)
    max_distances = []
    for _ in range(steps + 1):
        max_distances.append(float(np.linalg.norm(P - u[:, None], axis=0).max()))
        P = M @ P
    return tuple(max_distances)


def propagated_distances(G, start, steps):
    """Distances to uniform of the point mass at vertex ``start`` for 0..steps steps of
    the walk on a regular graph, each step one gather over the (n, k) neighbor lists."""
    table = np.array(G.adjacency, dtype=np.intp)
    p = np.zeros(G.n)
    p[start] = 1.0
    distances = []
    for _ in range(steps + 1):
        distances.append(float(np.linalg.norm(p - 1.0 / G.n)))
        p = p[table].sum(axis=1) / table.shape[1]
    return tuple(distances)
