"""Random-walk engines: exact distances to uniform and seeded path ensembles.

The walk steps to a uniformly random neighbor (no laziness, no self-loops),
both on graph vertices and on complex edges, where two edges neighbor each
other when they span a triangle.  One exact kernel, ``max_distances``, gives
the l2 distance of M^t e_j to uniform, largest over a set of start vertices j,
in closed form from a spectral measure of M = A/k: for one start (``hdx
walk``) the Krylov measure of ``spectral.start_measure``, for several (``hdx
verify-theorem``, every edge) the cached eigendecomposition.  Ensembles use
SplitMix64 so paths are reproducible from the seed alone.
Bipartite non-convergence is expected behavior and is surfaced by the
distances, not patched.
"""

from __future__ import annotations

from . import spectral  # read at call time: a path ensemble never executes it
from ._lazy import np
from .complexes import Complex2
from .errors import CapacityError, ParameterError, RegularityError, UndefinedTransitionError
from .graphs import Graph, edge_graph
from .rng import _GAMMA, derive_seeds, mix_array

#: Most cells, (steps + 1) per vertex or edge, a walk computes.
WALK_CELL_LIMIT = 2**21
#: Most edge visits, (steps + 1) per path, in a path ensemble.
WALK_VISIT_LIMIT = 2**27

# Paths advanced together by the ensemble engine.
_BLOCK = 2**16
# Eigenvalue powers, (steps in a block) x n, held at once by the distance kernel.
_POWER_CELLS = 2**16


def check_walk_capacity(width: int, steps: int, paths: int = 0) -> None:
    """Refuse a walk of (steps + 1) x width cells, or (steps + 1) * paths
    edge visits, above the limits, before allocating."""
    cells = (steps + 1) * width
    if cells > WALK_CELL_LIMIT:
        raise CapacityError(
            f"a walk table of {steps + 1} rows x {width} columns has {cells} cells; "
            f"limit is {WALK_CELL_LIMIT}"
        )
    visits = (steps + 1) * paths
    if visits > WALK_VISIT_LIMIT:
        raise CapacityError(
            f"{paths} paths of {steps} steps would make {visits} edge visits; "
            f"limit is {WALK_VISIT_LIMIT}"
        )


def _distance_blocks(values: np.ndarray, coefficients: np.ndarray, steps: int):
    """Yield ||M^t p_j - u|| for t = 0..steps, one matrix product per block of steps.

    Column j of ``coefficients`` is p_j - u in the orthonormal eigenbasis of
    the symmetric M, or the weights of a measure with the same moments
    (``spectral.start_measure``), so the squared distance is the sum over i of
    |values[i]|**(2t) * coefficients[i, j]**2: non-negative terms, whose sum
    over an eigenspace does not depend on its basis.  M is stochastic, so a
    |value| rounded above 1 is taken as 1 and its powers cannot grow.
    Consumes ``coefficients``: it is squared in place, so pass a fresh array.
    """
    magnitudes = np.minimum(np.abs(values), 1.0)
    weights = np.multiply(coefficients, coefficients, out=coefficients)
    block = max(1, min(steps + 1, _POWER_CELLS // values.size))
    table = magnitudes ** (2 * np.arange(block))[:, None]
    # One buffer for every block, so that two never live at once.
    scaled = np.empty_like(weights)
    for lo in range(0, steps + 1, block):
        np.multiply((magnitudes ** (2 * lo))[:, None], weights, out=scaled)
        yield np.sqrt(table[: steps + 1 - lo] @ scaled)


def max_distances(G: Graph, starts, steps: int, tol: float = 1e-9) -> tuple[float, ...]:
    """Largest distance ||M^t e_j - u|| to uniform over the start vertices j, for
    t = 0..steps, M = A/k, in closed form; with one start, that start's distances.

    One start reads the measure of ``spectral.start_measure`` (Lanczos, no
    n x n matrix); several read the eigendecomposition of M, cached per graph.
    A residual above ``tol`` raises ToleranceError.
    """
    if steps < 0:
        raise ParameterError(f"steps must be non-negative, got {steps}")
    starts = list(starts)
    if not starts:
        raise ParameterError("at least one start vertex is required")
    for j in starts:
        if not 0 <= j < G.n:
            raise ParameterError(f"start vertex {j} out of range for n={G.n}")
    check_walk_capacity(G.n, steps)
    if G.regular_k is None:
        raise RegularityError("exact evolution requires a regular graph")
    if G.regular_k == 0:
        raise UndefinedTransitionError("every vertex has zero degree; walk undefined")
    if len(starts) == 1:
        values, coefficients, _ = spectral.start_measure(G, starts[0], steps, tol)
        coefficients = coefficients[:, None]
    else:
        values, vectors, _ = spectral.eigensystem(G, tol)
        # Column j is the point mass at starts[j] minus uniform, in the eigenbasis.
        coefficients = vectors[starts].T - vectors.mean(axis=0)[:, None]
    blocks = _distance_blocks(values, coefficients, steps)
    return tuple(d for block in blocks for d in block.max(axis=1).tolist())


def _padded_neighbors(adjacency: tuple[tuple[int, ...], ...]):
    """Neighbor lists as one (n, max degree) array, the degrees, and the largest
    accepted 64-bit draw per vertex, ``(2**64 // d) * d - 1`` (below 2**64
    also at d = 1)."""
    degrees = [len(nbrs) for nbrs in adjacency]
    table = np.zeros((len(adjacency), max(degrees)), dtype=np.intp)
    for v, nbrs in enumerate(adjacency):
        table[v, : len(nbrs)] = nbrs
    accept_max = [(2**64 // d) * d - 1 if d else 0 for d in degrees]
    return table, np.array(degrees, dtype=np.uint64), np.array(accept_max, dtype=np.uint64)


def high_order_step_counts(
    X: Complex2, e0: int, steps: int, paths: int, seed: int
) -> tuple[tuple[int, ...], ...]:
    """Occupancy counts per step over ``paths`` independent seeded walks.

    Path i draws from the SplitMix64 stream seeded with ``derive_seeds(seed, i,
    i + 1)``, so the ensemble is reproducible and independent of evaluation
    order.  All paths of a block advance together on uint64 state arrays; a
    draw above the largest multiple of the degree is redrawn from the same
    path's stream.  The scalar references in ``tests/scalar_walk.py`` walk one
    path at a time with ``derive_seed`` and a rejection-sampled ``randrange``.
    Blocks have a fixed size and their counts add exactly, so memory does not
    grow with ``paths``.
    """
    if paths < 0:
        raise ParameterError(f"path count must be non-negative, got {paths}")
    if steps < 0:
        raise ParameterError(f"steps must be non-negative, got {steps}")
    if not (0 <= e0 < X.n_edges):
        raise ParameterError(f"start edge {e0} out of range")
    check_walk_capacity(X.n_edges, steps, paths)
    counts = np.zeros((steps + 1, X.n_edges), dtype=np.int64)
    counts[0, e0] = paths
    adjacency = edge_graph(X).adjacency
    if steps and paths and not adjacency[e0]:
        # Every other edge a walk reaches has the edge it came from as a neighbor.
        raise UndefinedTransitionError(f"edge {e0} belongs to no triangle; walk undefined")
    table, degree, accept_max = _padded_neighbors(adjacency)
    gamma = np.uint64(_GAMMA)
    for lo in range(0, paths if steps else 0, _BLOCK):
        state = derive_seeds(seed, lo, min(lo + _BLOCK, paths))
        e = np.full(state.size, e0, dtype=np.intp)
        for row in counts[1:]:
            state += gamma
            draw = mix_array(state.copy())
            high = accept_max[e]
            redo = np.flatnonzero(draw > high)
            while redo.size:
                state[redo] += gamma
                draw[redo] = mix_array(state[redo])
                redo = redo[draw[redo] > high[redo]]
            e = table[e, draw % degree[e]]
            row += np.bincount(e, minlength=X.n_edges)
    return tuple(map(tuple, counts.tolist()))
