"""Random-walk engines: exact distribution evolution and seeded simulation.

The walk steps to a uniformly random neighbor (no laziness, no self-loops),
both on graph vertices and on complex edges, where two edges neighbor each
other when they span a triangle.  Exact evolution tracks the full probability
vector and its l2 distance to uniform; simulation uses SplitMix64 so paths
are reproducible from the seed alone.  Bipartite non-convergence is expected
behavior and is surfaced by the distances, not patched.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Optional

from ._lazy import np
from ._record import Record
from .complexes import Complex2
from .errors import (
    CapacityError,
    DomainError,
    ParameterError,
    RegularityError,
    UndefinedTransitionError,
)
from .expansion import ExpansionCertificate, gap_lambda2, mixing_rate_bound
from .graphs import Graph, edge_graph, underlying_graph
from .rng import _GAMMA, SplitMix64, derive_seeds, mix_array
from .spectral import adjacency_matrix, normalized_spectrum

#: Most cells, (steps + 1) per vertex or edge, in a walk's output table.
WALK_CELL_LIMIT = 2**21
#: Most edge visits, (steps + 1) per path, in a path ensemble.
WALK_VISIT_LIMIT = 2**27

# Paths advanced together by the ensemble engine.
_BLOCK = 2**16


class Distribution(Record):
    """Probability vector over the vertices of a bound graph."""

    probabilities: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "probabilities", tuple(float(p) for p in self.probabilities))
        if not self.probabilities:
            raise ParameterError("distribution must have at least one entry")
        if min(self.probabilities) < -1e-15:
            raise ParameterError("distribution entries must be non-negative")
        total = sum(self.probabilities)
        if abs(total - 1.0) > 1e-12:
            raise ParameterError(f"distribution must sum to 1, got {total!r}")

    @classmethod
    def point_mass(cls, n: int, index: int) -> "Distribution":
        if not (0 <= index < n):
            raise ParameterError(f"point mass index {index} out of range for n={n}")
        return cls(tuple(1.0 if i == index else 0.0 for i in range(n)))

    @classmethod
    def uniform(cls, n: int) -> "Distribution":
        if n < 1:
            raise ParameterError("uniform distribution needs at least one entry")
        return cls((1.0 / n,) * n)


class WalkTrace(Record):
    """Distribution evolution with per-step l2 distances to uniform.

    ``table`` is read-only, one row per step: row t is the distribution
    after t steps.  ``distributions`` gives the same rows as tuples of floats,
    built on first read.  The repr and the hash leave the table out, and
    equality compares it by value.
    """

    table: np.ndarray
    distances: tuple[float, ...]

    def __eq__(self, other):
        if not isinstance(other, WalkTrace):
            return NotImplemented
        return self.distances == other.distances and np.array_equal(self.table, other.table)

    def __hash__(self):
        return hash(self.distances)

    def __repr__(self):
        return f"{self.__class__.__qualname__}(distances={self.distances!r})"

    @cached_property
    def distributions(self) -> tuple[tuple[float, ...], ...]:
        return tuple(map(tuple, self.table.tolist()))


def transition_matrix(G: Graph) -> np.ndarray:
    """Uniform-neighbor transition matrix of a regular graph: A / k (A is symmetric)."""
    k = G.regular_k
    if k is None:
        raise RegularityError("exact evolution requires a regular graph")
    if k == 0:
        raise UndefinedTransitionError("every vertex has zero degree; walk undefined")
    M = adjacency_matrix(G)
    M /= k
    return M


def check_walk_capacity(width: int, steps: int, paths: int = 0) -> None:
    """Refuse a walk table of (steps + 1) x width cells, or (steps + 1) * paths
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


def evolve_exact(G: Graph, p0: Distribution, steps: int) -> WalkTrace:
    """Evolve p0 for the given number of steps, recording distances to uniform.

    Row t + 1 of one preallocated (steps + 1, n) table is M times row t; each
    distance is ``sqrt(diff.dot(diff))`` for diff = row - uniform, the form
    ``np.linalg.norm`` takes for a 1-D float64 vector.
    """
    if steps < 0:
        raise ParameterError(f"steps must be non-negative, got {steps}")
    if len(p0.probabilities) != G.n:
        raise ParameterError(
            f"distribution has {len(p0.probabilities)} entries for a graph on {G.n} vertices"
        )
    check_walk_capacity(G.n, steps)
    M = transition_matrix(G)
    u = np.full(G.n, 1.0 / G.n)
    diff = np.empty(G.n)
    P = np.empty((steps + 1, G.n))
    P[0] = p0.probabilities
    for t in range(steps):
        np.matmul(M, P[t], out=P[t + 1])
    P.flags.writeable = False
    distances = []
    for row in P:
        np.subtract(row, u, out=diff)
        distances.append(math.sqrt(diff.dot(diff)))
    return WalkTrace(P, tuple(distances))


def high_order_neighbors(X: Complex2, e: int) -> tuple[int, ...]:
    """Edges sharing a triangle with edge e, as sorted edge ids."""
    if not (0 <= e < X.n_edges):
        raise ParameterError(f"edge index {e} out of range")
    return edge_graph(X).adjacency[e]


def simulate(G: Graph, v0: int, steps: int, seed: int) -> tuple[int, ...]:
    """Seeded uniform-neighbor walk on graph vertices."""
    if not (0 <= v0 < G.n):
        raise ParameterError(f"start vertex {v0} out of range")
    if steps < 0:
        raise ParameterError(f"steps must be non-negative, got {steps}")
    rng = SplitMix64(seed)
    path = [v0]
    v = v0
    for _ in range(steps):
        nbrs = G.adjacency[v]
        if not nbrs:
            raise UndefinedTransitionError(f"vertex {v} has no neighbors")
        v = nbrs[rng.randrange(len(nbrs))]
        path.append(v)
    return tuple(path)


def high_order_simulate(X: Complex2, e0: int, steps: int, seed: int) -> tuple[int, ...]:
    """Seeded walk on the edges of X; each step is uniform over triangle-neighbors."""
    if not (0 <= e0 < X.n_edges):
        raise ParameterError(f"start edge {e0} out of range")
    if steps < 0:
        raise ParameterError(f"steps must be non-negative, got {steps}")
    g1 = edge_graph(X)
    if steps and not g1.adjacency[e0]:
        raise UndefinedTransitionError(f"edge {e0} belongs to no triangle; walk undefined")
    return simulate(g1, e0, steps, seed)


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

    Path i draws from SplitMix64(derive_seed(seed, i)), so the ensemble is
    reproducible and independent of evaluation order.  All paths of a block
    advance together on uint64 state arrays; a draw above the largest
    multiple of the degree is redrawn from the same path's stream, exactly as
    ``SplitMix64.randrange`` does.  Blocks have a fixed size and their counts
    add exactly, so memory does not grow with ``paths``.
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


class RapidMixingReport(Record):
    """Worst-start decay of the edge walk against the certified rate bound."""

    applicable: bool
    reason: Optional[str]
    epsilon: Optional[Fraction]
    lambda2: Optional[float]
    rate_bound: Optional[float]
    edge_graph_lambda: Optional[float]
    max_distances: tuple[float, ...]
    bound_ok: tuple[bool, ...]

    @property
    def passes(self) -> Optional[bool]:
        if not self.applicable:
            return None
        return all(self.bound_ok)


def rapid_mixing_audit(
    X: Complex2,
    certificate: ExpansionCertificate,
    steps: int,
    *,
    slack: float = 1e-9,
    tol: float = 1e-9,
) -> RapidMixingReport:
    """Exact edge-walk evolution from every point-mass start vs. the rate bound.

    Hypothesis failures (irregular complex, lambda2 >= 1/2, no triangles)
    yield a not-applicable report rather than a failure.  Negative or
    oversized ``steps`` raise first, whatever the complex.
    """
    from .complexes import degree_profile

    if steps < 0:
        raise ParameterError(f"steps must be non-negative, got {steps}")
    check_walk_capacity(X.n_edges, steps)

    def not_applicable(reason: str) -> RapidMixingReport:
        return RapidMixingReport(False, reason, None, None, None, None, (), ())

    profile = degree_profile(X)
    if profile.regular is None:
        return not_applicable("complex is not (k0, k1)-regular")
    if profile.regular[1] == 0:
        return not_applicable("no triangles; the edge walk has no moves")
    try:
        lambda2 = gap_lambda2(underlying_graph(X), "rate bound requires", tol)
    except DomainError as exc:
        return not_applicable(str(exc))
    rate = mixing_rate_bound(certificate.epsilon_cosystolic, lambda2)
    g1 = edge_graph(X)
    M = transition_matrix(g1)
    u = np.full(g1.n, 1.0 / g1.n)
    P = np.eye(g1.n)  # column j = point mass at edge j
    max_distances = []
    for _ in range(steps + 1):
        max_distances.append(float(np.linalg.norm(P - u[:, None], axis=0).max()))
        P = M @ P
    bound_ok = tuple(d <= rate**i + slack for i, d in enumerate(max_distances))
    g1_lambda = normalized_spectrum(g1, tol).lambda_max_nontrivial
    return RapidMixingReport(
        applicable=True,
        reason=None,
        epsilon=certificate.epsilon_cosystolic,
        lambda2=lambda2,
        rate_bound=rate,
        edge_graph_lambda=g1_lambda,
        max_distances=tuple(max_distances),
        bound_ok=bound_ok,
    )
