"""Finite simple undirected graphs, the underlying graph, and the edge-graph.

The underlying graph of a complex keeps its vertices and edges and forgets
the triangles.  The edge-graph has one vertex per edge of the complex, with
two of them adjacent exactly when the union of the corresponding edges is a
triangle of the complex; for an edge-regular complex with k1 triangles per
edge it is 2*k1-regular.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Iterable, Optional

from ._record import Record
from .complexes import Complex2
from .errors import ParameterError


class Graph(Record):
    """Simple undirected graph with sorted neighbor lists."""

    n: int
    adjacency: tuple[tuple[int, ...], ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 0:
            raise ParameterError(f"vertex count must be non-negative, got {n}")
        nbrs: list[set[int]] = [set() for _ in range(n)]
        for (u, v) in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ParameterError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ParameterError(f"self-loop at vertex {u} not allowed")
            nbrs[u].add(v)
            nbrs[v].add(u)
        return cls(n, tuple(tuple(sorted(s)) for s in nbrs))

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.adjacency)

    @cached_property
    def regular_k(self) -> Optional[int]:
        if self.n and len(set(self.degrees)) == 1:
            return self.degrees[0]
        return None

    @cached_property
    def neighbor_masks(self) -> tuple[int, ...]:
        masks = []
        for nbrs in self.adjacency:
            m = 0
            for v in nbrs:
                m |= 1 << v
            masks.append(m)
        return tuple(masks)


@lru_cache(maxsize=128)
def underlying_graph(X: Complex2) -> Graph:
    """The 1-skeleton: same vertices and edges, triangles ignored."""
    return Graph.from_edges(X.n_vertices, X.edges)


@lru_cache(maxsize=128)
def edge_graph(X: Complex2) -> Graph:
    """Graph on the edge ids of X (vertex i is edge i); adjacent iff the union is a triangle."""
    pairs = []
    for (a, b, c) in X.triangle_edge_ids:
        pairs.extend(((a, b), (a, c), (b, c)))
    return Graph.from_edges(X.n_edges, pairs)
