"""Finite simple undirected graphs, the underlying graph, and the edge-graph.

The underlying graph of a complex keeps its vertices and edges and forgets
the triangles.  The edge-graph has one vertex per edge of the complex, with
two of them adjacent exactly when the union of the corresponding edges is a
triangle of the complex; for an edge-regular complex with k1 triangles per
edge it is 2*k1-regular.  Both graphs are built once per complex and kept on it,
so a graph lives as long as its complex, or longer, and never keeps it alive.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Optional

from ._record import Record
from .complexes import Complex2, _mask, kept_on_complex
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
        return tuple(map(_mask, self.adjacency))

    def cut(self, s: int) -> int:
        """|E(S, V - S)| for the vertex set S with bit mask s."""
        return sum((m & ~s).bit_count() for v, m in enumerate(self.neighbor_masks) if s >> v & 1)


@kept_on_complex
def underlying_graph(X: Complex2) -> Graph:
    """The 1-skeleton: same vertices and edges, triangles ignored."""
    return Graph.from_edges(X.n_vertices, X.edges)


@kept_on_complex
def edge_graph(X: Complex2) -> Graph:
    """Graph on the edge ids of X (vertex i is edge i); adjacent iff the union is a triangle.

    Two edges lie in at most one common triangle, so the lists gathered per
    triangle hold no repeats.
    """
    nbrs: list[list[int]] = [[] for _ in range(X.n_edges)]
    for (a, b, c) in X.triangle_edge_ids:
        nbrs[a] += (b, c)
        nbrs[b] += (a, c)
        nbrs[c] += (a, b)
    return Graph(X.n_edges, tuple(tuple(sorted(s)) for s in nbrs))


@kept_on_complex
def link_union(X: Complex2) -> Graph:
    """The union of the vertex links, the edge graph less its pairs of disjoint edges: a
    pair sharing a vertex lies in that vertex's link alone, so the cut of F here is the sum
    over v of |coboundary(F & star(v))|.  On a complex this is the edge graph itself."""
    edges = X.edges
    return Graph(X.n_edges, tuple(
        tuple(f for f in fs if u in edges[f] or v in edges[f])
        for (u, v), fs in zip(edges, edge_graph(X).adjacency)
    ))
