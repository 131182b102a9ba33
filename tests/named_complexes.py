"""Named complexes and graphs shared by several test modules, seeded relabelling,
the reference edge graph, and writing a complex document."""

import random
from itertools import combinations

from hdxwalk.complexes import build_from_triangles, dumps_complex
from hdxwalk.graphs import Graph


def complete_graph(n):
    return Graph.from_edges(n, ((u, v) for u in range(n) for v in range(u + 1, n)))


def cycle_graph(n):
    return Graph.from_edges(n, ((i, (i + 1) % n) for i in range(n)))


def reference_edge_graph(X):
    """The edge graph through ``Graph.from_edges``: one pair per two edges of a triangle."""
    pairs = []
    for (u, v, w) in X.triangles:
        a, b, c = X.edge_ids[(u, v)], X.edge_ids[(u, w)], X.edge_ids[(v, w)]
        pairs.extend(((a, b), (a, c), (b, c)))
    return Graph.from_edges(X.n_edges, pairs)


def save_complex(X, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_complex(X))


# Opposite pairs (0, 1), (2, 3), (4, 5); a face takes one vertex of each.
OCTAHEDRON = build_from_triangles([(a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)])

# The 6-vertex triangulation of the real projective plane (hemi-icosahedron).
RP2_6 = build_from_triangles(
    [
        (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
        (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5),
    ]
)


def _cuboctahedron():
    """The 8 triangular faces of the cuboctahedron, its squares left open.

    (4, 1)-regular on 12 vertices and 24 edges; its underlying graph has
    lambda2 = 1/2 exactly.
    """
    points = sorted(
        {p for a in (-1, 1) for b in (-1, 1) for p in ((a, b, 0), (a, 0, b), (0, a, b))}
    )

    def adjacent(i, j):
        return sum((x - y) ** 2 for x, y in zip(points[i], points[j])) == 2

    triangles = [t for t in combinations(range(12), 3) if all(adjacent(*e) for e in combinations(t, 2))]
    return build_from_triangles(triangles)


CUBOCTAHEDRON = _cuboctahedron()


# The 7-vertex (Csaszar) torus: triangles {i, i+1, i+3} and {i, i+2, i+3} mod 7.
# (6, 2)-regular on 21 edges, the edges of K7; H^1 is nonzero.
TORUS_7 = build_from_triangles(
    [(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)]
    + [(i, (i + 2) % 7, (i + 3) % 7) for i in range(7)]
)

# Clique complex of the complete tripartite graph on parts {0,1,2}, {3,4,5},
# {6,7,8}: a face takes one vertex of each part, (6, 3)-regular.
K333 = build_from_triangles([(a, b, c) for a in (0, 1, 2) for b in (3, 4, 5) for c in (6, 7, 8)])


def _icosahedron():
    """Apex 0, upper ring 1..5, lower ring 6..10, apex 11; (5, 2)-regular."""
    up = [1 + i % 5 for i in range(6)]
    low = [6 + i % 5 for i in range(6)]
    return build_from_triangles(
        [(0, up[i], up[i + 1]) for i in range(5)]
        + [(11, low[i], low[i + 1]) for i in range(5)]
        + [(up[i], up[i + 1], low[i]) for i in range(5)]
        + [(low[i], low[i + 1], up[i + 1]) for i in range(5)]
    )


ICOSAHEDRON = _icosahedron()

# Clique complex of the triangular graph T(5) = J(5, 2): vertices are the
# 2-subsets of range(5), adjacent when they meet; (6, 3)-regular.
_PAIRS = list(combinations(range(5), 2))
T5 = build_from_triangles(
    [t for t in combinations(range(10), 3)
     if all(set(_PAIRS[a]) & set(_PAIRS[b]) for a, b in combinations(t, 2))]
)


def line_graph_complex(edges):
    """Clique complex of the line graph of a triangle-free cubic graph.

    Vertex e is edges[e]; the triangles are the three edges at each vertex,
    so the complex is (4, 1)-regular.
    """
    stars = {}
    for e, pair in enumerate(edges):
        for v in pair:
            stars.setdefault(v, []).append(e)
    return build_from_triangles(stars.values())


# The Petersen graph: outer 5-cycle, spokes, inner pentagram.
PETERSEN_LINE = line_graph_complex(
    [(i, (i + 1) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
)

# The Heawood graph, LCF notation [5, -5]^7: 21 vertices, 42 edges, 14
# triangles in its line-graph complex, dim Z^1 = 28 and H^1 nonzero.
HEAWOOD_LINE = line_graph_complex(
    [(i, (i + 1) % 14) for i in range(14)] + [(i, (i + 5) % 14) for i in range(0, 14, 2)]
)


def relabel(X, seed: int):
    """X with vertex v renamed perm[v], perm = range(n) shuffled by random.Random(seed)."""
    perm = list(range(X.n_vertices))
    random.Random(seed).shuffle(perm)
    return build_from_triangles(
        [[perm[v] for v in t] for t in X.triangles],
        [[perm[v] for v in e] for e in X.edges],
        n_vertices=X.n_vertices,
    )
