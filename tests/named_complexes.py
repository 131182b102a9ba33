"""Named complexes and graphs shared by several test modules, building a complex
from triangles through the loader, seeded relabelling and random regular graphs,
the reference checks of a complex and of its edge graph, and writing a complex
document."""

import random
from itertools import combinations

from hdxwalk.complexes import dumps_complex, from_document
from hdxwalk.graphs import Graph


def build_from_triangles(triples, extra_edges=(), *, n_vertices=0):
    """The complex that the loader builds from these triangles and extra edges,
    on at least ``n_vertices`` vertices."""
    return from_document(
        {
            "vertices": list(range(n_vertices)),
            "edges": [list(e) for e in extra_edges],
            "triangles": [list(t) for t in triples],
        }
    )


def edge_id(X, u, v):
    """The id of the edge {u, v} of X."""
    return X.edges.index((min(u, v), max(u, v)))


def findings(X):
    """What makes X other than a complex the loader builds; [] when nothing does.

    Each face is a sorted tuple of distinct vertex ids in range, each face list
    is sorted and repeats no face, and every edge of a triangle is an edge.  The
    incidence maps are derived from the faces, so they cannot disagree with them.
    """
    out = []
    n = X.n_vertices
    if n < 0:
        out.append(f"negative vertex count {n}")
    for kind, faces, size in (("edge", X.edges, 2), ("triangle", X.triangles, 3)):
        for i, face in enumerate(faces):
            if len(face) != size or list(face) != sorted(set(face)):
                out.append(f"{kind} {i} not a sorted {size}-tuple of distinct vertices: {face!r}")
            elif not all(0 <= v < n for v in face):
                out.append(f"{kind} {i} has vertex id out of range: {face!r}")
        if list(faces) != sorted(set(faces)):
            out.append(f"{kind}s not listed once each in sorted order")
    edges = set(X.edges)
    for t in X.triangles:
        out.extend(
            f"closure violation: triangle {t!r} missing edge {pair!r}"
            for pair in combinations(t, 2)
            if pair not in edges
        )
    return out


def complete_graph(n):
    return Graph.from_edges(n, ((u, v) for u in range(n) for v in range(u + 1, n)))


def cycle_graph(n):
    return Graph.from_edges(n, ((i, (i + 1) % n) for i in range(n)))


def relabel_graph(G, seed: int):
    """G with vertex v renamed perm[v], perm = range(n) shuffled by random.Random(seed)."""
    perm = list(range(G.n))
    random.Random(seed).shuffle(perm)
    return Graph.from_edges(G.n, [(perm[u], perm[v]) for u in range(G.n) for v in G.adjacency[u] if u < v])


def random_regular_graph(n, d, seed: int):
    """A simple d-regular graph on n vertices: the first simple pairing of d points
    per vertex, shuffled by random.Random(seed)."""
    rng, points = random.Random(seed), [v for v in range(n) for _ in range(d)]
    while True:
        rng.shuffle(points)
        edges = {(min(u, v), max(u, v)) for u, v in zip(points[::2], points[1::2]) if u != v}
        if len(edges) == n * d // 2:
            return Graph.from_edges(n, sorted(edges))


def reference_edge_graph(X):
    """The edge graph through ``Graph.from_edges``: one pair per two edges of a triangle."""
    ids = {e: i for i, e in enumerate(X.edges)}
    pairs = []
    for (u, v, w) in X.triangles:
        a, b, c = ids[(u, v)], ids[(u, w)], ids[(v, w)]
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


# The Fano plane's lines {i, i+1, i+3} mod 7 as triangles: each pair of points is on
# one line, so the edges are K7's and each lies in one triangle; (6, 1)-regular.
FANO = build_from_triangles([(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)])

# Four of the octahedron's eight faces, no two sharing an edge; (4, 1)-regular on its
# 12 edges.
HALF_OCTAHEDRON = build_from_triangles([(0, 2, 4), (0, 3, 5), (1, 2, 5), (1, 3, 4)])


def triangulated_torus(a, b):
    """The a x b grid on the torus, each square cut along its diagonal: vertex
    (i, j) is i * b + j, and the triangles are {(i, j), (i + 1, j), (i + 1, j + 1)}
    and {(i, j), (i, j + 1), (i + 1, j + 1)} mod (a, b).  (6, 2)-regular on 3ab
    edges for a, b >= 3."""
    def v(i, j):
        return i % a * b + j % b

    return build_from_triangles(
        [(v(i, j), v(i + 1, j), v(i + 1, j + 1)) for i in range(a) for j in range(b)]
        + [(v(i, j), v(i, j + 1), v(i + 1, j + 1)) for i in range(a) for j in range(b)]
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


# Clique complex of the Paley graph on Z/13, i ~ j when (j - i) mod 13 is a nonzero
# square: 13 vertices, 39 edges and 26 triangles, (6, 2)-regular, dim H^1 = 2.
# Its 2**39 edge sets keep it out of every corpus whose tests scan the edge sets.
_SQUARES_13 = {x * x % 13 for x in range(1, 13)}
PALEY_13 = build_from_triangles(
    [t for t in combinations(range(13), 3)
     if all((b - a) % 13 in _SQUARES_13 for a, b in combinations(t, 2))]
)

# A twofold triple system on 9 points: every pair in exactly two of its 24 triangles,
# (8, 2)-regular on K9's 36 edges.  The lines of AG(2, 3), then their image under the
# vertex permutation (0,1,3,2,4,7,6,8,5), which shares no line with them.  Like
# PALEY_13, its 2**36 edge sets keep it out of those corpora.
TTS_9 = build_from_triangles(
    [tuple(map(int, t)) for t in (
        "012 013 026 036 045 048 057 078 125 138 147 148 "
        "156 167 237 238 246 247 258 345 346 357 568 678"
    ).split()]
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
