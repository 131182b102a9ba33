"""Named complexes shared by several test modules, and seeded relabelling."""

import random
from itertools import combinations

from hdxwalk.complexes import build_from_triangles

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


def relabel(X, seed: int):
    """X with vertex v renamed perm[v], perm = range(n) shuffled by random.Random(seed)."""
    perm = list(range(X.n_vertices))
    random.Random(seed).shuffle(perm)
    return build_from_triangles(
        [[perm[v] for v in t] for t in X.triangles],
        [[perm[v] for v in e] for e in X.edges],
        n_vertices=X.n_vertices,
    )
