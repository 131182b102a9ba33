"""Input complexes for the benchmark, written as `.complex` documents.

Every deterministic complex is built here, in the benchmark's own code, so
its bytes (and the sha256 the CLI embeds in its reports) never depend on the
program under test.  The seeded irregular complexes come from the program's
own `hdx gen random`, with seeds derived from the workload seed.  Each
complex's face counts and (k0, k1) regularity are checked before any timing.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Optional


@dataclass(frozen=True)
class Shape:
    vertices: int
    edges: int
    triangles: int
    regular: Optional[tuple[int, int]]  # (k0, k1), or None when irregular


def complete(n: int) -> dict:
    return {
        "vertices": list(range(n)),
        "edges": [list(e) for e in combinations(range(n), 2)],
        "triangles": [list(t) for t in combinations(range(n), 3)],
    }


def octahedron() -> dict:
    # Opposite pairs (0, 1), (2, 3), (4, 5); a face takes one vertex of each.
    pairs = ((0, 1), (2, 3), (4, 5))
    triangles = sorted(sorted(t) for t in _product(pairs))
    edges = sorted({tuple(e) for t in triangles for e in combinations(t, 2)})
    return {"vertices": list(range(6)), "edges": [list(e) for e in edges], "triangles": triangles}


def _product(pairs):
    out = [[]]
    for pair in pairs:
        out = [p + [x] for p in out for x in pair]
    return out


# The 6-vertex triangulation of the real projective plane (hemi-icosahedron).
RP2_6_TRIANGLES = (
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
    (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5),
)


def rp2_6() -> dict:
    edges = sorted({e for t in RP2_6_TRIANGLES for e in combinations(t, 2)})
    return {
        "vertices": list(range(6)),
        "edges": [list(e) for e in edges],
        "triangles": [list(t) for t in RP2_6_TRIANGLES],
    }


def cuboctahedron() -> dict:
    """The 8 triangular faces of the cuboctahedron (its squares are left open)."""
    points = sorted(
        {
            tuple(p)
            for a in (-1, 1)
            for b in (-1, 1)
            for p in ((a, b, 0), (a, 0, b), (0, a, b))
        }
    )

    def adjacent(i, j):
        return sum((x - y) ** 2 for x, y in zip(points[i], points[j])) == 2

    n = len(points)
    edges = [list(e) for e in combinations(range(n), 2) if adjacent(*e)]
    triangles = [
        list(t)
        for t in combinations(range(n), 3)
        if adjacent(t[0], t[1]) and adjacent(t[0], t[2]) and adjacent(t[1], t[2])
    ]
    return {"vertices": list(range(n)), "edges": edges, "triangles": triangles}


def relabel(doc: dict, seed: int) -> dict:
    """The same complex under a seeded vertex permutation."""
    perm = list(range(len(doc["vertices"])))
    random.Random(seed).shuffle(perm)
    edges = sorted(sorted(perm[v] for v in e) for e in doc["edges"])
    triangles = sorted(sorted(perm[v] for v in t) for t in doc["triangles"])
    return {"vertices": list(range(len(perm))), "edges": edges, "triangles": triangles}


def shape(doc: dict) -> Shape:
    """Face counts and (k0, k1) regularity, computed independently of hdxwalk."""
    faces = doc["edges"] + doc["triangles"]
    vertices = set(doc.get("vertices", [])) | {v for face in faces for v in face}
    edges = {tuple(sorted(e)) for e in doc["edges"]}
    triangles = {tuple(sorted(t)) for t in doc["triangles"]}
    edges |= {e for t in triangles for e in combinations(t, 2)}
    vertex_degree = {v: 0 for v in vertices}
    for u, v in edges:
        vertex_degree[u] += 1
        vertex_degree[v] += 1
    edge_degree = {e: 0 for e in edges}
    for t in triangles:
        for e in combinations(t, 2):
            edge_degree[e] += 1
    k0s, k1s = set(vertex_degree.values()), set(edge_degree.values())
    regular = (k0s.pop(), k1s.pop()) if len(k0s) == 1 and len(k1s) == 1 else None
    return Shape(len(vertices), len(edges), len(triangles), regular)


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# name -> (document builder, expected shape); checked before any timing.
FIXED = {
    "k4": (lambda: complete(4), Shape(4, 6, 4, (3, 2))),
    "k5": (lambda: complete(5), Shape(5, 10, 10, (4, 3))),
    "k6": (lambda: complete(6), Shape(6, 15, 20, (5, 4))),
    "k7": (lambda: complete(7), Shape(7, 21, 35, (6, 5))),
    "k8": (lambda: complete(8), Shape(8, 28, 56, (7, 6))),
    "k12": (lambda: complete(12), Shape(12, 66, 220, (11, 10))),
    "k18": (lambda: complete(18), Shape(18, 153, 816, (17, 16))),
    "k20": (lambda: complete(20), Shape(20, 190, 1140, (19, 18))),
    "k24": (lambda: complete(24), Shape(24, 276, 2024, (23, 22))),
    "k40": (lambda: complete(40), Shape(40, 780, 9880, (39, 38))),
    "octa": (octahedron, Shape(6, 12, 8, (4, 2))),
    "rp2": (rp2_6, Shape(6, 15, 10, (5, 2))),
    "cubo": (cuboctahedron, Shape(12, 24, 8, (4, 1))),
}

# Complexes relabelled with a permutation derived from the workload seed.
RELABELLED = {"rp2p": "rp2", "octap": "octa"}

# `hdx gen random` complexes: name -> (n, p, seed offset).
RANDOM = {"rnd1": (6, 0.5, 1), "rnd2": (6, 0.3, 2)}


class CorpusError(Exception):
    pass


def write_fixed(directory: str, seed: int) -> dict[str, Shape]:
    """Write the deterministic and relabelled complexes; return their shapes."""
    os.makedirs(directory, exist_ok=True)
    shapes = {}
    docs = {name: build() for name, (build, _) in FIXED.items()}
    for name, base in RELABELLED.items():
        docs[name] = relabel(docs[base], seed)
    for name, doc in docs.items():
        got = shape(doc)
        want = FIXED[RELABELLED.get(name, name)][1]
        if got != want:
            raise CorpusError(f"{name}: built {got}, expected {want}")
        with open(os.path.join(directory, f"{name}.complex"), "w", encoding="utf-8") as fh:
            fh.write(dumps(doc))
        shapes[name] = got
    return shapes


def random_seed(workload_seed: int, offset: int) -> int:
    return workload_seed * 1000 + offset


def check_random(path: str, n: int) -> Shape:
    """A `gen random` document has n vertices, all n(n-1)/2 edges, and valid triangles."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    got = shape(doc)
    if got.vertices != n or got.edges != n * (n - 1) // 2:
        raise CorpusError(f"{path}: {got} is not a full 1-skeleton on {n} vertices")
    if got.triangles > n * (n - 1) * (n - 2) // 6:
        raise CorpusError(f"{path}: {got.triangles} triangles on {n} vertices")
    return got
