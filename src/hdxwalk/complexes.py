"""Two-dimensional simplicial complexes.

A complex holds dense vertex ids 0..n-1, lexicographically sorted edges
(pairs) and triangles (triples), and downward incidence maps.  Closure is
enforced by the builders: every edge of a stored triangle is stored, and
every endpoint of a stored edge is a vertex.  Isolated vertices are allowed.

Text format (UTF-8 JSON), extension ``.complex``::

    {
      "vertices": [0, 1, 2, 3],          # optional explicit vertex list
      "edges": [[0, 1], ...],            # optional extra pairs
      "triangles": [[0, 1, 2], ...],
      "labels": {"0": "a", ...}          # optional id -> original label
    }

Faces written by :func:`dumps_complex` always use dense ids; files whose
faces use arbitrary labels are remapped on load and the mapping is kept so
that round-trips are loss-free face-for-face.
"""

from __future__ import annotations

import json
from functools import cached_property
from itertools import combinations
from math import comb
from typing import Iterable, Optional, Sequence

from ._record import Record
from .errors import CapacityError, DuplicateFaceError, InvalidFaceError, ParameterError
from .rng import SplitMix64

#: Most vertices a complex document may describe.  Vertex ids set the vertex
#: count, so a few bytes could otherwise ask for any number of vertices.
VERTEX_LIMIT = 4096

#: Most candidate triangles, C(n, 3), the generators may build or draw.
TRIANGLE_LIMIT = 2**17


class Complex2(Record):
    """Immutable 2-dimensional simplicial complex with incidence maps."""

    n_vertices: int
    edges: tuple[tuple[int, int], ...]
    triangles: tuple[tuple[int, int, int], ...]
    vertex_edges: tuple[tuple[int, ...], ...]
    edge_triangles: tuple[tuple[int, ...], ...]
    labels: Optional[tuple] = None

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @cached_property
    def edge_ids(self) -> dict:
        return {e: i for i, e in enumerate(self.edges)}

    @cached_property
    def triangle_ids(self) -> dict:
        return {t: i for i, t in enumerate(self.triangles)}

    @cached_property
    def triangle_edge_ids(self) -> tuple[tuple[int, int, int], ...]:
        """For each triangle, the ids of its three edges."""
        ids = self.edge_ids
        out = []
        for (u, v, w) in self.triangles:
            out.append((ids[(u, v)], ids[(u, w)], ids[(v, w)]))
        return tuple(out)

    @cached_property
    def vertex_edge_masks(self) -> tuple[int, ...]:
        """Per vertex, the incident edges as a bit mask over edge ids."""
        masks = [0] * self.n_vertices
        for v, incident in enumerate(self.vertex_edges):
            m = 0
            for e in incident:
                m |= 1 << e
            masks[v] = m
        return tuple(masks)

    @cached_property
    def edge_triangle_masks(self) -> tuple[int, ...]:
        """Per edge, the incident triangles as a bit mask over triangle ids."""
        masks = [0] * self.n_edges
        for e, incident in enumerate(self.edge_triangles):
            m = 0
            for t in incident:
                m |= 1 << t
            masks[e] = m
        return tuple(masks)

    def edge_id(self, u: int, v: int) -> int:
        return self.edge_ids[(u, v) if u < v else (v, u)]


def _canonical_edge(pair) -> tuple[int, int]:
    vs = tuple(pair)
    if len(vs) != 2:
        raise InvalidFaceError(f"edge must have 2 vertices, got {vs!r}")
    u, v = vs
    for x in (u, v):
        if not isinstance(x, int) or x < 0:
            raise InvalidFaceError(f"vertex ids must be non-negative integers, got {x!r}")
    if u == v:
        raise InvalidFaceError(f"degenerate edge with repeated vertex {u}")
    return (u, v) if u < v else (v, u)


def _canonical_triangle(triple) -> tuple[int, int, int]:
    vs = tuple(triple)
    if len(vs) != 3:
        raise InvalidFaceError(f"triangle must have 3 vertices, got {vs!r}")
    for x in vs:
        if not isinstance(x, int) or x < 0:
            raise InvalidFaceError(f"vertex ids must be non-negative integers, got {x!r}")
    if len(set(vs)) != 3:
        raise InvalidFaceError(f"degenerate triangle with repeated vertex: {vs!r}")
    u, v, w = sorted(vs)
    return (u, v, w)


def build_incidence(
    n: int,
    edges: Sequence[tuple[int, int]],
    triangles: Sequence[tuple[int, int, int]],
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Rebuild vertex->edges and edge->triangles maps from the face lists."""
    vertex_edges: list[list[int]] = [[] for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        vertex_edges[u].append(i)
        vertex_edges[v].append(i)
    edge_ids = {e: i for i, e in enumerate(edges)}
    edge_triangles: list[list[int]] = [[] for _ in range(len(edges))]
    for j, (u, v, w) in enumerate(triangles):
        for pair in ((u, v), (u, w), (v, w)):
            edge_triangles[edge_ids[pair]].append(j)
    return (
        tuple(tuple(x) for x in vertex_edges),
        tuple(tuple(x) for x in edge_triangles),
    )


def build_from_triangles(
    triples: Iterable,
    extra_edges: Iterable = (),
    *,
    n_vertices: Optional[int] = None,
) -> Complex2:
    """Build a complex from triangles plus optional extra edges.

    The edge set is the union of the triangles' induced edges and
    ``extra_edges`` (duplicates between the two are merged).  The vertex set
    is 0..max_id, optionally padded to ``n_vertices`` to represent isolated
    vertices.
    """
    triangle_set: set[tuple[int, int, int]] = set()
    for t in triples:
        ct = _canonical_triangle(t)
        if ct in triangle_set:
            raise DuplicateFaceError(f"duplicate triangle {ct!r}")
        triangle_set.add(ct)

    edge_set: set[tuple[int, int]] = set()
    for (u, v, w) in triangle_set:
        edge_set.update(((u, v), (u, w), (v, w)))
    for pair in extra_edges:
        edge_set.add(_canonical_edge(pair))

    n = 0
    for (u, v, w) in triangle_set:
        n = max(n, w + 1)
    for (u, v) in edge_set:
        n = max(n, v + 1)
    if n_vertices is not None:
        if n_vertices < 0:
            raise ParameterError(f"n_vertices must be non-negative, got {n_vertices}")
        n = max(n, n_vertices)

    edges = tuple(sorted(edge_set))
    triangles = tuple(sorted(triangle_set))
    vertex_edges, edge_triangles = build_incidence(n, edges, triangles)
    return Complex2(n, edges, triangles, vertex_edges, edge_triangles)


def _check_triangle_budget(n: int) -> None:
    if comb(n, 3) > TRIANGLE_LIMIT:
        raise CapacityError(
            f"{n} vertices have {comb(n, 3)} candidate triangles; limit is {TRIANGLE_LIMIT}"
        )


def complete_complex(n: int) -> Complex2:
    """Complete complex on n vertices: all pairs and all triples."""
    if n < 0:
        raise ParameterError(f"vertex count must be non-negative, got {n}")
    _check_triangle_budget(n)
    edges = tuple(combinations(range(n), 2))
    triangles = tuple(combinations(range(n), 3))
    vertex_edges, edge_triangles = build_incidence(n, edges, triangles)
    return Complex2(n, edges, triangles, vertex_edges, edge_triangles)


def random_complex(n: int, p: float, seed: int) -> Complex2:
    """Complete 1-skeleton on n vertices, each triangle kept with probability p.

    Triangle draws consume one 64-bit SplitMix64 output each, in lexicographic
    triple order, so equal seeds give bitwise-identical complexes everywhere.
    """
    if n < 0:
        raise ParameterError(f"vertex count must be non-negative, got {n}")
    if not (0.0 <= p <= 1.0):
        raise ParameterError(f"triangle probability must be in [0, 1], got {p}")
    _check_triangle_budget(n)
    rng = SplitMix64(seed)
    threshold = int(p * 2.0**64)
    edges = tuple(combinations(range(n), 2))
    triangles = tuple(t for t in combinations(range(n), 3) if rng.next_u64() < threshold)
    vertex_edges, edge_triangles = build_incidence(n, edges, triangles)
    return Complex2(n, edges, triangles, vertex_edges, edge_triangles)


class DegreeProfile(Record):
    """Per-face degree counts; ``regular`` is (k0, k1) when both are constant."""

    vertex_edge_degrees: tuple[int, ...]
    edge_triangle_degrees: tuple[int, ...]
    regular: Optional[tuple[int, int]]


def degree_profile(X: Complex2) -> DegreeProfile:
    v_deg = tuple(len(es) for es in X.vertex_edges)
    e_deg = tuple(len(ts) for ts in X.edge_triangles)
    regular = None
    if v_deg and e_deg and len(set(v_deg)) == 1 and len(set(e_deg)) == 1:
        regular = (v_deg[0], e_deg[0])
    return DegreeProfile(v_deg, e_deg, regular)


class ValidationReport(Record):
    findings: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.findings


def validate(X: Complex2) -> ValidationReport:
    """Check closure, face canonicalization, and incidence consistency."""
    findings: list[str] = []
    n = X.n_vertices
    if n < 0:
        findings.append(f"negative vertex count {n}")

    seen_edges = set()
    for i, e in enumerate(X.edges):
        if len(e) != 2 or e[0] >= e[1]:
            findings.append(f"edge {i} not a sorted pair of distinct vertices: {e!r}")
            continue
        if not all(0 <= v < n for v in e):
            findings.append(f"edge {i} has vertex id out of range: {e!r}")
        if e in seen_edges:
            findings.append(f"duplicate edge {e!r}")
        seen_edges.add(e)

    seen_triangles = set()
    for j, t in enumerate(X.triangles):
        if len(t) != 3 or not (t[0] < t[1] < t[2]):
            findings.append(f"triangle {j} not a sorted triple of distinct vertices: {t!r}")
            continue
        if not all(0 <= v < n for v in t):
            findings.append(f"triangle {j} has vertex id out of range: {t!r}")
        if t in seen_triangles:
            findings.append(f"duplicate triangle {t!r}")
        seen_triangles.add(t)
        u, v, w = t
        for pair in ((u, v), (u, w), (v, w)):
            if pair not in seen_edges:
                findings.append(f"closure violation: triangle {t!r} missing edge {pair!r}")

    if not findings:
        rebuilt = build_incidence(n, X.edges, X.triangles)
        if (X.vertex_edges, X.edge_triangles) != rebuilt:
            findings.append("incidence maps inconsistent with face lists")

    return ValidationReport(tuple(findings))


def to_document(X: Complex2) -> dict:
    doc = {
        "vertices": list(range(X.n_vertices)),
        "edges": [list(e) for e in X.edges],
        "triangles": [list(t) for t in X.triangles],
    }
    if X.labels is not None:
        doc["labels"] = {str(i): label for i, label in enumerate(X.labels)}
    return doc


def _label_sort_key(label):
    if isinstance(label, int) and not isinstance(label, bool):
        return (0, label, "")
    return (1, 0, str(label))


def _list_field(doc: dict, key: str) -> list:
    value = doc.get(key)
    if value is None:
        return []
    if not isinstance(value, list):
        raise ParameterError(f"{key!r} must be a list, got {type(value).__name__}")
    return value


def _check_vertex_count(n: int) -> None:
    if n > VERTEX_LIMIT:
        raise CapacityError(f"complex documents are limited to {VERTEX_LIMIT} vertices; got {n}")


def from_document(doc: dict) -> Complex2:
    """Parse the text-format document into a complex.

    Plain non-negative integer labels are taken literally as vertex ids
    (gaps become isolated vertices).  Other integers and strings are treated
    as arbitrary labels, remapped to dense ids in sorted order with the
    mapping retained.  Any other shape raises ParameterError, and more than
    VERTEX_LIMIT vertices raise CapacityError.
    """
    if not isinstance(doc, dict):
        raise ParameterError("complex document must be a JSON object")
    explicit = _list_field(doc, "vertices")
    raw_edges = _list_field(doc, "edges")
    raw_triangles = _list_field(doc, "triangles")
    labels_map = doc.get("labels")
    if labels_map is not None and not (
        isinstance(labels_map, dict)
        and all(not isinstance(v, (list, dict)) for v in labels_map.values())
    ):
        raise ParameterError("labels must be an object mapping vertex ids to scalar labels")

    universe = list(explicit)
    for face in raw_edges + raw_triangles:
        if not isinstance(face, list):
            raise ParameterError(f"faces must be lists of vertex ids, got {type(face).__name__}")
        universe.extend(face)
    for x in universe:
        # bool is an int subclass: true would alias vertex 1.
        if isinstance(x, bool) or not isinstance(x, (int, str)):
            raise ParameterError(f"vertex ids must be integers or strings, got {type(x).__name__}")

    ints_only = all(isinstance(x, int) and x >= 0 for x in universe)
    if labels_map is not None and not ints_only:
        raise ParameterError("faces must use dense integer ids when a labels map is present")
    if ints_only:
        # faces already carry integer ids
        n = max((x + 1 for x in universe), default=0)
        if labels_map is not None:
            n = max(n, len(labels_map))
        _check_vertex_count(n)
        X = build_from_triangles(raw_triangles, raw_edges, n_vertices=n)
        if labels_map is not None:
            labels = tuple(labels_map.get(str(i), i) for i in range(X.n_vertices))
            X = X.replace(labels=labels)
        return X

    labels = tuple(sorted(set(universe), key=_label_sort_key))
    _check_vertex_count(len(labels))
    to_id = {label: i for i, label in enumerate(labels)}
    edges = [[to_id[x] for x in e] for e in raw_edges]
    triangles = [[to_id[x] for x in t] for t in raw_triangles]
    X = build_from_triangles(triangles, edges, n_vertices=len(labels))
    return X.replace(labels=labels)


def dumps_complex(X: Complex2) -> str:
    return json.dumps(to_document(X), indent=2, sort_keys=True) + "\n"


def loads_complex(text: str) -> Complex2:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParameterError(f"not a valid complex document: {exc}") from exc
    return from_document(doc)


def save_complex(X: Complex2, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_complex(X))


def load_complex(path: str) -> Complex2:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParameterError(f"not a valid complex document: {exc}") from exc
    return loads_complex(text)
