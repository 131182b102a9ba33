"""Two-dimensional simplicial complexes.

A complex is dense vertex ids 0..n-1, lexicographically sorted edges
(pairs) and triangles (triples); its downward incidence maps are derived
from those faces on first read, each from what it depends on.  Closure is
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
from functools import cached_property, wraps
from itertools import chain, combinations
from math import comb, isfinite
from operator import itemgetter
from typing import Iterable, Optional

from ._record import Record
from .errors import CapacityError, DuplicateFaceError, InvalidFaceError, ParameterError
from .rng import SplitMix64

#: Most vertices a complex document may describe.  Vertex ids set the vertex
#: count, so a few bytes could otherwise ask for any number of vertices.
VERTEX_LIMIT = 4096

#: Most candidate triangles, C(n, 3), the generators may build or draw.
TRIANGLE_LIMIT = 2**17


def _mask(ids: Iterable[int]) -> int:
    """The bit mask with bit i set for each i in ids."""
    m = 0
    for i in ids:
        m |= 1 << i
    return m


class Complex2(Record):
    """Immutable 2-dimensional simplicial complex: its faces and labels.  The
    incidence maps are derived from the faces on first read."""

    n_vertices: int
    edges: tuple[tuple[int, int], ...]
    triangles: tuple[tuple[int, int, int], ...]
    labels: Optional[tuple] = None

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @cached_property
    def vertex_edges(self) -> tuple[tuple[int, ...], ...]:
        """For each vertex, the ids of its edges, ascending."""
        out: list[list[int]] = [[] for _ in range(self.n_vertices)]
        for i, (u, v) in enumerate(self.edges):
            out[u].append(i)
            out[v].append(i)
        return tuple(map(tuple, out))

    @cached_property
    def triangle_edge_ids(self) -> tuple[tuple[int, int, int], ...]:
        """For each triangle, the ids of its three edges."""
        ids = {e: i for i, e in enumerate(self.edges)}
        return tuple((ids[u, v], ids[u, w], ids[v, w]) for u, v, w in self.triangles)

    @cached_property
    def edge_triangles(self) -> tuple[tuple[int, ...], ...]:
        """For each edge, the ids of its triangles, ascending."""
        out: list[list[int]] = [[] for _ in range(self.n_edges)]
        for j, (a, b, c) in enumerate(self.triangle_edge_ids):
            out[a].append(j)
            out[b].append(j)
            out[c].append(j)
        return tuple(map(tuple, out))

    @cached_property
    def regular(self) -> Optional[tuple[int, int]]:
        """(k0, k1) when every vertex lies on k0 edges and every edge on k1 triangles,
        with at least one vertex and one edge; otherwise None."""
        k0 = {len(es) for es in self.vertex_edges}
        k1 = {len(ts) for ts in self.edge_triangles}
        return (*k0, *k1) if len(k0) == len(k1) == 1 else None

    @cached_property
    def vertex_edge_masks(self) -> tuple[int, ...]:
        """Per vertex, the incident edges as a bit mask over edge ids."""
        return tuple(map(_mask, self.vertex_edges))

    @cached_property
    def edge_triangle_masks(self) -> tuple[int, ...]:
        """Per edge, the incident triangles as a bit mask over triangle ids."""
        return tuple(map(_mask, self.edge_triangles))


def kept_on_complex(build):
    """``build(X)`` computed once per complex and stored in its ``__dict__``, as a
    cached property is: no module-level cache holds the complex, so a command
    can drop it once what it needs is built."""
    key = f"_{build.__name__}"

    @wraps(build)
    def kept(X: Complex2):
        if key not in X.__dict__:
            X.__dict__[key] = build(X)
        return X.__dict__[key]

    return kept


def _canonical_edge(pair) -> tuple[int, int]:
    vs = tuple(pair)
    if len(vs) != 2:
        raise InvalidFaceError(f"edge must have 2 vertices, got {vs!r}")
    u, v = vs
    if u == v:
        raise InvalidFaceError(f"degenerate edge with repeated vertex {u}")
    return (u, v) if u < v else (v, u)


def _canonical_triangles(triples: Iterable) -> list[tuple[int, int, int]]:
    """The sorted triple of each triangle of non-negative int ids, in input order;
    the first bad or repeated one raises."""
    out: dict[tuple[int, int, int], None] = {}  # an ordered set
    for triple in triples:
        vs = tuple(triple)
        if len(vs) != 3:
            raise InvalidFaceError(f"triangle must have 3 vertices, got {vs!r}")
        u, v, w = vs
        if not u < v < w:
            u, v, w = sorted(vs)
            if u == v or v == w:
                raise InvalidFaceError(f"degenerate triangle with repeated vertex: {vs!r}")
        t = (u, v, w)
        if t in out:
            raise DuplicateFaceError(f"duplicate triangle {t!r}")
        out[t] = None
    return list(out)


# The edges (u, v), (u, w) and (v, w) of a sorted triangle (u, v, w).
_TRIANGLE_EDGES = (itemgetter(0, 1), itemgetter(0, 2), itemgetter(1, 2))


def _build(triangles: list, extra_edges: Iterable, n: int, labels=None) -> Complex2:
    """The complex on distinct sorted triangles, their edges and ``extra_edges``, padded to n vertices.

    Its one caller, ``from_document``, has already checked that n >= 0 and that
    every id is a non-negative int.
    """
    edge_set = set(map(_canonical_edge, extra_edges))
    for pair in _TRIANGLE_EDGES:  # each triangle's three edges, with no copy of the triangles
        edge_set.update(map(pair, triangles))
    edges = tuple(sorted(edge_set))
    n = max(n, max((v + 1 for _, v in edges), default=0))
    return Complex2(n, edges, tuple(sorted(triangles)), labels)


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
    return Complex2(n, tuple(combinations(range(n), 2)), tuple(combinations(range(n), 3)))


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
    return Complex2(n, edges, triangles)


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


def _label_key_count(labels_map: dict) -> int:
    """1 + the largest vertex id among the keys of a labels map; each key must be ``str(id)``."""
    n = 0
    for key in labels_map:
        if not (
            isinstance(key, str)
            and key.isascii()
            and key.isdecimal()
            and (key == "0" or key[0] != "0")
        ):
            raise ParameterError(f"labels keys must be vertex ids in decimal, got {key!r}")
        if len(key) > len(str(VERTEX_LIMIT)):  # more digits, so a larger id; int() may refuse it
            raise CapacityError(
                f"complex documents are limited to {VERTEX_LIMIT} vertices; "
                f"got a label key of {len(key)} digits"
            )
        n = max(n, int(key) + 1)
    return n


def from_document(doc: dict) -> Complex2:
    """Parse the text-format document into a complex.

    Plain non-negative integer labels are taken literally as vertex ids
    (gaps become isolated vertices).  Other integers and strings are treated
    as arbitrary labels, remapped to dense ids in sorted order with the
    mapping retained.  A labels map names vertices by their ids, as
    ``str(id)``.  Any other shape raises ParameterError, and more than
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
    n_labelled = 0 if labels_map is None else _label_key_count(labels_map)

    for face in chain(raw_edges, raw_triangles):
        if not isinstance(face, list):
            raise ParameterError(f"faces must be lists of vertex ids, got {type(face).__name__}")

    def ids():
        """Every vertex id of the document, the explicit ones first, read in place."""
        return chain(explicit, chain.from_iterable(raw_edges), chain.from_iterable(raw_triangles))

    if set(map(type, ids())) <= {int}:  # plain ints, no bool: every id is one already
        ints_only = min(ids(), default=0) >= 0
    else:
        for x in ids():
            # bool is an int subclass: true would alias vertex 1.
            if isinstance(x, bool) or not isinstance(x, (int, str)):
                raise ParameterError(
                    f"vertex ids must be integers or strings, got {type(x).__name__}"
                )
        ints_only = all(isinstance(x, int) and x >= 0 for x in ids())

    if labels_map is not None and not ints_only:
        raise ParameterError("faces must use dense integer ids when a labels map is present")
    if ints_only:
        # faces already carry integer ids
        n = max(max(ids(), default=-1) + 1, n_labelled)
        _check_vertex_count(n)
        labels = None
        if labels_map is not None:
            labels = tuple(labels_map.get(str(i), i) for i in range(n))
        return _build(_canonical_triangles(raw_triangles), raw_edges, n, labels)

    labels = tuple(sorted(set(ids()), key=_label_sort_key))
    _check_vertex_count(len(labels))
    to_id = {label: i for i, label in enumerate(labels)}
    edges = [[to_id[x] for x in e] for e in raw_edges]
    triangles = [[to_id[x] for x in t] for t in raw_triangles]
    return _build(_canonical_triangles(triangles), edges, len(labels), labels)


def dumps_complex(X: Complex2) -> str:
    return json.dumps(to_document(X), indent=2, sort_keys=True) + "\n"


def _finite(token: str) -> float:
    """A JSON float or NaN/Infinity token as a float; a non-finite one (1e999 too) raises."""
    x = float(token)
    if not isfinite(x):
        raise ParameterError(f"not a valid complex document: non-finite number {token}")
    return x


def _unique_keys(pairs: list) -> dict:
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ParameterError(f"not a valid complex document: duplicate key {key!r}")
        doc[key] = value
    return doc


def decode_document(data: bytes) -> str:
    """``data`` as a file opened in text mode reads it: UTF-8, universal newlines."""
    try:
        return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:
        raise ParameterError(f"not a valid complex document: {exc}") from exc


def loads_complex(text: str) -> Complex2:
    """Parse a complex document; NaN, infinite numbers and repeated keys are refused."""
    try:
        doc = json.loads(
            text, parse_float=_finite, parse_constant=_finite, object_pairs_hook=_unique_keys
        )
    except (ValueError, RecursionError) as exc:  # ValueError: also an int of over 4300 digits
        raise ParameterError(f"not a valid complex document: {exc}") from exc
    return from_document(doc)


def load_complex(path: str) -> Complex2:
    with open(path, "rb") as fh:
        text = decode_document(fh.read())
    return loads_complex(text)
