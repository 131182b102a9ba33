"""Construction, generation, validation, and serialization of complexes."""

import io
import json
import re
from math import comb

import named_complexes
import pytest
from named_complexes import build_from_triangles, findings
from traced import traced_peak

from hdxwalk.cli import run
from hdxwalk.complexes import (
    TRIANGLE_LIMIT,
    VERTEX_LIMIT,
    Complex2,
    complete_complex,
    dumps_complex,
    from_document,
    loads_complex,
    random_complex,
    to_document,
)
from hdxwalk.errors import (
    CapacityError,
    DuplicateFaceError,
    HdxError,
    InvalidFaceError,
    ParameterError,
)


def test_build_empty():
    X = build_from_triangles([])
    assert (X.n_vertices, X.n_edges, X.n_triangles) == (0, 0, 0)


def test_build_single_triangle_closure():
    X = build_from_triangles([{0, 1, 2}])
    assert (X.n_vertices, X.n_edges, X.n_triangles) == (3, 3, 1)
    assert X.edges == ((0, 1), (0, 2), (1, 2))


def test_build_all_four_triples_gives_complete():
    X = build_from_triangles([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    assert (X.n_vertices, X.n_edges, X.n_triangles) == (4, 6, 4)
    assert X == complete_complex(4)


def test_build_rejects_duplicate_triangle():
    with pytest.raises(DuplicateFaceError):
        build_from_triangles([(0, 1, 2), (2, 1, 0)])


def test_build_rejects_degenerate_faces():
    with pytest.raises(InvalidFaceError):
        build_from_triangles([(0, 1, 1)])
    with pytest.raises(InvalidFaceError):
        build_from_triangles([], [(3, 3)])


BAD_FACES = [
    # (triangles, extra edges, the error found first)
    ([(0, 1, 2), (2, 1, 0), (0, 0, 3)], [], "duplicate triangle (0, 1, 2)"),
    ([(0, 1, 2), (3, 3, 1), (0, 1, 2)], [], "degenerate triangle with repeated vertex: (3, 3, 1)"),
    ([(0, 1, 2), (0, 1)], [(4, 4)], "triangle must have 3 vertices, got (0, 1)"),
    ([(0, 1, 2), (0, 1, 2, 3), (2, 0, 1)], [], "triangle must have 3 vertices, got (0, 1, 2, 3)"),
    ([(0, 1, 2), (0, 2, 1), (0, 1)], [], "duplicate triangle (0, 1, 2)"),
    ([(0, 1, 3)], [(1,), (2, 2)], "edge must have 2 vertices, got (1,)"),
    ([(0, 1, 3)], [(0, 1), (2, 2)], "degenerate edge with repeated vertex 2"),
]


@pytest.mark.parametrize("triangles, edges, message", BAD_FACES, ids=[m for *_, m in BAD_FACES])
def test_first_bad_face_in_input_order_is_reported(triangles, edges, message):
    # Every triangle is checked before any extra edge, each list in input order.
    with pytest.raises(HdxError) as loaded:
        from_document({"triangles": [list(t) for t in triangles], "edges": [list(e) for e in edges]})
    assert str(loaded.value) == message


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"edges": [[True, 2]]}, "vertex ids must be integers or strings, got bool"),
        ({"triangles": [[0, False, 2]]}, "vertex ids must be integers or strings, got bool"),
        ({"vertices": [-1], "labels": {"0": "a"}}, "faces must use dense integer ids when a labels map is present"),
        ({"edges": [[-2, 0]], "labels": {}}, "faces must use dense integer ids when a labels map is present"),
    ],
    ids=["bool edge id", "bool triangle id", "negative vertex id", "negative edge id"],
)
def test_negative_and_bool_ids_exit_2(doc, message, tmp_path):
    # The loader vets every id before it builds: no bool, and no negative id
    # beside a labels map, reaches the builder.
    path = tmp_path / "bad.complex"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    assert run(["validate", str(path)], out, err) == 2
    assert (out.getvalue(), err.getvalue()) == ("", f"hdx: {message}\n")


def test_negative_ids_without_labels_are_labels():
    # Without a labels map a negative id is a label, and the builder sees dense ids.
    X = from_document({"edges": [[-1, 0], [0, 5]]})
    assert (X.n_vertices, X.edges, X.labels) == (3, ((0, 1), (1, 2)), (-1, 0, 5))


def test_build_extra_edges_and_isolated_vertices():
    X = build_from_triangles([(0, 1, 2)], [(2, 4)], n_vertices=6)
    assert X.n_vertices == 6
    assert (2, 4) in X.edges
    assert X.vertex_edges[5] == ()
    assert X.vertex_edges[3] == ()


@pytest.mark.parametrize("n,expect", [(3, (3, 3, 1)), (4, (4, 6, 4)), (5, (5, 10, 10))])
def test_complete_counts(n, expect):
    X = complete_complex(n)
    assert (X.n_vertices, X.n_edges, X.n_triangles) == expect


@pytest.mark.parametrize("n,k", [(3, (2, 1)), (4, (3, 2)), (5, (4, 3))])
def test_complete_regularity(n, k):
    assert complete_complex(n).regular == k


def test_degree_profile_single_triangle():
    X = build_from_triangles([(0, 1, 2)])
    assert X.regular == (2, 1) and X.regular is X.regular
    # Regular needs at least one vertex and one edge, and both degrees constant.
    assert build_from_triangles([], n_vertices=3).regular is None
    assert build_from_triangles([], [(0, 1)]).regular == (1, 0)
    assert build_from_triangles([(0, 1, 2)], [(0, 3)]).regular is None
    assert build_from_triangles([], [(0, 1)], n_vertices=3).regular is None


def test_degree_sums():
    X = random_complex(6, 0.5, seed=3)
    assert sum(len(es) for es in X.vertex_edges) == 2 * X.n_edges
    assert sum(len(ts) for ts in X.edge_triangles) == 3 * X.n_triangles


def test_complete_edge_count_identity():
    # |E| = k0 * |V| / 2 whenever the complex is regular
    for n in range(2, 13):
        X = complete_complex(n)
        k0, _ = X.regular
        assert 2 * X.n_edges == k0 * X.n_vertices
        assert X.n_edges == comb(n, 2) and X.n_triangles == comb(n, 3)


def test_random_p1_is_complete():
    assert random_complex(5, 1.0, seed=11) == complete_complex(5)


def test_random_p0_keeps_full_skeleton():
    X = random_complex(5, 0.0, seed=11)
    assert X.n_edges == comb(5, 2)
    assert X.n_triangles == 0


def test_random_seed_determinism_and_variation():
    assert random_complex(6, 0.5, seed=7) == random_complex(6, 0.5, seed=7)
    base = random_complex(6, 0.5, seed=0)
    assert any(random_complex(6, 0.5, seed=s) != base for s in range(1, 101))


def test_random_rejects_bad_probability():
    with pytest.raises(ParameterError):
        random_complex(5, -0.1, seed=0)
    with pytest.raises(ParameterError):
        random_complex(5, 1.1, seed=0)


def test_incidence_rebuild_matches():
    # Each derived map against its definition, read off the face lists.
    for X in (complete_complex(5), random_complex(6, 0.4, seed=5), build_from_triangles([])):
        E, T = X.edges, X.triangles
        assert X.vertex_edges == tuple(
            tuple(i for i, e in enumerate(E) if v in e) for v in range(X.n_vertices)
        )
        assert X.edge_triangles == tuple(
            tuple(j for j, t in enumerate(T) if set(e) <= set(t)) for e in E
        )
        assert X.triangle_edge_ids == tuple(
            tuple(i for i, e in enumerate(E) if set(e) <= set(t)) for t in T
        )


def test_validate_accepts_valid():
    # The reference check finds nothing in what the builders and the loader make.
    assert findings(complete_complex(4)) == []
    assert findings(build_from_triangles([])) == []
    named = [X for X in vars(named_complexes).values() if isinstance(X, Complex2)]
    assert len(named) == 11
    for X in named:
        assert findings(X) == [] and findings(named_complexes.relabel(X, 3)) == []


def test_validate_detects_missing_edge():
    X = complete_complex(3)
    damaged = Complex2(X.n_vertices, X.edges[1:], X.triangles)
    assert findings(damaged) == ["closure violation: triangle (0, 1, 2) missing edge (0, 1)"]


def test_findings_name_each_kind_of_damage():
    X = complete_complex(3)
    cases = [
        (Complex2(2, X.edges, X.triangles), "edge 1 has vertex id out of range: (0, 2)"),
        (Complex2(3, ((1, 0),) + X.edges[1:], X.triangles), "edge 0 not a sorted 2-tuple"),
        (Complex2(3, X.edges[::-1], X.triangles), "edges not listed once each"),
        (Complex2(3, X.edges, X.triangles * 2), "triangles not listed once each"),
        (Complex2(3, X.edges, ((0, 2, 1),)), "triangle 0 not a sorted 3-tuple"),
        (Complex2(-1, (), ()), "negative vertex count -1"),
    ]
    for damaged, finding in cases:
        assert any(f.startswith(finding) for f in findings(damaged)), (damaged, findings(damaged))


def test_roundtrip_is_facewise_identity():
    for X in (complete_complex(4), random_complex(6, 0.5, seed=9), build_from_triangles([])):
        assert loads_complex(dumps_complex(X)) == X


def test_labelled_file_roundtrip():
    doc = {"triangles": [["a", "b", "c"]], "edges": [["c", "d"]]}
    X = from_document(doc)
    assert X.labels == ("a", "b", "c", "d")
    assert (X.n_vertices, X.n_edges, X.n_triangles) == (4, 4, 1)
    assert loads_complex(dumps_complex(X)) == X


def test_integer_ids_taken_literally():
    X = from_document({"vertices": [0, 1, 2, 3], "triangles": [[0, 1, 2]]})
    assert X.n_vertices == 4
    assert X.labels is None


def test_document_shape():
    doc = to_document(complete_complex(3))
    assert doc["vertices"] == [0, 1, 2]
    assert doc["edges"] == [[0, 1], [0, 2], [1, 2]]
    assert doc["triangles"] == [[0, 1, 2]]


def test_loads_rejects_garbage():
    with pytest.raises(ParameterError):
        loads_complex("not json at all {")


def test_mixed_labels_sorted_ints_first():
    doc = {"edges": [["b", 3], [3, "a"]], "triangles": []}
    X = from_document(doc)
    assert X.labels == (3, "a", "b")
    assert X.edges == ((0, 1), (0, 2))


def test_labels_map_with_string_faces_rejected():
    with pytest.raises(ParameterError):
        from_document({"triangles": [["a", "b", "c"]], "labels": {"0": "a"}})


TETRAHEDRON = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]


def test_labels_map_keys_set_the_vertex_count():
    X = from_document({"triangles": TETRAHEDRON, "labels": {"9": "z"}})
    assert X.n_vertices == 10
    assert X.labels == (*range(9), "z")
    X = from_document({"triangles": TETRAHEDRON, "labels": {"0": "a", "2": "c"}})
    assert X.n_vertices == 4
    assert X.labels == ("a", 1, "c", 3)


@pytest.mark.parametrize("key", ["note", "01", "-1", "+1", " 1", "1.0", "", "\u0661", "1_0"])
def test_labels_map_key_that_is_not_a_vertex_id_is_refused(key):
    labels = {"0": "a", "1": "b", "2": "c", "3": "d", key: "x"}
    with pytest.raises(ParameterError, match=re.escape(repr(key))):
        from_document({"triangles": TETRAHEDRON, "labels": labels})


def test_labels_map_key_above_the_vertex_limit_is_refused():
    with pytest.raises(CapacityError):
        from_document({"triangles": TETRAHEDRON, "labels": {str(VERTEX_LIMIT): "x"}})
    with pytest.raises(CapacityError):
        from_document({"labels": {"1" + "0" * 5000: "x"}})


def test_explicit_vertices_allow_gaps_as_isolated():
    X = from_document({"vertices": [0, 1, 2, 9], "triangles": [[0, 1, 2]]})
    assert X.n_vertices == 10
    assert X.vertex_edges[9] == ()


MALFORMED_DOCUMENTS = [
    {"triangles": 5},
    {"triangles": [None]},
    {"vertices": 3},
    {"labels": 3, "triangles": [[0, 1, 2]]},
    {"triangles": [[[0], 1, 2]]},
    {"triangles": ["abc"]},
    {"vertices": [None]},
    {"edges": [[True, 0]], "triangles": [[0, 1, 2]]},  # true would alias vertex 1
    {"edges": [[0, 1.5]]},
    {"labels": {"0": [1]}, "triangles": [[0, 1, 2]]},
]


@pytest.mark.parametrize("doc", MALFORMED_DOCUMENTS, ids=json.dumps)
def test_malformed_documents_raise_parameter_error(doc):
    with pytest.raises(ParameterError):
        from_document(doc)


def test_vertex_limit_refuses_before_allocating():
    with pytest.raises(CapacityError):
        from_document({"edges": [[0, 3000000]]})
    with pytest.raises(CapacityError):
        from_document({"vertices": [f"v{i}" for i in range(VERTEX_LIMIT + 1)]})
    with pytest.raises(CapacityError):
        from_document({"labels": {str(i): i for i in range(VERTEX_LIMIT + 1)}})
    assert from_document({"vertices": [VERTEX_LIMIT - 1]}).n_vertices == VERTEX_LIMIT


def test_generators_refuse_above_triangle_limit():
    n = max(n for n in range(200) if comb(n, 3) <= TRIANGLE_LIMIT)
    for build in (complete_complex, lambda n: random_complex(n, 0.5, 1)):
        for too_many in (n + 1, 10**12):
            with pytest.raises(CapacityError):
                build(too_many)
    assert random_complex(n, 0.0, 1).n_edges == comb(n, 2)
    with pytest.raises(ParameterError):
        random_complex(-1, 0.5, 1)


def test_complete_complex_k40_loads():
    X = complete_complex(40)
    assert loads_complex(dumps_complex(X)) == X


def test_loader_makes_no_per_triangle_copies():
    # K40's 9880 triangles: the parsed document and the faces, with no list of
    # every vertex id, no triangles unzipped into columns and no incidence map
    # beside them (about 193 bytes per triangle).
    text = dumps_complex(complete_complex(40))
    loads_complex(text)  # an untraced warm-up call
    assert traced_peak(loads_complex, text) <= 230 * comb(40, 3)


def test_loads_rejects_deep_nesting():
    with pytest.raises(ParameterError):
        loads_complex("[" * 100_000 + "]" * 100_000)
