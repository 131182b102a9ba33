"""Construction, generation, validation, and serialization of complexes."""

import json
import re
from math import comb

import pytest

from hdxwalk.complexes import (
    TRIANGLE_LIMIT,
    VERTEX_LIMIT,
    _incidence,
    build_from_triangles,
    complete_complex,
    degree_profile,
    dumps_complex,
    from_document,
    loads_complex,
    random_complex,
    to_document,
    validate,
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
    with pytest.raises(InvalidFaceError):
        build_from_triangles([(-1, 0, 1)])


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
    with pytest.raises(HdxError) as built:
        build_from_triangles(triangles, edges)
    with pytest.raises(HdxError) as loaded:
        from_document({"triangles": [list(t) for t in triangles], "edges": [list(e) for e in edges]})
    assert str(built.value) == str(loaded.value) == message
    with pytest.raises(type(built.value)):
        build_from_triangles(triangles, edges, n_vertices=-1)
    with pytest.raises(ParameterError, match="n_vertices must be non-negative"):
        build_from_triangles([(0, 1, 2)], [(1, 3)], n_vertices=-1)


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
    assert degree_profile(complete_complex(n)).regular == k


def test_degree_profile_single_triangle():
    assert degree_profile(build_from_triangles([(0, 1, 2)])).regular == (2, 1)


def test_degree_sums():
    X = random_complex(6, 0.5, seed=3)
    profile = degree_profile(X)
    assert sum(profile.vertex_edge_degrees) == 2 * X.n_edges
    assert sum(profile.edge_triangle_degrees) == 3 * X.n_triangles


def test_complete_edge_count_identity():
    # |E| = k0 * |V| / 2 whenever the complex is regular
    for n in range(2, 13):
        X = complete_complex(n)
        k0, _ = degree_profile(X).regular
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
    for X in (complete_complex(5), random_complex(6, 0.4, seed=5), build_from_triangles([])):
        assert _incidence(X.n_vertices, X.edges, X.triangles)[:2] == (
            X.vertex_edges,
            X.edge_triangles,
        )


def test_validate_accepts_valid():
    assert validate(complete_complex(4)).ok
    assert validate(build_from_triangles([])).ok


def test_validate_detects_missing_edge():
    X = complete_complex(3)
    damaged = X.replace(edges=X.edges[1:])
    report = validate(damaged)
    assert not report.ok
    assert any("closure" in f for f in report.findings)


def test_validate_detects_stale_incidence():
    X = complete_complex(4)
    Y = build_from_triangles([(0, 1, 2)], [(0, 3), (1, 3), (2, 3)])
    damaged = X.replace(triangles=Y.triangles)
    assert not validate(damaged).ok


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


def test_loads_rejects_deep_nesting():
    with pytest.raises(ParameterError):
        loads_complex("[" * 100_000 + "]" * 100_000)
