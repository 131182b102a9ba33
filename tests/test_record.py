"""The value-class base, checked on the package's own classes and the tests' ``Chain``."""

from fractions import Fraction

import pytest

from chains import Chain
from hdxwalk.complexes import Complex2, complete_complex
from hdxwalk.errors import ParameterError
from named_complexes import complete_graph

from hdxwalk.graphs import Graph
from hdxwalk.spectral import CheegerResult


def test_equality_and_hash_are_field_wise():
    a, b = Chain(1, frozenset({0, 2})), Chain.of(1, [2, 0])
    assert a == b and hash(a) == hash(b) and a is not b
    assert a != Chain(1, frozenset({0})) and a != Chain(0, frozenset({0, 2}))
    assert len({a, b, Chain(1, frozenset())}) == 2
    assert complete_complex(5) == complete_complex(5)
    assert hash(complete_complex(5)) == hash(complete_complex(5))
    assert complete_complex(5) != complete_complex(4)


def test_complexes_with_the_same_faces_and_labels_are_equal():
    # The incidence maps are derived, not fields: a complex whose maps have been
    # read equals and hashes as one whose maps have not.
    X, Y = complete_complex(5), complete_complex(5)
    X.regular, X.vertex_edge_masks, X.edge_triangle_masks, X.triangle_edge_ids
    assert "edge_triangles" in vars(X) and "edge_triangles" not in vars(Y)
    assert X == Y and hash(X) == hash(Y)
    labelled = Complex2(**{**X.asdict(), "labels": tuple("abcde")})
    assert labelled != X and labelled == Complex2(5, Y.edges, Y.triangles, tuple("abcde"))
    assert X.asdict() == {
        "n_vertices": 5, "edges": Y.edges, "triangles": Y.triangles, "labels": None
    }


def test_equality_needs_the_same_class():
    assert Graph(1, 1) != CheegerResult(1, 1)
    assert Graph(1, 1) != (1, 1)
    assert Graph(1, 1).__eq__((1, 1)) is NotImplemented


def test_repr_names_every_field_in_order():
    assert repr(Chain(1, frozenset({3}))) == "Chain(dimension=1, members=frozenset({3}))"
    assert repr(Graph(3, 4)) == "Graph(n=3, adjacency=4)"
    assert repr(CheegerResult(Fraction(1, 2), (0,))) == (
        "CheegerResult(h_normalized=Fraction(1, 2), witness=(0,))"
    )


def test_fields_cannot_be_assigned_or_deleted():
    c = Chain(1, frozenset({0}))
    with pytest.raises(AttributeError, match="cannot assign to field 'dimension'"):
        c.dimension = 0
    with pytest.raises(AttributeError):
        c.extra = 1
    with pytest.raises(AttributeError, match="cannot delete field 'members'"):
        del c.members
    assert c == Chain(1, frozenset({0}))


def test_positional_keyword_and_default_arguments():
    X = complete_complex(3)
    assert X.labels is None
    args = (X.n_vertices, X.edges, X.triangles)
    Y = Complex2(*args)
    assert Y == X and Y.labels is None
    Z = Complex2(*args[:2], triangles=X.triangles, labels=("a", "b", "c"))
    assert Z.labels == ("a", "b", "c") and Z != X
    with pytest.raises(TypeError, match="missing required arguments: 'members'"):
        Chain(1)
    with pytest.raises(TypeError, match="unexpected keyword argument 'size'"):
        Chain(1, frozenset(), size=0)
    with pytest.raises(TypeError, match="multiple values for argument 'dimension'"):
        Chain(1, dimension=1)
    with pytest.raises(TypeError, match="takes 2 arguments but 3 were given"):
        Chain(1, frozenset(), 0)


def test_post_init_checks_and_normalises():
    assert Chain(1, [2, 1]).members == frozenset({1, 2})
    assert Chain(members=(0,), dimension=2).members == frozenset({0})
    with pytest.raises(ParameterError, match="dimension must be 0, 1 or 2"):
        Chain(3, frozenset())
    with pytest.raises(ParameterError, match="non-negative integers"):
        Chain(1, frozenset({-1}))
    assert type(Chain(0, [1]).members) is frozenset
    with pytest.raises(ParameterError, match="non-negative integers, got 1.0"):
        Chain(0, [1.0])
    with pytest.raises(ParameterError, match="non-negative integers, got 'a'"):
        Chain(0, "a")


def test_cached_property_is_stored_once_and_fields_stay_frozen():
    # Derived on first read and stored where the cached property keeps it.
    X = complete_complex(4)
    assert "triangle_edge_ids" not in vars(X)
    ids = X.triangle_edge_ids
    assert X.triangle_edge_ids is ids and vars(X)["triangle_edge_ids"] is ids
    assert ids[0] == (0, 1, 3) and ids == complete_complex(4).triangle_edge_ids
    G = complete_graph(4)
    assert G.degrees == (3, 3, 3, 3) and G.degrees is G.degrees and G.regular_k == 3
    # A cached value is not a field: equality and hash ignore it.
    assert G == Graph(4, G.adjacency) and hash(G) == hash(Graph(4, G.adjacency))
    with pytest.raises(AttributeError):
        G.n = 5


def test_asdict():
    X = complete_complex(3)
    # A copy with some fields changed, through __init__, so Chain's checks run again.
    Y = type(X)(**{**X.asdict(), "labels": ("a", "b", "c")})
    assert Y.labels == ("a", "b", "c") and X.labels is None
    assert type(Y)(**{**Y.asdict(), "labels": None}) == X
    c = Chain(1, frozenset({0}))
    with pytest.raises(ParameterError):
        Chain(**{**c.asdict(), "dimension": 5})
    assert Graph(1, 2).asdict() == {"n": 1, "adjacency": 2}
    assert list(X.asdict()) == ["n_vertices", "edges", "triangles", "labels"]
