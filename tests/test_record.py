"""The value-class base, checked on the package's own classes and the tests' ``Chain``."""

from fractions import Fraction

import pytest

from chains import Chain
from hdxwalk.complexes import Complex2, complete_complex
from hdxwalk.errors import ParameterError
from named_complexes import complete_graph

from hdxwalk.graphs import Graph
from hdxwalk.spectral import CheegerResult
from hdxwalk.walk import Distribution


def test_equality_and_hash_are_field_wise():
    a, b = Chain(1, frozenset({0, 2})), Chain.of(1, [2, 0])
    assert a == b and hash(a) == hash(b) and a is not b
    assert a != Chain(1, frozenset({0})) and a != Chain(0, frozenset({0, 2}))
    assert len({a, b, Chain(1, frozenset())}) == 2
    assert complete_complex(5) == complete_complex(5)
    assert hash(complete_complex(5)) == hash(complete_complex(5))
    assert complete_complex(5) != complete_complex(4)


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
    args = (X.n_vertices, X.edges, X.triangles, X.vertex_edges, X.edge_triangles)
    Y = Complex2(*args)
    assert Y == X and Y.labels is None
    Z = Complex2(*args[:2], triangles=X.triangles, vertex_edges=X.vertex_edges,
                 edge_triangles=X.edge_triangles, labels=("a", "b", "c"))
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
    p = Distribution([1])
    assert p.probabilities == (1.0,) and type(p.probabilities[0]) is float
    with pytest.raises(ParameterError, match="must sum to 1"):
        Distribution((0.5, 0.6))
    with pytest.raises(ParameterError, match="at least one entry"):
        Distribution(())


def test_cached_property_is_stored_once_and_fields_stay_frozen():
    X = complete_complex(4)
    assert "edge_ids" not in vars(X)
    ids = X.edge_ids
    assert X.edge_ids is ids and vars(X)["edge_ids"] is ids
    assert X.triangle_edge_ids[0] == (0, 1, 3)
    G = complete_graph(4)
    assert G.degrees == (3, 3, 3, 3) and G.degrees is G.degrees and G.regular_k == 3
    # A cached value is not a field: equality and hash ignore it.
    assert G == Graph(4, G.adjacency) and hash(G) == hash(Graph(4, G.adjacency))
    with pytest.raises(AttributeError):
        G.n = 5


def test_replace_and_asdict():
    X = complete_complex(3)
    Y = X.replace(labels=("a", "b", "c"))
    assert Y.labels == ("a", "b", "c") and X.labels is None
    assert Y.replace(labels=None) == X
    c = Chain(1, frozenset({0}))
    assert c.replace(members=[1, 2]) == Chain(1, frozenset({1, 2}))
    with pytest.raises(ParameterError):
        c.replace(dimension=5)  # __post_init__ runs again
    with pytest.raises(TypeError, match="unexpected keyword argument 'size'"):
        c.replace(size=1)
    assert Graph(1, 2).asdict() == {"n": 1, "adjacency": 2}
    assert list(X.asdict()) == [
        "n_vertices", "edges", "triangles", "vertex_edges", "edge_triangles", "labels"
    ]
