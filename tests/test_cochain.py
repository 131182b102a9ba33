"""GF(2) code spaces, and the chain reference: coboundaries, local views and Hamming distances.

The expected values here come from independent brute force: coboundaries are
recomputed straight from the definitions (edge loops and odd-triangle counts)
and code spaces by filtering all subsets, never through the kernel/image code
under test.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from chains import Chain, coboundary_edges, coboundary_vertices, distance_to_space, local_view, span_iter
from named_complexes import build_from_triangles, edge_id

from hdxwalk import gf2
from hdxwalk.cochain import coboundary_space, cocycle_space
from hdxwalk.complexes import complete_complex, random_complex
from hdxwalk.errors import ParameterError

K4 = complete_complex(4)
K5 = complete_complex(5)


def edge_chain(X, *pairs):
    return Chain.of(1, [edge_id(X, u, v) for (u, v) in pairs])


# --- independent oracles ---------------------------------------------------


def brute_cut(X, vertices):
    """Edges with exactly one endpoint in the vertex set, by direct edge loop."""
    return {
        i for i, (u, v) in enumerate(X.edges) if (u in vertices) != (v in vertices)
    }


def brute_odd_triangles(X, edge_ids):
    """Triangles containing an odd number of the given edges, by direct count."""
    chosen = {X.edges[i] for i in edge_ids}
    out = set()
    for j, (u, v, w) in enumerate(X.triangles):
        count = sum(1 for pair in ((u, v), (u, w), (v, w)) if pair in chosen)
        if count % 2 == 1:
            out.add(j)
    return out


def brute_cocycles(X, i):
    """All subsets with empty coboundary, filtered from the full power set."""
    count = (X.n_vertices, X.n_edges)[i]
    brute = brute_cut if i == 0 else brute_odd_triangles
    return [
        frozenset(s)
        for r in range(count + 1)
        for s in combinations(range(count), r)
        if not brute(X, set(s))
    ]


# --- coboundaries ----------------------------------------------------------


def test_vertex_coboundary_empty():
    assert coboundary_vertices(K4, Chain.empty(0)).members == frozenset()


def test_vertex_coboundary_star():
    S = Chain.of(0, [0])
    assert coboundary_vertices(K4, S).members == frozenset(K4.vertex_edges[0])


def test_vertex_coboundary_pair():
    got = coboundary_vertices(K4, Chain.of(0, [0, 1]))
    want = {edge_id(K4, *e) for e in ((0, 2), (0, 3), (1, 2), (1, 3))}
    assert got.members == frozenset(want)
    assert len(got) == 4


def test_edge_coboundary_empty():
    assert coboundary_edges(K5, Chain.empty(1)).members == frozenset()


def test_edge_coboundary_single_edge():
    F = edge_chain(K4, (0, 1))
    got = coboundary_edges(K4, F)
    want = {K4.triangles.index((0, 1, 2)), K4.triangles.index((0, 1, 3))}
    assert got.members == frozenset(want)


def test_edge_coboundary_triangle_cycle_hits_all():
    F = edge_chain(K4, (0, 1), (0, 2), (1, 2))
    assert coboundary_edges(K4, F).members == frozenset(range(4))


def test_coboundaries_match_brute_force():
    for X in (K4, K5, random_complex(5, 0.6, seed=2)):
        for r in range(X.n_vertices + 1):
            for s in combinations(range(X.n_vertices), r):
                got = coboundary_vertices(X, Chain.of(0, s)).members
                assert got == brute_cut(X, set(s))
        for mask in range(1 << X.n_edges):
            ids = frozenset(i for i in range(X.n_edges) if mask >> i & 1)
            got = coboundary_edges(X, Chain(1, ids)).members
            assert got == brute_odd_triangles(X, ids)


# --- local views -----------------------------------------------------------


def test_local_view_examples():
    F = edge_chain(K4, (0, 1), (0, 2))
    assert local_view(K4, F, 0).members == F.members
    assert local_view(K4, F, 1).members == {edge_id(K4, 0, 1)}
    assert local_view(K4, F, 3).members == frozenset()


def test_local_view_partition_counts():
    # each edge has two endpoints, so local view sizes sum to 2|F|
    for mask in range(1 << K4.n_edges):
        F = Chain.from_mask(1, mask)
        total = sum(len(local_view(K4, F, v)) for v in range(K4.n_vertices))
        assert total == 2 * len(F)


# --- code spaces -----------------------------------------------------------


def test_cocycle_space_dims_k4():
    assert len(cocycle_space(K4, 0)) == 1
    assert len(cocycle_space(K4, 1)) == 3


def test_coboundary_space_dims_k4():
    assert len(coboundary_space(K4, 0)) == 1
    assert len(coboundary_space(K4, 1)) == 3


def test_two_disjoint_triangles_dims():
    X = build_from_triangles([(0, 1, 2), (3, 4, 5)])
    assert len(cocycle_space(X, 0)) == 2
    assert len(coboundary_space(X, 1)) == 4


def test_code_spaces_match_brute_force():
    for X in (K4, build_from_triangles([(0, 1, 2), (3, 4, 5)]), random_complex(5, 0.5, seed=4)):
        for i in (0, 1):
            words = brute_cocycles(X, i)
            z = cocycle_space(X, i)
            assert 2 ** len(z) == len(words)
            assert set(span_iter(z)) == {Chain(i, w).mask for w in words}
            b = coboundary_space(X, i)
            assert len(b) <= len(z)
            for m in b:
                assert Chain.from_mask(i, m).members in words  # every trivial zero is a cocycle


def test_b1_basis_elements_are_cuts():
    cuts = set(span_iter(gf2.row_reduce(K5.vertex_edge_masks)))
    for m in coboundary_space(K5, 1):
        assert m in cuts
        assert coboundary_edges(K5, Chain.from_mask(1, m)).members == frozenset()


def test_z_basis_has_empty_coboundary_both_dims():
    for X in (K4, K5, random_complex(6, 0.5, seed=8)):
        for i in (0, 1):
            for m in cocycle_space(X, i):
                c = Chain.from_mask(i, m)
                cob = coboundary_vertices(X, c) if i == 0 else coboundary_edges(X, c)
                assert cob.members == frozenset()


def test_complete_complex_has_b1_equal_z1():
    z = cocycle_space(K4, 1)
    b = coboundary_space(K4, 1)
    z_words = set(span_iter(z))
    b_words = set(span_iter(b))
    assert z_words == b_words


# --- distances -------------------------------------------------------------


def test_set_distance_basics():
    # The Hamming distance of two chains is the size of their sum.
    S = Chain.of(1, [0, 1])
    assert len(S ^ S) == 0
    assert len(Chain.empty(1) ^ Chain.of(1, range(5))) == 5
    assert len(Chain.of(1, [0, 1]) ^ Chain.of(1, [1, 2])) == 2


def test_set_distance_dimension_mismatch():
    with pytest.raises(ParameterError):
        Chain.empty(0) ^ Chain.empty(1)


def test_distance_zero_iff_codeword():
    z = cocycle_space(K4, 1)
    words = set(span_iter(z))
    for mask in range(1 << K4.n_edges):
        F = Chain.from_mask(1, mask)
        dist, nearest = distance_to_space(F, z)
        assert (dist == 0) == (mask in words)
        if dist == 0:
            assert nearest.members == F.members


def test_distance_single_edge_to_z1():
    F = edge_chain(K4, (0, 1))
    dist, nearest = distance_to_space(F, cocycle_space(K4, 1))
    assert dist == 1
    assert nearest.members == frozenset()


def test_distance_broken_star_to_z1():
    F = edge_chain(K4, (0, 2), (0, 3))  # star of 0 minus the edge {0,1}
    dist, nearest = distance_to_space(F, cocycle_space(K4, 1))
    assert dist == 1
    assert nearest.members == frozenset(K4.vertex_edges[0])


def test_distance_matches_brute_force():
    z = cocycle_space(K4, 1)
    words = [frozenset(w) for w in brute_cocycles(K4, 1)]
    for mask in range(1 << K4.n_edges):
        F = Chain.from_mask(1, mask)
        want = min(len(F.members ^ w) for w in words)
        got, nearest = distance_to_space(F, z)
        assert got == want
        assert len(F.members ^ nearest.members) == got


def test_distance_to_vertex_cocycles():
    # connected complex: Z^0 = {empty, V}, so the distance is min(|S|, |V \ S|)
    z0 = cocycle_space(K5, 0)
    for mask in range(1 << 5):
        S = Chain.from_mask(0, mask)
        dist, _ = distance_to_space(S, z0)
        assert dist == min(len(S), 5 - len(S))


def test_distance_to_trivial_space():
    # the zero-dimensional code contains only the empty chain
    F = Chain.of(1, [0, 2, 5])
    dist, nearest = distance_to_space(F, ())
    assert dist == 3 and nearest.members == frozenset()


# --- algebraic properties --------------------------------------------------


def test_delta1_after_delta0_vanishes_exhaustively():
    # exhaustive over all vertex subsets of every complex on <= 5 vertices below
    for X in (K4, K5, build_from_triangles([(0, 1, 2)]), random_complex(5, 0.7, seed=6)):
        for mask in range(1 << X.n_vertices):
            S = Chain.from_mask(0, mask)
            cut = coboundary_vertices(X, S)
            assert coboundary_edges(X, cut).members == frozenset()


@settings(max_examples=200)
@given(st.integers(0, 2**10 - 1), st.integers(0, 2**10 - 1))
def test_coboundary_linearity_on_k5(a, b):
    F, G = Chain.from_mask(1, a), Chain.from_mask(1, b)
    lhs = coboundary_edges(K5, F ^ G)
    rhs = coboundary_edges(K5, F) ^ coboundary_edges(K5, G)
    assert lhs.members == rhs.members


@settings(max_examples=200)
@given(st.integers(0, 2**5 - 1), st.integers(0, 2**5 - 1))
def test_vertex_coboundary_linearity_on_k5(a, b):
    S, T = Chain.from_mask(0, a), Chain.from_mask(0, b)
    lhs = coboundary_vertices(K5, S ^ T)
    rhs = coboundary_vertices(K5, S) ^ coboundary_vertices(K5, T)
    assert lhs.members == rhs.members


def test_b_subspace_of_z_both_dims():
    for X in (K4, K5, random_complex(6, 0.5, seed=1)):
        for i in (0, 1):
            z = cocycle_space(X, i)
            words = set(span_iter(z))
            for m in coboundary_space(X, i):
                assert m in words


def test_basis_is_linearly_independent():
    for X in (K4, K5, random_complex(6, 0.5, seed=12)):
        for i in (0, 1):
            for space in (cocycle_space(X, i), coboundary_space(X, i)):
                assert len(gf2.row_reduce(space)) == len(space)


def test_coboundary_linearity_on_random_complex():
    X = random_complex(6, 0.5, seed=31)
    rng_masks = [(a * 2654435761) % (1 << X.n_edges) for a in range(1, 201)]
    for a, b in zip(rng_masks, rng_masks[1:]):
        F, G = Chain.from_mask(1, a), Chain.from_mask(1, b)
        lhs = coboundary_edges(X, F ^ G)
        rhs = coboundary_edges(X, F) ^ coboundary_edges(X, G)
        assert lhs.members == rhs.members
