"""Walk engines: the portable RNG, exact evolution, and seeded ensembles."""

import io
import json
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import named_complexes
from loop_exact import loop_adjacency_matrix, loop_evolve_exact, loop_max_distances, propagated_distances
from named_complexes import (
    CUBOCTAHEDRON,
    RP2_6,
    TORUS_7,
    build_from_triangles,
    complete_graph,
    cycle_graph,
    edge_id,
    relabel,
    save_complex,
    triangulated_torus,
)
from named_complexes import OCTAHEDRON as OCTAHEDRON_COMPLEX
from scalar_walk import (
    derive_seed,
    edge_neighbor_table,
    high_order_simulate,
    randrange,
    scalar_step_counts,
    simulate,
)
from traced import traced_call

from hdxwalk import cli, spectral, walk
from hdxwalk.complexes import Complex2, complete_complex, random_complex
from hdxwalk.errors import (
    CapacityError,
    ParameterError,
    RegularityError,
    ToleranceError,
    UndefinedTransitionError,
)
from hdxwalk.expansion import certify_exact, gap_lambda2, mixing_rate_bound
from hdxwalk.graphs import Graph, edge_graph, underlying_graph
from hdxwalk.rng import _GAMMA, _mix, SplitMix64, derive_seeds, mix_array
from hdxwalk.spectral import DENSE_VERTEX_LIMIT, adjacency_matrix, eigensystem, normalized_spectrum
from hdxwalk.walk import WALK_CELL_LIMIT, WALK_VISIT_LIMIT, high_order_step_counts, max_distances

K4 = complete_complex(4)
K5 = complete_complex(5)
OCTAHEDRON = edge_graph(K4)


# --- RNG ---------------------------------------------------------------------


def test_splitmix64_reference_vector():
    # published outputs of splitmix64 for seed 1234567
    r = SplitMix64(1234567)
    assert [r.next_u64() for _ in range(5)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
        4593380528125082431,
        16408922859458223821,
    ]
    assert SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF


def test_derive_seed_is_root_stream_output():
    root = SplitMix64(42)
    outputs = [root.next_u64() for _ in range(4)]
    assert [derive_seed(42, i) for i in range(4)] == outputs


def test_vectorised_mix_and_substream_seeds_match_scalar():
    z = [0, 1, _GAMMA, 2**63, 2**64 - 1, 12345678901234567890]
    assert mix_array(np.array(z, dtype=np.uint64)).tolist() == [_mix(x) for x in z]
    for seed in (0, 42, -5, 2**64 - 1, 2**70 + 3):
        for start, stop in ((0, 300), (2**40, 2**40 + 5)):
            want = [derive_seed(seed, i) for i in range(start, stop)]
            assert derive_seeds(seed, start, stop).tolist() == want


def test_randrange_bounds_and_determinism():
    r = SplitMix64(7)
    draws = [randrange(r, 6) for _ in range(1000)]
    assert all(0 <= d < 6 for d in draws)
    replay = SplitMix64(7)
    assert draws == [randrange(replay, 6) for _ in range(1000)]
    # crude uniformity: every residue appears a reasonable number of times
    for v in range(6):
        assert 100 <= draws.count(v) <= 250


# --- exact evolution -------------------------------------------------------------


def test_k2_walk_alternates_forever():
    G = complete_graph(2)
    distances = max_distances(G, [0], 6)
    d0 = distances[0]
    assert d0 == pytest.approx(math.sqrt(0.5), abs=1e-15)
    assert all(abs(d - d0) <= 1e-12 for d in distances)


def test_octahedron_spectral_decay():
    distances = max_distances(OCTAHEDRON, [0], 64)
    d0 = distances[0]
    for i, d in enumerate(distances):
        assert d <= 0.5**i * d0 + 1e-9


def test_spectral_decay_on_nonbipartite_corpus():
    graphs = [complete_graph(4), complete_graph(5), OCTAHEDRON, edge_graph(K5), cycle_graph(5)]
    for G in graphs:
        lam = normalized_spectrum(G).lambda_max_nontrivial
        for start in range(G.n):
            distances = max_distances(G, [start], 40)
            d0 = distances[0]
            for i, d in enumerate(distances):
                assert d <= lam**i * d0 + 1e-9


def test_trace_steps_recomputable():
    # Each distance is ||M^t p0 - u|| for the explicit matrix power M^t, M = A/k.
    M = adjacency_matrix(OCTAHEDRON) / 4
    p0 = np.eye(6)[2]
    distances = max_distances(OCTAHEDRON, [2], 12)
    for t, d in enumerate(distances):
        assert abs(np.linalg.norm(np.linalg.matrix_power(M, t) @ p0 - 1 / 6) - d) <= 1e-14


def test_trace_preserves_stochasticity():
    # A probability vector p has ||p - u||**2 = ||p||**2 - 1/n, at most 1 - 1/n (a point mass).
    distances = max_distances(edge_graph(K5), [3], 50)
    assert distances[0] == pytest.approx(math.sqrt(0.9), abs=1e-15)
    assert all(0.0 <= d <= distances[0] + 1e-15 for d in distances)


def test_monotone_contraction_on_connected_regular():
    for G in (complete_graph(4), OCTAHEDRON, edge_graph(K5), cycle_graph(5)):
        distances = max_distances(G, [0], 30)
        for a, b in zip(distances, distances[1:]):
            assert b <= a + 1e-12


def test_evolve_rejects_irregular_and_isolated():
    with pytest.raises(RegularityError, match="exact evolution requires a regular graph"):
        max_distances(Graph.from_edges(3, [(0, 1), (1, 2)]), [0], 2)
    with pytest.raises(UndefinedTransitionError):
        max_distances(Graph.from_edges(2, []), range(2), 1)


# --- exact evolution against the loop reference ------------------------------------


@lru_cache(maxsize=None)
def k40_edges():
    """Edge graph of the complete complex on 40 vertices: 780 vertices, 76-regular."""
    return edge_graph(complete_complex(40))


EXACT_GRAPHS = {
    "K2 (bipartite)": complete_graph(2),
    "K4": complete_graph(4),
    "K5": complete_graph(5),
    "K6": complete_graph(6),
    "C5": cycle_graph(5),
    "C6 (bipartite)": cycle_graph(6),
    "octahedron": OCTAHEDRON,
    "T5": edge_graph(K5),
    "edge graph of K6": edge_graph(complete_complex(6)),
    "edge graph of the octahedron": edge_graph(OCTAHEDRON_COMPLEX),
    "edge graph of RP2_6": edge_graph(RP2_6),
    "two triangles (disconnected)": edge_graph(build_from_triangles([(0, 1, 2), (3, 4, 5)])),
    "edge graph of the cuboctahedron (disconnected)": edge_graph(CUBOCTAHEDRON),
}

# Largest difference allowed between the closed-form distances and the
# propagated ones.  The largest measured over these tests is 5.6e-15 (C6, 60 steps).
DRIFT = 1e-12


def _assert_matches_loop(distances, want, alpha):
    """Distances within DRIFT of the reference's, and the same ``walk --alpha`` ok column."""
    _, want_distances, want_ok = want
    assert len(distances) == len(want_distances)
    assert max(abs(a - b) for a, b in zip(distances, want_distances)) <= DRIFT
    if alpha is not None:
        assert tuple(d <= alpha**i + 1e-9 for i, d in enumerate(distances)) == want_ok


@pytest.mark.parametrize("alpha", [None, 0.9])
@pytest.mark.parametrize("name", list(EXACT_GRAPHS))
def test_evolve_exact_matches_loop_reference(name, alpha):
    G = EXACT_GRAPHS[name]
    for start in range(G.n):
        for steps in (0, 1, 60):
            want = loop_evolve_exact(G, start, steps, alpha)
            _assert_matches_loop(max_distances(G, [start], steps), want, alpha)


def test_evolve_exact_matches_loop_reference_on_k40_edges():
    G = k40_edges()
    for start in (0, 777):
        want = loop_evolve_exact(G, start, 2000, 0.99)
        _assert_matches_loop(max_distances(G, [start], 2000), want, 0.99)


def test_distance_blocks_do_not_depend_on_block_size(monkeypatch):
    G = edge_graph(K5)
    want = [max_distances(G, starts, 100) for starts in ([4], range(G.n))]
    for cells in (1, 7, 10, 33, 10**6):
        monkeypatch.setattr(walk, "_POWER_CELLS", cells)
        for starts, distances in zip(([4], range(G.n)), want):
            got = max_distances(G, starts, 100)
            assert max(abs(a - b) for a, b in zip(got, distances)) <= 1e-15


def test_distances_do_not_depend_on_the_basis_of_an_eigenspace():
    # A/k of K6 has eigenvalue -1/5 five times: rotate that eigenspace's basis.
    values, vectors, _ = eigensystem(complete_graph(6))
    assert np.allclose(values[:5], -0.2, atol=1e-12)
    Q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((5, 5)))
    rotated = vectors.copy()
    rotated[:, :5] = rotated[:, :5] @ Q
    diff = np.eye(6) - 1 / 6
    blocks = [walk._distance_blocks(values, V.T @ diff, 40) for V in (vectors, rotated)]
    a, b = (np.concatenate(list(parts)) for parts in blocks)
    assert np.abs(a - b).max() <= 1e-15


def test_evolve_exact_gates_the_eigensolver_residual(monkeypatch):
    # Every start reads the eigensystem; one start reads the Krylov measure (below).
    G = k40_edges()
    values, vectors, residual = eigensystem(G)
    assert 0 < residual <= 1e-9  # the largest benchmark graph passes the default gate
    monkeypatch.setattr(spectral, "_eigensystem", lambda G: (values, vectors, 2e-9))
    with pytest.raises(ToleranceError, match="residual 2.000e-09 exceeds tolerance 1.000e-09"):
        max_distances(G, range(G.n), 3)


def test_dense_matrices_match_loops():
    irregular = [
        Graph.from_edges(0, []),
        Graph.from_edges(1, []),
        Graph.from_edges(4, [(1, 2)]),
        Graph.from_edges(3, [(0, 1), (1, 2)]),
        Graph.from_edges(7, [(0, 5), (0, 6), (1, 2), (2, 6), (3, 4), (4, 6)]),
        edge_graph(random_complex(6, 0.5, 3)),
    ]
    for G in list(EXACT_GRAPHS.values()) + [k40_edges()] + irregular:
        assert np.array_equal(adjacency_matrix(G), loop_adjacency_matrix(G))


def test_evolve_exact_peak_memory_holds_no_table():
    G = k40_edges()
    G.regular_k  # cached before tracing
    spectral._eigensystem.cache_clear()
    table, matrix, gather = 2001 * G.n * 8, G.n * G.n * 8, G.n * G.regular_k * 8
    # One start solves nothing of size n x n: a Krylov basis of 2 vectors (in room
    # for 8) and a few (n, k) gathers; never a (steps + 1) x n table (12.5 MB).
    distances, peak = traced_call(max_distances, G, [0], 2000)
    assert peak < 8 * G.n * 8 + 3 * gather + 2**19 < table / 4
    assert spectral._eigensystem.cache_info().currsize == 0
    assert len(distances) == 2001 and distances[0] == pytest.approx(math.sqrt(1 - 1 / G.n))
    # The solve: adjacency, eigenvectors and the residual's two temporaries.
    assert traced_call(max_distances, G, range(G.n), 0)[1] < 4 * matrix + 2**20
    # Every start: the coefficients, squared in place, and one scaled copy (n x n
    # each), and one block of powers and of distances, whatever the number of steps.
    # A separate array of squares would make it 3.44 n x n arrays.
    _, peak0 = traced_call(max_distances, G, range(G.n), 0)
    distances, peak = traced_call(max_distances, G, range(G.n), 2000)
    assert peak0 < 2 * matrix + 2**19 and peak <= 2.75 * matrix
    assert peak < peak0 + 4 * 8 * walk._POWER_CELLS + 2**19 < peak0 + table / 4
    assert len(distances) == 2001 and distances[0] == pytest.approx(math.sqrt(1 - 1 / G.n))


def test_dense_matrices_refused_above_limit():
    assert k40_edges().n <= DENSE_VERTEX_LIMIT  # the largest benchmark graph
    big = cycle_graph(DENSE_VERTEX_LIMIT + 1)
    for build in (adjacency_matrix, eigensystem, normalized_spectrum):
        with pytest.raises(CapacityError):
            build(big)
    # Every start reads the dense solve; one start is not limited by it (below).
    with pytest.raises(CapacityError):
        max_distances(big, [0, 1], 0)
    g1 = edge_graph(complete_complex(65))  # 2080 edges
    with pytest.raises(CapacityError):
        max_distances(g1, range(g1.n), 0)


# --- one start: the Krylov measure --------------------------------------------------

NAMED_REGULAR = {
    name: X for name, X in vars(named_complexes).items() if isinstance(X, Complex2) and X.regular
}


@pytest.mark.parametrize("name", sorted(NAMED_REGULAR))
def test_one_start_matches_the_loop_reference_on_every_named_complex(name):
    # steps + 1 caps the Krylov basis, so short walks stop it before breakdown.
    G = edge_graph(NAMED_REGULAR[name])
    for start in range(G.n):
        for steps in (0, 1, 3, 2000):
            _assert_matches_loop(max_distances(G, [start], steps), loop_evolve_exact(G, start, steps), None)


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(sorted(NAMED_REGULAR)),
    seed=st.integers(0, 2**32 - 1),
    start=st.integers(0, 41),
    steps=st.integers(0, 2000),
)
def test_one_start_matches_the_loop_reference_under_relabelling(name, seed, start, steps):
    G = edge_graph(relabel(NAMED_REGULAR[name], seed))
    start %= G.n
    _assert_matches_loop(max_distances(G, [start], steps), loop_evolve_exact(G, start, steps), None)


def test_one_start_on_an_even_cycle_keeps_the_eigenvalue_minus_one():
    # C12 is bipartite: e_j - u keeps weight 1/12 on the eigenvalue -1 for ever.
    G = cycle_graph(12)
    for start in range(G.n):
        distances = max_distances(G, [start], 2000)
        _assert_matches_loop(distances, loop_evolve_exact(G, start, 2000), None)
        assert abs(distances[-1] - math.sqrt(1 / 12)) <= 1e-15


def test_one_start_on_a_disconnected_edge_graph_does_not_drift():
    # The cuboctahedron's edge graph is 8 disjoint triangles: the eigenvalue 1 has
    # weight 1/3 - 1/24 from every start, split off exactly, so 20,000 powers of a
    # value rounded just below 1 cannot drift.
    G = edge_graph(CUBOCTAHEDRON)
    values, coefficients, _ = spectral.start_measure(G, 0, 20000)
    assert (values[0], coefficients[0]) == (1.0, math.sqrt(1 / 3 - 1 / 24))
    for start in (0, 13, 23):
        _, want, _ = loop_evolve_exact(G, start, 20000)
        got = max_distances(G, [start], 20000)
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-13


def test_one_start_above_the_dense_limit_matches_propagation():
    G = edge_graph(triangulated_torus(30, 30))
    assert G.n == 2700 > DENSE_VERTEX_LIMIT
    steps = WALK_CELL_LIMIT // G.n - 1  # 775, the longest walk allowed on it
    spectral._eigensystem.cache_clear()
    got = max_distances(G, [0], steps)
    assert spectral._eigensystem.cache_info().currsize == 0
    assert max(abs(a - b) for a, b in zip(got, propagated_distances(G, 0, steps))) <= DRIFT


def test_one_start_gates_the_lanczos_residual():
    G = k40_edges()
    # K40's edge graph is strongly regular: e_0 - u sees two eigenvalues, after 1 and -1.
    values, coefficients, residual = spectral.start_measure(G, 0, 2000)
    assert values.size == coefficients.size == 4
    assert 0 < residual <= 1e-9
    with pytest.raises(ToleranceError, match=r"Lanczos residual .* exceeds tolerance 1\.000e-17"):
        max_distances(G, [0], 3, tol=1e-17)


def test_one_start_peak_memory_is_the_krylov_basis():
    # K65's edge graph: 2080 vertices, 126-regular, above DENSE_VERTEX_LIMIT.
    G = edge_graph(complete_complex(65))
    G.regular_k  # cached before tracing
    spectral._eigensystem.cache_clear()
    gather = G.n * G.regular_k * 8
    distances, peak = traced_call(max_distances, G, [0], 100)
    # A basis of 2 vectors (in room for 8) and a few (n, k) gathers; one dense
    # n x n matrix would take 34.6 MB.
    assert peak < 8 * G.n * 8 + 3 * gather + 2**19 < G.n * G.n * 8 / 4
    assert spectral._eigensystem.cache_info().currsize == 0
    assert max(abs(a - b) for a, b in zip(distances, propagated_distances(G, 0, 100))) <= DRIFT


# --- neighbor rule ---------------------------------------------------------------


def test_high_order_neighbors_k4():
    e = edge_id(K4, 0, 1)
    want = {edge_id(K4, *p) for p in ((0, 2), (1, 2), (0, 3), (1, 3))}
    assert set(edge_graph(K4).adjacency[e]) == want


def test_high_order_neighbors_regular_size():
    for e in range(K5.n_edges):
        assert len(edge_graph(K5).adjacency[e]) == 6  # 2 * k1


def test_high_order_neighbors_are_the_triangle_incidences():
    for X in (K4, K5, OCTAHEDRON_COMPLEX, RP2_6, random_complex(7, 0.5, 3)):
        table = edge_neighbor_table(X)
        assert edge_graph(X).adjacency == table


def test_high_order_neighbors_triangle_free_edge():
    X = build_from_triangles([(0, 1, 2)], [(0, 3)])
    assert edge_graph(X).adjacency[edge_id(X, 0, 3)] == ()


# --- simulation ------------------------------------------------------------------


def test_simulate_zero_steps():
    assert simulate(complete_graph(4), 2, 0, seed=1) == (2,)
    assert high_order_simulate(K4, 3, 0, seed=1) == (3,)


def test_simulate_k2_alternates():
    path = simulate(complete_graph(2), 0, 7, seed=123)
    assert path == (0, 1, 0, 1, 0, 1, 0, 1)


def test_simulate_determinism():
    a = simulate(complete_graph(4), 0, 50, seed=9)
    b = simulate(complete_graph(4), 0, 50, seed=9)
    assert a == b
    assert a != simulate(complete_graph(4), 0, 50, seed=10)


def test_high_order_simulate_determinism_and_validity():
    a = high_order_simulate(K4, 0, 40, seed=5)
    assert a == high_order_simulate(K4, 0, 40, seed=5)
    for prev, cur in zip(a, a[1:]):
        assert cur in edge_graph(K4).adjacency[prev]


def test_walk_engines_agree_through_edge_graph():
    # the edge walk on X and the vertex walk on its edge-graph share the rule
    # (edge-graph vertex e is edge e)
    for seed in (0, 1, 2, 77):
        ho = high_order_simulate(K5, 4, 25, seed=seed)
        assert simulate(edge_graph(K5), 4, 25, seed=seed) == ho


def test_simulate_stuck_edge_errors():
    X = build_from_triangles([(0, 1, 2)], [(0, 3)])
    with pytest.raises(UndefinedTransitionError):
        high_order_simulate(X, edge_id(X, 0, 3), 1, seed=0)


# --- ensembles --------------------------------------------------------------------


def test_step_counts_shape_and_totals():
    counts = high_order_step_counts(K4, 0, 6, paths=500, seed=11)
    assert len(counts) == 7
    assert all(sum(row) == 500 for row in counts)
    assert counts[0][0] == 500


def test_step_counts_validate_arguments():
    for paths in (10, 0):
        with pytest.raises(ParameterError):
            high_order_step_counts(K5, 0, -1, paths=paths, seed=1)
    with pytest.raises(ParameterError):
        high_order_step_counts(K5, 0, 3, paths=-1, seed=1)
    with pytest.raises(ParameterError):
        high_order_step_counts(K5, 10, 3, paths=1, seed=1)


def test_walk_capacity_refused_before_allocating():
    # The largest benchmark jobs fit: K40 exact for 2000 steps, K5 with 1e5 paths of 8 steps.
    assert 2001 * 780 <= WALK_CELL_LIMIT and 100_000 * 9 <= WALK_VISIT_LIMIT
    with pytest.raises(CapacityError):
        high_order_step_counts(K5, 0, 10**8, paths=1, seed=0)
    with pytest.raises(CapacityError):
        high_order_step_counts(K5, 0, 8, paths=WALK_VISIT_LIMIT, seed=0)
    with pytest.raises(CapacityError):
        high_order_step_counts(K5, 0, 0, paths=10**30, seed=0)
    with pytest.raises(CapacityError):
        max_distances(edge_graph(K5), range(10), 10**8)
    steps = WALK_CELL_LIMIT // 10 - 1
    assert len(high_order_step_counts(K5, 0, steps, paths=0, seed=0)) == steps + 1


def test_step_counts_reproducible():
    a = high_order_step_counts(K4, 0, 5, paths=300, seed=4)
    b = high_order_step_counts(K4, 0, 5, paths=300, seed=4)
    assert a == b


def test_ensemble_tracks_exact_distribution():
    paths = 20000
    counts = high_order_step_counts(K4, 0, 5, paths=paths, seed=2024)
    distributions, _, _ = loop_evolve_exact(edge_graph(K4), 0, 5)
    empirical = [c / paths for c in counts[5]]
    tv = 0.5 * sum(abs(a - b) for a, b in zip(empirical, distributions[5]))
    assert tv < 0.02


# --- ensemble against the scalar reference ------------------------------------------


_MASK64 = 2**64 - 1


def _unxorshift(y, shift):
    x = y
    for _ in range(64 // shift + 1):
        x = y ^ (x >> shift)
    return x


def _unmix(y):
    """Inverse of the SplitMix64 finaliser ``rng._mix``."""
    y = _unxorshift(y, 31)
    y = (y * pow(0x94D049BB133111EB, -1, 2**64)) & _MASK64
    y = _unxorshift(y, 27)
    y = (y * pow(0xBF58476D1CE4E5B9, -1, 2**64)) & _MASK64
    return _unxorshift(y, 30)


def _seed_with_first_draw(path, draw):
    """A root seed whose given path draws ``draw`` first."""
    state = (_unmix(draw) - _GAMMA) & _MASK64
    return (_unmix(state) - (path + 1) * _GAMMA) & _MASK64


def _assert_counts_match_reference(X, e0, steps, paths, seed):
    try:
        want = scalar_step_counts(X, e0, steps, paths, seed)
    except UndefinedTransitionError as exc:
        with pytest.raises(UndefinedTransitionError, match=str(exc)):
            high_order_step_counts(X, e0, steps, paths=paths, seed=seed)
        return
    assert high_order_step_counts(X, e0, steps, paths=paths, seed=seed) == want


@pytest.mark.parametrize(
    "X",
    [K4, K5, complete_complex(6), OCTAHEDRON_COMPLEX, RP2_6],
    ids=["k4", "k5", "k6", "octahedron", "rp2"],
)
def test_step_counts_match_scalar_reference_on_named_complexes(X):
    for e0 in (0, X.n_edges - 1):
        for seed in (0, 7, 2**64 - 1, -3):
            _assert_counts_match_reference(X, e0, 10, 300, seed)


def test_step_counts_match_scalar_reference_on_irregular_complexes():
    degrees = set()
    for s in range(24):
        X = random_complex(7, 0.5, s)
        table = edge_neighbor_table(X)
        degrees.update(map(len, table))
        stuck = [e for e in range(X.n_edges) if not table[e]]
        for e0 in {0, s % X.n_edges, *stuck[:1]}:
            _assert_counts_match_reference(X, e0, 9, 200, s)
    assert len(degrees) >= 6 and 0 in degrees


def test_step_counts_match_scalar_reference_at_edge_cases(monkeypatch):
    X = OCTAHEDRON_COMPLEX
    _assert_counts_match_reference(X, 3, 5, 0, 1)
    _assert_counts_match_reference(X, 3, 0, 10, 1)
    _assert_counts_match_reference(X, 3, 2, walk._BLOCK + 3, 1)
    monkeypatch.setattr(walk, "_BLOCK", 7)
    for paths in (1, 6, 7, 8, 50):
        _assert_counts_match_reference(X, 3, 6, paths, 5)


def test_step_counts_at_the_rejection_threshold(monkeypatch):
    # At degree 6 the largest accepted draw is 2**64 - 5; at degree 2, 2**64 - 1.
    triangle = build_from_triangles([(0, 1, 2)])
    cases = [(K5, _MASK64), (K5, _MASK64 - 3), (K5, _MASK64 - 4), (triangle, _MASK64)]
    for X, draw in cases:
        for path, block in ((0, walk._BLOCK), (9, 7)):
            seed = _seed_with_first_draw(path, draw)
            assert SplitMix64(derive_seed(seed, path)).next_u64() == draw
            monkeypatch.setattr(walk, "_BLOCK", block)
            _assert_counts_match_reference(X, 0, 6, 20, seed)


def test_step_counts_are_sums_of_simulated_paths():
    X, steps, paths, seed = RP2_6, 12, 40, 99
    want = np.zeros((steps + 1, X.n_edges), dtype=np.int64)
    for i in range(paths):
        path = high_order_simulate(X, 2, steps, derive_seed(seed, i))
        want[np.arange(steps + 1), path] += 1
    assert high_order_step_counts(X, 2, steps, paths=paths, seed=seed) == tuple(
        map(tuple, want.tolist())
    )


# --- end-to-end mixing audit --------------------------------------------------------


def certified_audit(X, steps):
    """verify-theorem's walk audit on X, from the library: the rate it certifies, the
    largest distance to uniform over every start edge per step, and each step's
    check against rate**t + slack."""
    lambda2 = gap_lambda2(underlying_graph(X), "rate bound requires")
    rate = mixing_rate_bound(certify_exact(X).epsilon_cosystolic, lambda2)
    g1 = edge_graph(X)
    distances = max_distances(g1, range(g1.n), steps)
    return rate, distances, tuple(d <= rate**i + 1e-9 for i, d in enumerate(distances))


def verify_theorem(X, tmp_path, *args):
    """verify-theorem's exit code and report on X."""
    path = str(tmp_path / "x.complex")
    save_complex(X, path)
    out = io.StringIO()
    code = cli.run(["verify-theorem", path, *args], out, io.StringIO())
    return code, json.loads(out.getvalue()) if out.getvalue() else None


def not_applicable_reason(X, tmp_path):
    """verify-theorem's reason on X, where the audit is never run."""
    code, doc = verify_theorem(X, tmp_path, "--steps", "10")
    assert code == 0 and "walk" not in doc["results"]
    return doc["results"]["reason"]


def test_rapid_mixing_audit_k4(tmp_path):
    code, doc = verify_theorem(K4, tmp_path, "--steps", "100")
    results = doc["results"]
    assert code == 0 and doc["status"] == "pass" and all(results["walk"]["bound_ok"])
    assert 0 < results["rate_bound"] < 1
    assert results["edge_graph"]["lambda_max_nontrivial"] == pytest.approx(0.5, abs=1e-9)
    rate, distances, bound_ok = certified_audit(K4, 100)
    assert (results["rate_bound"], results["walk"]["max_distances"]) == (rate, list(distances))
    assert len(distances) == 101 and all(bound_ok)


def test_rapid_mixing_audit_k5(tmp_path):
    code, doc = verify_theorem(K5, tmp_path, "--steps", "100")
    assert code == 0 and doc["status"] == "pass"
    assert doc["results"]["edge_graph"]["lambda_max_nontrivial"] == pytest.approx(1 / 3, abs=1e-9)
    assert all(certified_audit(K5, 100)[2])


def test_rapid_mixing_not_applicable_irregular(tmp_path):
    X = build_from_triangles([(0, 1, 2)], [(0, 3)])
    assert "regular" in not_applicable_reason(X, tmp_path)


def test_rapid_mixing_not_applicable_no_triangles(tmp_path):
    X = build_from_triangles([], [(0, 1), (1, 2), (2, 0)])
    assert "triangle" in not_applicable_reason(X, tmp_path)


def test_rapid_mixing_not_applicable_small_gap(tmp_path):
    # two disjoint complete complexes: regular, but lambda2 = 1
    tetra = list(complete_complex(4).triangles)
    shifted = [(u + 4, v + 4, w + 4) for (u, v, w) in tetra]
    X = build_from_triangles(tetra + shifted)
    assert "1/2" in not_applicable_reason(X, tmp_path)
    cert = certify_exact(X)
    assert not cert.connected and not cert.mu_vacuous


def test_rapid_mixing_not_applicable_reason_states_exact_decision(tmp_path):
    # The float lambda2 reads 0.49999999999999956 on this relabelling.
    assert not_applicable_reason(relabel(CUBOCTAHEDRON, 14), tmp_path).startswith(
        "rate bound requires lambda2 < 1/2; it is at least 1/2, decided exactly "
        "(eigensolver value 0.4999"
    )


def test_rapid_mixing_audit_validates_steps_first(tmp_path):
    irregular = build_from_triangles([(0, 1, 2)], [(0, 3)])
    for X in (K4, irregular):
        g1 = edge_graph(X)
        with pytest.raises(ParameterError):
            max_distances(g1, range(g1.n), -1)
        with pytest.raises(CapacityError):
            max_distances(g1, range(g1.n), WALK_CELL_LIMIT // X.n_edges)
        assert verify_theorem(X, tmp_path, "--steps", "-1") == (2, None)
        assert verify_theorem(X, tmp_path, "--steps", str(WALK_CELL_LIMIT // X.n_edges)) == (3, None)


def test_step_zero_distance_at_most_one():
    _, distances, bound_ok = certified_audit(K4, 0)
    assert distances[0] <= 1.0
    assert bound_ok[0]


MIXING_CORPUS = {
    "K4": K4,
    "K5": K5,
    "K6": complete_complex(6),
    "K7": complete_complex(7),
    "octahedron": OCTAHEDRON_COMPLEX,
    "RP2_6": RP2_6,
    "torus": TORUS_7,
}


@pytest.mark.parametrize("name", list(MIXING_CORPUS))
def test_rapid_mixing_audit_matches_propagation(name):
    X = MIXING_CORPUS[name]
    rate, distances, bound_ok = certified_audit(X, 60)
    want = loop_max_distances(edge_graph(X), 60)
    assert max(abs(a - b) for a, b in zip(distances, want)) <= DRIFT
    assert bound_ok == tuple(d <= rate**i + 1e-9 for i, d in enumerate(want))


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(sorted(MIXING_CORPUS)), seed=st.integers(0, 2**32 - 1))
def test_rapid_mixing_audit_is_invariant_under_relabelling(name, seed):
    X = MIXING_CORPUS[name]
    Y = relabel(X, seed)
    (rate_a, a, ok_a), (rate_b, b, ok_b) = certified_audit(X, 40), certified_audit(Y, 40)
    assert (ok_a, rate_a) == (ok_b, rate_b)
    assert max(abs(x - y) for x, y in zip(a, b)) <= 1e-12


# --- one kernel for one start and for every start --------------------------------------

def _k4_and_k33():
    """K4 beside K3,3: 3-regular, and not vertex-transitive, so the largest distance
    is not every start's (a K3,3 start never converges; K3,3 is bipartite)."""
    k33 = [(u, v) for u in range(4, 7) for v in range(7, 10)]
    return Graph.from_edges(10, [(u, v) for u in range(4) for v in range(u + 1, 4)] + k33)


KERNEL_GRAPHS = {
    "K4": edge_graph(K4),
    "K5": edge_graph(K5),
    "K6": edge_graph(complete_complex(6)),
    "octahedron": edge_graph(OCTAHEDRON_COMPLEX),
    "RP2_6": edge_graph(RP2_6),
    "torus": edge_graph(TORUS_7),
    "cuboctahedron (disconnected edge graph)": edge_graph(CUBOCTAHEDRON),
    "RP2_6 relabelled": edge_graph(relabel(RP2_6, 7)),
    "K4 beside K3,3": _k4_and_k33(),
}


@pytest.mark.parametrize("name", list(KERNEL_GRAPHS))
def test_max_distances_over_every_start_is_the_largest_single_start(name):
    G = KERNEL_GRAPHS[name]
    steps = 60
    every = max_distances(G, range(G.n), steps)
    singles = np.array([max_distances(G, [j], steps) for j in range(G.n)])
    assert len(every) == steps + 1
    assert np.abs(np.array(every) - singles.max(axis=0)).max() <= 1e-15
    assert max(abs(a - b) for a, b in zip(every, loop_max_distances(G, steps))) <= DRIFT
    for starts in ([G.n], [-1], [0, G.n], []):
        with pytest.raises(ParameterError):
            max_distances(G, starts, steps)
