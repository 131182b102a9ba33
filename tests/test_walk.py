"""Walk engines: the portable RNG, exact evolution, and seeded ensembles."""

import io
import json
import math
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from loop_exact import loop_adjacency_matrix, loop_evolve_exact, loop_max_distances
from named_complexes import CUBOCTAHEDRON, RP2_6, TORUS_7, complete_graph, cycle_graph, relabel, save_complex
from named_complexes import OCTAHEDRON as OCTAHEDRON_COMPLEX
from scalar_walk import edge_neighbor_table, high_order_simulate, scalar_step_counts, simulate

from hdxwalk import cli, spectral, walk
from hdxwalk.complexes import build_from_triangles, complete_complex, random_complex
from hdxwalk.errors import (
    CapacityError,
    ParameterError,
    RegularityError,
    ToleranceError,
    UndefinedTransitionError,
)
from hdxwalk.expansion import certify_exact, gap_lambda2, mixing_rate_bound
from hdxwalk.graphs import Graph, edge_graph, underlying_graph
from hdxwalk.rng import _GAMMA, _mix, SplitMix64, derive_seed, derive_seeds, mix_array
from hdxwalk.spectral import DENSE_VERTEX_LIMIT, adjacency_matrix, eigensystem, normalized_spectrum
from hdxwalk.walk import (
    WALK_CELL_LIMIT,
    WALK_VISIT_LIMIT,
    Distribution,
    evolve_exact,
    high_order_step_counts,
    rapid_mixing_audit,
)

K4 = complete_complex(4)
K5 = complete_complex(5)
OCTAHEDRON = edge_graph(K4)


def uniform(n):
    return Distribution((1.0 / n,) * n)


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
    draws = [r.randrange(6) for _ in range(1000)]
    assert all(0 <= d < 6 for d in draws)
    replay = SplitMix64(7)
    assert draws == [replay.randrange(6) for _ in range(1000)]
    # crude uniformity: every residue appears a reasonable number of times
    for v in range(6):
        assert 100 <= draws.count(v) <= 250


# --- distributions -------------------------------------------------------------


def test_distribution_validation():
    with pytest.raises(ParameterError):
        Distribution((0.5, 0.4))
    with pytest.raises(ParameterError):
        Distribution((1.5, -0.5))
    assert Distribution((0.1,) * 10).probabilities == (0.1,) * 10  # sums to 1 within 1e-12
    p = Distribution.point_mass(3, 1)
    assert p.probabilities == (0.0, 1.0, 0.0)


# --- exact evolution -------------------------------------------------------------


def test_uniform_is_stationary():
    distances = evolve_exact(OCTAHEDRON, uniform(6), 10)
    assert all(d <= 1e-12 for d in distances)


def test_k2_walk_alternates_forever():
    G = complete_graph(2)
    distances = evolve_exact(G, Distribution.point_mass(2, 0), 6)
    d0 = distances[0]
    assert d0 == pytest.approx(math.sqrt(0.5), abs=1e-15)
    assert all(abs(d - d0) <= 1e-12 for d in distances)


def test_octahedron_spectral_decay():
    distances = evolve_exact(OCTAHEDRON, Distribution.point_mass(6, 0), 64)
    d0 = distances[0]
    for i, d in enumerate(distances):
        assert d <= 0.5**i * d0 + 1e-9


def test_spectral_decay_on_nonbipartite_corpus():
    graphs = [complete_graph(4), complete_graph(5), OCTAHEDRON, edge_graph(K5), cycle_graph(5)]
    for G in graphs:
        lam = normalized_spectrum(G).lambda_max_nontrivial
        for start in range(G.n):
            distances = evolve_exact(G, Distribution.point_mass(G.n, start), 40)
            d0 = distances[0]
            for i, d in enumerate(distances):
                assert d <= lam**i * d0 + 1e-9


def test_trace_steps_recomputable():
    # Each distance is ||M^t p0 - u|| for the explicit matrix power M^t, M = A/k.
    M = adjacency_matrix(OCTAHEDRON) / 4
    p0 = np.array(Distribution.point_mass(6, 2).probabilities)
    distances = evolve_exact(OCTAHEDRON, Distribution.point_mass(6, 2), 12)
    for t, d in enumerate(distances):
        assert abs(np.linalg.norm(np.linalg.matrix_power(M, t) @ p0 - 1 / 6) - d) <= 1e-14


def test_trace_preserves_stochasticity():
    # A probability vector p has ||p - u||**2 = ||p||**2 - 1/n, at most 1 - 1/n (a point mass).
    distances = evolve_exact(edge_graph(K5), Distribution.point_mass(10, 3), 50)
    assert distances[0] == pytest.approx(math.sqrt(0.9), abs=1e-15)
    assert all(0.0 <= d <= distances[0] + 1e-15 for d in distances)


def test_monotone_contraction_on_connected_regular():
    for G in (complete_graph(4), OCTAHEDRON, edge_graph(K5), cycle_graph(5)):
        distances = evolve_exact(G, Distribution.point_mass(G.n, 0), 30)
        for a, b in zip(distances, distances[1:]):
            assert b <= a + 1e-12


def test_evolve_rejects_irregular_and_isolated():
    with pytest.raises(RegularityError):
        evolve_exact(Graph.from_edges(3, [(0, 1), (1, 2)]), uniform(3), 2)
    with pytest.raises(UndefinedTransitionError):
        evolve_exact(Graph.from_edges(2, []), uniform(2), 1)


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
    starts = [uniform(G.n)] + [Distribution.point_mass(G.n, v) for v in range(G.n)]
    for p0 in starts:
        for steps in (0, 1, 60):
            want = loop_evolve_exact(G, p0, steps, alpha)
            _assert_matches_loop(evolve_exact(G, p0, steps), want, alpha)


def test_evolve_exact_matches_loop_reference_on_k40_edges():
    G = k40_edges()
    for p0, steps in ((Distribution.point_mass(G.n, 0), 2000), (uniform(G.n), 20)):
        want = loop_evolve_exact(G, p0, steps, 0.99)
        _assert_matches_loop(evolve_exact(G, p0, steps), want, 0.99)


def test_distance_blocks_do_not_depend_on_block_size(monkeypatch):
    G = edge_graph(K5)
    p0 = Distribution.point_mass(G.n, 4)
    want = evolve_exact(G, p0, 100)
    for cells in (1, 7, 10, 33, 10**6):
        monkeypatch.setattr(walk, "_POWER_CELLS", cells)
        got = evolve_exact(G, p0, 100)
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-15


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
    G = k40_edges()
    values, vectors, residual = eigensystem(G)
    assert 0 < residual <= 1e-9  # the largest benchmark walk passes the default gate
    monkeypatch.setattr(spectral, "_eigensystem", lambda G: (values, vectors, 2e-9))
    with pytest.raises(ToleranceError, match="residual 2.000e-09 exceeds tolerance 1.000e-09"):
        evolve_exact(G, Distribution.point_mass(G.n, 0), 3)


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
    p0 = Distribution.point_mass(G.n, 0)
    G.regular_k  # cached before tracing
    spectral._eigensystem.cache_clear()
    table, matrix = 2001 * G.n * 8, G.n * G.n * 8
    for solved in (False, True):
        tracemalloc.start()
        try:
            distances = evolve_exact(G, p0, 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if solved:
            # The eigensystem is cached: the walk holds one block of powers, never a
            # (steps + 1) x n table (12.5 MB).
            assert peak < 8 * walk._POWER_CELLS + 2**19 < table / 10
        else:
            # The solve: adjacency, eigenvectors and the residual's two temporaries.
            assert peak < 4 * matrix + 2**20
    assert len(distances) == 2001 and distances[0] == pytest.approx(math.sqrt(1 - 1 / G.n))


def test_dense_matrices_refused_above_limit():
    assert k40_edges().n <= DENSE_VERTEX_LIMIT  # the largest benchmark graph
    big = cycle_graph(DENSE_VERTEX_LIMIT + 1)
    for build in (adjacency_matrix, eigensystem, normalized_spectrum):
        with pytest.raises(CapacityError):
            build(big)
    with pytest.raises(CapacityError):
        evolve_exact(big, uniform(big.n), 0)
    X = complete_complex(65)  # 2080 edges
    with pytest.raises(CapacityError):
        rapid_mixing_audit(X, 0.5, 0)


# --- neighbor rule ---------------------------------------------------------------


def test_high_order_neighbors_k4():
    e = K4.edge_ids[(0, 1)]
    want = {K4.edge_ids[p] for p in ((0, 2), (1, 2), (0, 3), (1, 3))}
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
    assert edge_graph(X).adjacency[X.edge_ids[(0, 3)]] == ()


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
        high_order_simulate(X, X.edge_ids[(0, 3)], 1, seed=0)


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
        evolve_exact(edge_graph(K5), Distribution.point_mass(10, 0), 10**8)
    steps = WALK_CELL_LIMIT // 10 - 1
    assert len(high_order_step_counts(K5, 0, steps, paths=0, seed=0)) == steps + 1


def test_step_counts_reproducible():
    a = high_order_step_counts(K4, 0, 5, paths=300, seed=4)
    b = high_order_step_counts(K4, 0, 5, paths=300, seed=4)
    assert a == b


def test_ensemble_tracks_exact_distribution():
    paths = 20000
    counts = high_order_step_counts(K4, 0, 5, paths=paths, seed=2024)
    distributions, _, _ = loop_evolve_exact(edge_graph(K4), Distribution.point_mass(6, 0), 5)
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
    """rapid_mixing_audit at the rate that verify-theorem certifies for X."""
    lambda2 = gap_lambda2(underlying_graph(X), "rate bound requires")
    return rapid_mixing_audit(X, mixing_rate_bound(certify_exact(X).epsilon_cosystolic, lambda2), steps)


def not_applicable_reason(X, tmp_path):
    """verify-theorem's reason on X, where the audit is never run."""
    path = str(tmp_path / "x.complex")
    save_complex(X, path)
    out = io.StringIO()
    assert cli.run(["verify-theorem", path, "--steps", "10"], out, io.StringIO()) == 0
    results = json.loads(out.getvalue())["results"]
    assert "walk" not in results
    return results["reason"]


def test_rapid_mixing_audit_k4():
    report = certified_audit(K4, 100)
    assert report.passes
    assert 0 < report.rate_bound < 1
    assert report.edge_graph_lambda == pytest.approx(0.5, abs=1e-9)
    assert len(report.max_distances) == 101


def test_rapid_mixing_audit_k5():
    report = certified_audit(K5, 100)
    assert report.passes
    assert report.edge_graph_lambda == pytest.approx(1 / 3, abs=1e-9)


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


def test_rapid_mixing_audit_validates_steps_first():
    irregular = build_from_triangles([(0, 1, 2)], [(0, 3)])
    for X in (K4, irregular):
        with pytest.raises(ParameterError):
            rapid_mixing_audit(X, 0.5, -1)
        with pytest.raises(CapacityError):
            rapid_mixing_audit(X, 0.5, WALK_CELL_LIMIT // X.n_edges)


def test_step_zero_distance_at_most_one():
    report = certified_audit(K4, 0)
    assert report.max_distances[0] <= 1.0
    assert report.bound_ok[0]


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
    report = certified_audit(X, 60)
    want = loop_max_distances(edge_graph(X), 60)
    assert max(abs(a - b) for a, b in zip(report.max_distances, want)) <= DRIFT
    assert report.bound_ok == tuple(d <= report.rate_bound**i + 1e-9 for i, d in enumerate(want))


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(sorted(MIXING_CORPUS)), seed=st.integers(0, 2**32 - 1))
def test_rapid_mixing_audit_is_invariant_under_relabelling(name, seed):
    X = MIXING_CORPUS[name]
    Y = relabel(X, seed)
    a, b = certified_audit(X, 40), certified_audit(Y, 40)
    assert (a.bound_ok, a.rate_bound) == (b.bound_ok, b.rate_bound)
    assert max(abs(x - y) for x, y in zip(a.max_distances, b.max_distances)) <= 1e-12
