"""Spectra, Cheeger constants, cut tables, and three spectral inequalities.

Expected spectra are frozen analytic values: complete graphs have
{1, -1/(n-1) (n-1 times)}, cycles have {2cos(2*pi*j/n)/2}, the octahedron
(= edge-graph of the complete complex on 4 vertices) has {1, 0, 0, 0, -1/2,
-1/2}, and the triangular graph T(5) has {1, 1/6 (x4), -1/3 (x5)}.  The
floating eigensolver is cross-checked against exact characteristic-polynomial
signs, and Cheeger values against a direct subset loop written here.
"""

import io
import math
import os
import sys
import time
import weakref
from fractions import Fraction
from itertools import accumulate, combinations, islice

import full_tables
import named_complexes
import numpy as np
import pytest
from charpoly import (
    characteristic_polynomial,
    eigenvalues_at_least,
    lambda2_below_half_by_descartes,
)
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from lemma_loops import cheeger_inequality_slack, edge_graph_floor_slack, mixing_lemma_residual
from named_complexes import (
    CUBOCTAHEDRON,
    build_from_triangles,
    complete_graph,
    cycle_graph,
    edge_id,
    findings,
    reference_edge_graph,
    relabel,
    relabel_graph,
)
from scalar_walk import randrange
from traced import traced_peak

from hdxwalk import cli, spectral
from hdxwalk.complexes import (
    Complex2,
    complete_complex,
    from_document,
    load_complex,
    loads_complex,
    random_complex,
)
from hdxwalk.errors import CapacityError, RegularityError
from hdxwalk.expansion import certify_exact, sum_bound_judgement
from hdxwalk.graphs import Graph, edge_graph, underlying_graph
from hdxwalk.rng import SplitMix64
from hdxwalk.spectral import (
    cheeger_exhaustive,
    cut_list,
    lambda2_below,
    lambda2_below_half,
    lambda2_bracket,
    normalized_spectrum,
    subset_xors,
)

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import corpus  # noqa: E402

K4 = complete_graph(4)
K5 = complete_graph(5)
C4 = cycle_graph(4)
C6 = cycle_graph(6)
OCTAHEDRON = edge_graph(complete_complex(4))
T5 = edge_graph(complete_complex(5))

CORPUS = {
    "K4": K4,
    "K5": K5,
    "C4": C4,
    "C6": C6,
    "octahedron": OCTAHEDRON,
    "T5": T5,
}

EXPECTED_SPECTRA = {
    "K4": [1.0] + [-1 / 3] * 3,
    "K5": [1.0] + [-1 / 4] * 4,
    "C4": [1.0, 0.0, 0.0, -1.0],
    "C6": [1.0, 0.5, 0.5, -0.5, -0.5, -1.0],
    "octahedron": [1.0, 0.0, 0.0, 0.0, -0.5, -0.5],
    "T5": [1.0] + [1 / 6] * 4 + [-1 / 3] * 5,
}


# --- graph structure -------------------------------------------------------


def test_underlying_graph_examples():
    assert underlying_graph(complete_complex(4)).adjacency == K4.adjacency
    tri = underlying_graph(build_from_triangles([(0, 1, 2)]))
    assert tri.adjacency == cycle_graph(3).adjacency
    assert underlying_graph(random_complex(6, 0.0, seed=0)).adjacency == complete_graph(6).adjacency


def test_edge_graph_is_octahedron():
    assert OCTAHEDRON.n == 6
    assert OCTAHEDRON.regular_k == 4
    X = complete_complex(4)
    a, b = edge_id(X, 0, 1), edge_id(X, 2, 3)
    assert b not in OCTAHEDRON.adjacency[a]  # disjoint edges never span a triangle
    c = edge_id(X, 0, 2)
    assert c in OCTAHEDRON.adjacency[a]


def test_edge_graph_t5():
    assert T5.n == 10
    assert T5.regular_k == 6


def test_edge_graph_adjacency_rule_exhaustive():
    for X in (complete_complex(5), random_complex(6, 0.5, seed=3)):
        g1 = edge_graph(X)
        tri = set(X.triangles)
        for a in range(X.n_edges):
            for b in range(a + 1, X.n_edges):
                union = tuple(sorted(set(X.edges[a]) | set(X.edges[b])))
                adjacent = b in g1.adjacency[a]
                assert adjacent == (len(union) == 3 and union in tri)


def test_edge_graph_degree_identity():
    for X in (complete_complex(5), random_complex(6, 0.4, seed=9)):
        g1 = edge_graph(X)
        for e in range(X.n_edges):
            assert g1.degrees[e] == 2 * len(X.edge_triangles[e])


def test_edge_graph_isolated_vertex_for_triangle_free_edge():
    X = build_from_triangles([(0, 1, 2)], [(0, 3)])
    g1 = edge_graph(X)
    assert g1.adjacency[edge_id(X, 0, 3)] == ()


def test_edge_graph_bijection():
    # The edge-graph is a Graph on the edge ids themselves: vertex e is edge e.
    X = complete_complex(5)
    g1 = edge_graph(X)
    assert isinstance(g1, Graph) and g1.n == X.n_edges
    for e in range(X.n_edges):
        want = {f for t in X.triangle_edge_ids if e in t for f in t if f != e}
        assert set(g1.adjacency[e]) == want


def test_graphs_are_kept_on_their_complex():
    # Built once per complex and stored on it: no module cache keeps the complex
    # alive, and the graphs hold no reference to it.
    X = random_complex(8, 0.5, seed=28)
    g0, g1 = underlying_graph(X), edge_graph(X)
    assert underlying_graph(X) is g0 and edge_graph(X) is g1
    complex_ref = weakref.ref(X)
    del X
    assert complex_ref() is None
    # The graphs live on, equal to those an equal complex builds for itself.
    Y = random_complex(8, 0.5, seed=28)
    assert (underlying_graph(Y), edge_graph(Y)) == (g0, g1)
    assert underlying_graph(Y) is not g0 and edge_graph(Y) is not g1


def _edge_graph_cases(directory):
    """The benchmark corpus, `gen random` documents, a string-labelled one, and relabellings."""
    corpus.write_fixed(str(directory), 0)
    cases = {name: load_complex(str(directory / name)) for name in sorted(os.listdir(directory))}
    for seed in range(4):
        for p in ("0.3", "0.7"):
            out = io.StringIO()
            argv = ["gen", "random", "--n", "8", "--p", p, "--seed", str(seed)]
            assert cli.run(argv, out, io.StringIO()) == 0
            cases[" ".join(argv)] = loads_complex(out.getvalue())
    cases["string labels"] = from_document(
        {"triangles": [["a", "b", "c"], ["b", "c", "d"], ["c", "d", 7]], "edges": [[7, "e"]]}
    )
    for name, X in list(cases.items()):
        for seed in (1, 2):
            cases[f"{name}, relabelled by seed {seed}"] = relabel(X, seed)
    return cases


def test_edge_graph_matches_reference(tmp_path):
    for name, X in _edge_graph_cases(tmp_path).items():
        assert edge_graph(X) == reference_edge_graph(X), name
        # Stored while the complex was built; the lookup the property would make otherwise.
        assert X.triangle_edge_ids == Complex2.triangle_edge_ids.func(X), name
        assert findings(X) == [], name


# --- spectra ---------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(EXPECTED_SPECTRA))
def test_normalized_spectra_match_analytic(name):
    report = normalized_spectrum(CORPUS[name])
    want = EXPECTED_SPECTRA[name]
    assert len(report.normalized_eigenvalues) == len(want)
    for got, expect in zip(report.normalized_eigenvalues, want):
        assert abs(got - expect) <= 1e-9
    assert abs(report.lambda2 - want[1]) <= 1e-9
    assert abs(report.lambda_n - want[-1]) <= 1e-9


def test_spectrum_top_eigenvalue_and_range():
    for G in CORPUS.values():
        report = normalized_spectrum(G)
        assert abs(report.normalized_eigenvalues[0] - 1.0) <= 1e-9
        assert all(-1 - 1e-9 <= v <= 1 + 1e-9 for v in report.normalized_eigenvalues)


def test_spectrum_trace_is_zero():
    for G in CORPUS.values():
        k = G.regular_k
        total = sum(v * k for v in normalized_spectrum(G).normalized_eigenvalues)
        assert abs(total) <= 1e-6


def test_bipartite_spectrum_symmetric():
    for G in (C4, C6):
        vals = normalized_spectrum(G).normalized_eigenvalues
        for a, b in zip(vals, reversed(vals)):
            assert abs(a + b) <= 1e-9


def test_spectrum_rejects_irregular():
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(RegularityError):
        normalized_spectrum(path)


def test_spectrum_rejects_zero_degree():
    with pytest.raises(RegularityError):
        normalized_spectrum(Graph.from_edges(2, []))


# --- characteristic-polynomial cross-validation ----------------------------


def _clusters(values, tol=1e-6):
    out: list[list[float]] = []
    for v in values:
        if out and abs(out[-1][0] - v) <= tol:
            out[-1].append(v)
        else:
            out.append([v])
    return [(cluster[0], len(cluster)) for cluster in out]


def char_poly_eval(coeffs, x: Fraction) -> Fraction:
    """Horner's rule, highest power first."""
    acc = Fraction(0)
    for c in coeffs:
        acc = acc * x + c
    return acc


def assert_char_poly_sign_agreement(G):
    """Exact p(x) signs at inter-cluster midpoints must match the reported
    ordering: sign(p(x)) = (-1)**(#eigenvalues above x) for monic p."""
    report = normalized_spectrum(G)
    k = G.regular_k
    coeffs = characteristic_polynomial(G)
    unnormalized = [v * k for v in report.normalized_eigenvalues]  # descending
    clusters = _clusters(unnormalized)
    points = [Fraction(int(round(clusters[0][0])) + 1)]
    above = [0]
    running = 0
    for idx in range(len(clusters) - 1):
        running += clusters[idx][1]
        mid = Fraction.from_float((clusters[idx][0] + clusters[idx + 1][0]) / 2.0)
        points.append(mid)
        above.append(running)
    running += clusters[-1][1]
    points.append(Fraction(int(round(clusters[-1][0])) - 1))
    above.append(running)
    for x, count in zip(points, above):
        value = char_poly_eval(coeffs, x)
        assert value != 0
        expected_sign = -1 if count % 2 else 1
        assert (1 if value > 0 else -1) == expected_sign, (x, count, value)


def test_char_poly_known_k2():
    G = complete_graph(2)
    assert characteristic_polynomial(G) == (1, 0, -1)  # x^2 - 1


def test_char_poly_known_k4():
    # product of (x-3) and (x+1)^3 = x^4 - 6x^2 - 8x - 3
    assert characteristic_polynomial(K4) == (1, 0, -6, -8, -3)


def test_eigensolver_cross_validation_small_graphs():
    for G in (complete_graph(2), cycle_graph(3), K4, C4, K5, C6, OCTAHEDRON, complete_graph(8)):
        if G.n <= 8:
            assert_char_poly_sign_agreement(G)


# --- exact lambda2 < 1/2 ----------------------------------------------------


def test_lambda2_below_half_at_exactly_one_half():
    # lambda2 = 1/2 exactly; the float reads 0.5 +- a few ulps, by vertex order.
    assert not lambda2_below_half(C6, normalized_spectrum(C6))
    for seed in range(100):
        G = underlying_graph(relabel(CUBOCTAHEDRON, seed))
        assert not lambda2_below_half(G, normalized_spectrum(G)), seed


GAP_GRAPHS = {
    **{f"K{n}": complete_graph(n) for n in range(2, 9)},
    **{f"C{n}": cycle_graph(n) for n in range(3, 11) if n != 6},
    "octahedron": OCTAHEDRON,
    "T5": T5,
    "two triangles": Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
    "edge-graph of K6": edge_graph(complete_complex(6)),
}


def decided_in_the_band(G):
    """lambda2_below_half(G) with its report pinned at 1/2, so the exact test decides."""
    report = normalized_spectrum(G)
    return lambda2_below_half(G, type(report)(**{**report.asdict(), "lambda2": 0.5}))


def cuboctahedron_tensor(m):
    """The cuboctahedron graph tensored with K_m: 12m vertices, degree 4(m - 1), lambda2 = 1/2."""
    cubo = underlying_graph(CUBOCTAHEDRON)
    return Graph.from_edges(cubo.n * m, [
        (v * m + i, w * m + j)
        for v in range(cubo.n) for w in cubo.adjacency[v] for i in range(m) for j in range(m) if i != j
    ])


@pytest.mark.parametrize("name", sorted(GAP_GRAPHS))
def test_lambda2_below_half_exact_count_matches_float(name):
    # Away from 1/2 the float decides; a report pinned at 1/2 forces the
    # exact test, which must agree.
    G = GAP_GRAPHS[name]
    report = normalized_spectrum(G)
    assert abs(report.lambda2 - 0.5) > 0.05
    assert lambda2_below_half(G, report) == (report.lambda2 < 0.5)
    assert decided_in_the_band(G) == (report.lambda2 < 0.5)


_REGULAR_COMPLEXES = [
    "OCTAHEDRON", "RP2_6", "CUBOCTAHEDRON", "TORUS_7", "K333", "ICOSAHEDRON", "T5",
    "PETERSEN_LINE", "HEAWOOD_LINE",
]


def _reference_graphs():
    yield from GAP_GRAPHS.items()
    yield from ((f"C{n}", cycle_graph(n)) for n in range(3, 16))
    for name in _REGULAR_COMPLEXES:
        for seed in range(8):
            X = relabel(getattr(named_complexes, name), seed)
            yield f"{name} g0 seed {seed}", underlying_graph(X)
            yield f"{name} g1 seed {seed}", edge_graph(X)
    yield from ((f"cuboctahedron x K{m}", cuboctahedron_tensor(m)) for m in range(2, 8))


def test_lambda2_exact_test_matches_the_characteristic_polynomial():
    answers = {}
    for name, G in _reference_graphs():
        if G.regular_k:
            answers[name] = lambda2_below_half_by_descartes(G)
            assert decided_in_the_band(G) == answers[name], name
    # Both answers occur, on connected and on disconnected graphs.
    assert len(answers) >= 170 and answers["C5"] and answers["ICOSAHEDRON g0 seed 0"]
    assert not (answers["C6"] or answers["two triangles"] or answers["cuboctahedron x K7"])


def test_lambda2_decision_at_120_vertices_is_quick():
    # 120 vertices of degree 36 at exact lambda2 = 1/2: the elimination runs to its last pivot.
    G = cuboctahedron_tensor(10)
    report = normalized_spectrum(G)
    assert G.n == 120 and abs(report.lambda2 - 0.5) <= 1e-9
    start = time.perf_counter()
    assert not lambda2_below_half(G, report)
    assert time.perf_counter() - start < 0.5


def test_lambda2_decision_refuses_work_above_the_limit(monkeypatch):
    # 240 vertices of degree 76 and lambda2 = 1/2 exactly, so the float lands
    # in the band.  The elimination would take up to 240**3 multiplications
    # (seconds); it is never begun.
    G = cuboctahedron_tensor(20)
    report = normalized_spectrum(G)
    assert G.regular_k == 76 and abs(report.lambda2 - 0.5) <= 1e-9
    monkeypatch.setattr(spectral, "_positive_definite", lambda rows: pytest.fail("computed"))
    with pytest.raises(CapacityError, match=f"240\\*\\*3 multiplications; limit is {spectral.ELIMINATION_WORK_LIMIT}$"):
        lambda2_below_half(G, report)


# Graphs with every distinct eigenvalue of A/k known exactly, descending: the cycle
# C6 (cos(2 pi j / 6)), K_n (1 and -1/(n - 1)) and the Petersen line graph (4, 2,
# -1 and -2 over its degree 4).
EXACT_SPECTRA = {
    "C6": (cycle_graph(6), (1, Fraction(1, 2), Fraction(-1, 2), -1)),
    **{f"K{n}": (complete_graph(n), (1, Fraction(-1, n - 1))) for n in range(2, 9)},
    "Petersen line": (
        underlying_graph(named_complexes.PETERSEN_LINE),
        (1, Fraction(1, 2), Fraction(-1, 4), Fraction(-1, 2)),
    ),
}


@pytest.mark.parametrize("name", sorted(EXACT_SPECTRA))
def test_lambda2_below_just_below_at_and_above_each_eigenvalue(name):
    # lambda2 is the second eigenvalue counted with multiplicity: 1/2, -1/(n - 1), 1/2.
    G, values = EXACT_SPECTRA[name]
    lambda2 = values[1]
    above = lambda2 + Fraction(1, 10**9)
    assert eigenvalues_at_least(G, Fraction(lambda2)) >= 2 > eigenvalues_at_least(G, above)
    delta = Fraction(1, 2**62)
    thresholds = [v + d for v in values for d in (-delta, 0, delta)] + [Fraction(t) for t in (-2, 0, 2)]
    assert any(t <= 0 for t in thresholds)
    for t in thresholds:
        assert lambda2_below(G, Fraction(t)) == (lambda2 < t), t


def test_lambda2_below_refuses_work_above_the_limit(monkeypatch):
    G = cycle_graph(2 ** 8)  # 2**24 multiplications, past the 2**22 limit
    monkeypatch.setattr(spectral, "_positive_definite", lambda rows: pytest.fail("computed"))
    with pytest.raises(CapacityError, match=r"deciding lambda2 < 1/3 exactly takes up to 256\*\*3"):
        lambda2_below(G, Fraction(1, 3))
    with pytest.raises(RegularityError):
        lambda2_below(Graph.from_edges(3, [(0, 1)]), Fraction(1, 2))


def assert_brackets(G):
    """lambda2_bracket(G) against the characteristic polynomial's count at both ends,
    and against the eigensolver's lambda2."""
    lo, hi = lambda2_bracket(G)
    assert hi - lo == Fraction(1, 2**60) and (lo * 2**60).denominator == 1
    assert eigenvalues_at_least(G, lo) >= 2 > eigenvalues_at_least(G, hi)
    assert abs(float(lo) - normalized_spectrum(G).lambda2) <= 1e-12


SMALL_G0 = [
    (name, underlying_graph(X))
    for name, X in vars(named_complexes).items()
    if isinstance(X, Complex2) and X.n_vertices <= 12 and X.regular
]


@pytest.mark.parametrize("G", [G for _, G in SMALL_G0], ids=[name for name, _ in SMALL_G0])
def test_lambda2_bracket_holds_lambda2_on_small_named_complexes(G):
    assert_brackets(G)


@settings(max_examples=20, deadline=None)
@given(st.integers(4, 12), st.sampled_from((3, 4)), st.integers(0, 99))
def test_lambda2_bracket_holds_lambda2_on_random_regular_graphs(n, d, seed):
    assume(n * d % 2 == 0 and d < n)
    assert_brackets(named_complexes.random_regular_graph(n, d, seed))


def test_lambda2_bracket_on_exact_and_disconnected_spectra():
    # The bracket holds each exact lambda2, as its lower end where that is a multiple
    # of 2**-60 (1/2, -1/2 and -1); two triangles have lambda2 = 1.
    for G, values in EXACT_SPECTRA.values():
        lo, hi = lambda2_bracket(G)
        assert lo <= values[1] < hi
        assert (lo == values[1]) == ((values[1] * 2**60).denominator == 1)
    two_triangles = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert lambda2_bracket(two_triangles) == (1, 1 + Fraction(1, 2**60))


# --- cut tables ------------------------------------------------------------


def test_subset_xors_match_per_mask_xor():
    rng = SplitMix64(8)
    columns = [randrange(rng, 1 << 20) for _ in range(9)]
    want = []
    for mask in range(1 << len(columns)):
        acc = 0
        for j, c in enumerate(columns):
            if mask >> j & 1:
                acc ^= c
        want.append(acc)
    assert subset_xors(columns, np.uint32).tolist() == want


def seeded_graph(n, seed):
    """Irregular graph: each pair is an edge with probability 1/2."""
    rng = SplitMix64(seed)
    return Graph.from_edges(n, [(u, v) for u, v in combinations(range(n), 2) if randrange(rng, 2)])


def test_cut_list_matches_the_full_table():
    # Regular and irregular graphs, and a prefix of the vertices as the packed kernel reads.
    for G in (complete_graph(7), cycle_graph(9), seeded_graph(10, 3), edge_graph(complete_complex(5))):
        assert cut_list(G.neighbor_masks) == full_tables.cut_sizes(G.neighbor_masks).tolist()
    masks = complete_graph(9).neighbor_masks
    assert cut_list(masks[:5]) == [m.bit_count() * 9 - m.bit_count() ** 2 for m in range(32)]


CUT_GRAPHS = {
    **CORPUS,
    "single vertex": Graph.from_edges(1, []),
    "isolated vertices": Graph.from_edges(4, [(1, 2)]),
    "seeded 9": seeded_graph(9, 5),
    "seeded 11": seeded_graph(11, 6),
    "irregular edge-graph": edge_graph(random_complex(5, 0.5, seed=2)),
}


@pytest.mark.parametrize("name", sorted(CUT_GRAPHS))
def test_cut_sizes_match_per_mask_cut(name):
    # The packed rows and the whole-table reference.
    G = CUT_GRAPHS[name]
    want = [
        sum(1 for u in range(G.n) for v in G.adjacency[u] if u < v and (mask >> u & 1) != (mask >> v & 1))
        for mask in range(1 << G.n)
    ]
    assert full_tables.cut_sizes(G.neighbor_masks).tolist() == want
    assert joined_rows(G.neighbor_masks) == want


def joined_rows(masks):
    """``spectral._packed_cuts``' rows, joined by mask, their high sets taken in ascending
    order and in a shuffled one, which moves several high vertices between rows."""
    table = full_tables.packed_table(masks)
    lo = len(spectral._low_sets(len(masks))[1]) - 2
    highs = [r << lo for r in range(1 << (len(masks) - lo))]
    np.random.default_rng(len(masks)).shuffle(highs)
    assert full_tables.packed_table(masks, highs) == table
    return table


# The G0 and G1 of every named complex with at most 24 edges: up to 2**12 packed rows.
NAMED_GRAPHS = {
    f"{name} {graph.__name__}": graph(X)
    for name, X in {
        **{f"K{n}": complete_complex(n) for n in (4, 5, 6, 7)},
        **{name: getattr(named_complexes, name) for name in named_complexes.__dict__ if name.isupper()},
    }.items()
    if isinstance(X, Complex2) and X.n_edges <= 24
    for graph in (underlying_graph, edge_graph)
}


@pytest.mark.parametrize("name, seed", full_tables.BLOCKED_CASES, ids=full_tables.BLOCKED_IDS)
def test_cut_rows_match_the_full_table_on_blocked_graphs(name, seed):
    # The packed cut rows, the one subset scan of cuts, against the whole table.
    masks = full_tables.blocked_graph(name, seed).neighbor_masks
    assert len(spectral._low_sets(len(masks))[0]) < 2 ** len(masks)  # more than one row
    assert joined_rows(masks) == full_tables.cut_sizes(masks).tolist()


@pytest.mark.parametrize("name", sorted(NAMED_GRAPHS))
def test_cut_rows_match_the_full_table_on_named_complexes(name):
    masks = NAMED_GRAPHS[name].neighbor_masks
    assert joined_rows(masks) == full_tables.cut_sizes(masks).tolist()
    relabelled = named_complexes.relabel_graph(NAMED_GRAPHS[name], 3).neighbor_masks
    assert joined_rows(relabelled) == full_tables.cut_sizes(relabelled).tolist()


def test_cuts_below_refuse_the_table_on_the_call():
    # Before any row is built, as every exit 3 of a cut reader needs.
    with pytest.raises(CapacityError, match=r"got 2\*\*27"):
        spectral.cuts_below(cycle_graph(27).neighbor_masks, [0] * 28)


# Complexes whose sum lemma applies, up to 21 edges; it fails on the Fano complex.
SUM_COMPLEXES = {"K4": complete_complex(4), "K5": complete_complex(5), "K7": complete_complex(7),
                 **{n: getattr(named_complexes, n) for n in ("OCTAHEDRON", "RP2_6", "TORUS_7", "FANO")}}


@pytest.mark.parametrize("slack", [1e-9, 0.0, -1.0, -1e6])
@pytest.mark.parametrize("name", sorted(SUM_COMPLEXES))
def test_cuts_below_match_the_full_table(name, slack):
    # The sum lemma's stream: the masks whose cut in G1 is below the bound less the
    # slack, ascending.  At -1e6 every limit is past 255, so every set of at most |E|/2
    # edges fails; there the first 2**16 are compared.
    X = SUM_COMPLEXES[name]
    n, masks = X.n_edges, edge_graph(X).neighbor_masks
    scale = sum_bound_judgement(X, certify_exact(X).epsilon_cosystolic)
    least = [scale * s - slack if 2 * s <= n else -np.inf for s in range(n + 1)]
    sizes = spectral.subset_sums([1] * n)
    want = np.flatnonzero(full_tables.cut_sizes(masks) < np.array(least)[sizes])
    got = list(islice(spectral.cuts_below(masks, least), 1 << 16))
    assert got == want[: 1 << 16].tolist()
    if name == "FANO":
        assert len(want) > 0
    if slack == -1e6:
        assert len(want) == sum(math.comb(n, s) for s in range(n // 2 + 1))


# --- Cheeger ---------------------------------------------------------------


def brute_cheeger(G):
    """Direct enumeration of all subsets with 0 < |S| <= n/2.

    Returns (h, witness): the least (ratio, sorted vertices) pair, where a
    half-size witness must contain vertex 0 (its complement is the same cut).
    """
    best = None
    for r in range(1, G.n // 2 + 1):
        for s in combinations(range(G.n), r):
            if 2 * r == G.n and 0 not in s:
                continue
            inside = set(s)
            cut = sum(
                1 for u in inside for v in G.adjacency[u] if v not in inside
            )
            candidate = (Fraction(cut, G.regular_k * len(inside)), s)
            if best is None or candidate < best:
                best = candidate
    return best


@pytest.mark.parametrize(
    "name,expected",
    [("K4", Fraction(2, 3)), ("octahedron", Fraction(1, 2)), ("C4", Fraction(1, 2)),
     ("K5", Fraction(3, 4)), ("C6", Fraction(1, 3))],
)
def test_cheeger_known_values(name, expected):
    assert cheeger_exhaustive(CORPUS[name]).h_normalized == expected


def test_cheeger_matches_brute_force():
    for G in CORPUS.values():
        result = cheeger_exhaustive(G)
        assert (result.h_normalized, result.witness) == brute_cheeger(G)


def test_cheeger_witness_achieves_ratio():
    for G in CORPUS.values():
        result = cheeger_exhaustive(G)
        inside = set(result.witness)
        assert 0 < len(inside) <= G.n // 2 or 2 * len(inside) == G.n
        cut = sum(1 for u in inside for v in G.adjacency[u] if v not in inside)
        assert Fraction(cut, G.regular_k * len(inside)) == result.h_normalized


def test_cheeger_octahedron_witness_is_triangle():
    result = cheeger_exhaustive(OCTAHEDRON)
    a, b, c = result.witness
    assert b in OCTAHEDRON.adjacency[a] and c in OCTAHEDRON.adjacency[a]
    assert c in OCTAHEDRON.adjacency[b]


def test_cheeger_capacity_error():
    with pytest.raises(CapacityError, match=r"got 2\*\*27"):
        cheeger_exhaustive(cycle_graph(27))


def assert_packed_matches(G, h, witness, ties):
    """The packed kernel against a reference's constant, witness and tied masks:
    the same constant, and a side that ties and is the least witness."""
    cut, size, side = spectral.least_cut(G, True)
    assert Fraction(cut, G.regular_k * size) == h
    assert side in set(map(int, ties))
    assert spectral.lex_first([side]) == witness
    return side


@pytest.mark.parametrize("name, seed", full_tables.BLOCKED_CASES, ids=full_tables.BLOCKED_IDS)
def test_cheeger_row_blocks_match_the_full_table(name, seed):
    # Tables of 2**17 to 2**20 subsets, as they are and relabelled.
    G = full_tables.blocked_graph(name, seed)
    h, witness, ties = full_tables.cheeger(G)
    assert cheeger_exhaustive(G) == spectral.CheegerResult(h, witness)
    assert_packed_matches(G, h, witness, ties)


# G0 and G1 of the named complexes and of K4-K6 with at most 16 vertices, regular of
# positive degree, as they are and relabelled: the octahedron's G1 has 12 vertices,
# and K6's G1 15.
CHEEGER_GRAPHS = [
    (f"{name} {g}" + (f" relabelled {seed}" if seed else ""), relabel_graph(G, seed) if seed else G)
    for name, X in [
        *((n, X) for n, X in vars(named_complexes).items() if isinstance(X, Complex2)),
        *((f"K{n}", complete_complex(n)) for n in (4, 5, 6)),
    ]
    for g, G in (("g0", underlying_graph(X)), ("g1", edge_graph(X)))
    if G.n <= 16 and G.regular_k
    for seed in (None, 3)
]


@pytest.mark.parametrize("G", [G for _, G in CHEEGER_GRAPHS], ids=[n for n, _ in CHEEGER_GRAPHS])
def test_cheeger_int_and_row_paths_match_the_full_table(G):
    # The packed kernel against the whole table and the direct subset loop: the
    # constant, a tied side, and the least witness.
    h, witness, ties = full_tables.cheeger(G)
    if G.n <= 12:
        assert brute_cheeger(G) == (h, witness)
    assert_packed_matches(G, h, witness, ties)
    assert cheeger_exhaustive(G) == spectral.CheegerResult(h, witness)


@settings(max_examples=25, deadline=None)
@given(st.integers(5, 20), st.sampled_from((3, 4)), st.integers(0, 99))
@example(20, 3, 0)
@example(19, 4, 0)
@example(21, 4, 0)
@example(22, 3, 0)
@example(24, 3, 0)
def test_packed_cheeger_matches_the_full_table_on_random_regular_graphs(n, d, seed):
    # Odd and even n, drawn up to 20 vertices, where the full table is cheap, and
    # taken at 21, 22 and 24 (0.07 s for the full table at 22).
    assume(n * d % 2 == 0)
    G = named_complexes.random_regular_graph(n, d, seed)
    h, witness, ties = full_tables.cheeger(G)
    assert_packed_matches(G, h, witness, ties)
    assert cheeger_exhaustive(G) == spectral.CheegerResult(h, witness)


def test_packed_cheeger_on_a_disconnected_graph():
    # Cycles of 3, 4, 5 and 3 vertices, and 7 more: h = 0, tied by unions of cycles at
    # every side size from 3 to n // 2, 7 and 11.  Once the first tie sets the ratio to
    # 0 the scan reads only slices holding a cut of 0, so a tied slice it skipped would
    # lose the least witness of some relabelling.
    for lengths in [(3, 4, 5, 3), (3, 4, 5, 3, 7)]:
        n = sum(lengths)
        starts = accumulate(lengths[:-1], initial=0)
        G = Graph.from_edges(n, [(a + i, a + (i + 1) % c) for a, c in zip(starts, lengths) for i in range(c)])
        h, witness, ties = full_tables.cheeger(G)
        assert (h, witness) == (0, (0, 1, 2))
        if n <= 15:
            assert brute_cheeger(G) == (h, witness)
        assert {int(m).bit_count() for m in ties} == set(range(3, n // 2 + 1))
        for relabelled in (G, relabel_graph(G, 1), relabel_graph(G, 2)):
            h, witness, ties = full_tables.cheeger(relabelled)
            assert_packed_matches(relabelled, h, witness, ties)
            assert cheeger_exhaustive(relabelled) == spectral.CheegerResult(h, witness)


def test_packed_cheeger_ties_at_half_size_on_both_sides_of_vertex_0():
    # n-cycles: each arc of n / 2 vertices has the least ratio 2 / n.  Of the arcs
    # holding vertex 0, those without vertex n - 1 are sides T and those with it the
    # complements of sets T without vertex 0.  Around 0, 1, ..., n - 1 the least
    # witness is a side T; around 0, n - 1, 1, ..., n - 2 it holds n - 1, so the
    # kernel picks each kind once, at 10 vertices and at 22.
    for n in (10, 22):
        half, sides = n // 2, []
        for ring, want in [
            (list(range(n)), tuple(range(half))),
            ([0, n - 1, *range(1, n - 1)], (*range(half - 1), n - 1)),
        ]:
            G = Graph.from_edges(n, list(zip(ring, ring[1:] + ring[:1])))
            h, witness, ties = full_tables.cheeger(G)
            assert (h, witness) == (Fraction(2, n), want)
            if n <= 12:
                assert brute_cheeger(G) == (h, witness)
            sides.append(assert_packed_matches(G, h, witness, ties))
            assert cheeger_exhaustive(G) == spectral.CheegerResult(h, witness)
        assert [m >> (n - 1) & 1 for m in sides] == [0, 1]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**12 - 1), st.integers(0, 2**12 - 1))
def test_lex_less_compares_masks_as_sorted_vertex_tuples(a, b):
    assert not spectral._lex_less(a, a)  # the packed kernel meets its first witness {0} again
    assume(a != b)
    assert spectral._lex_less(a, b) == (spectral.lex_first([a, b]) == spectral.lex_first([a]))


def test_least_ratio_keeps_every_tie_in_order():
    # Three blocks of a table with ties in the first and last; the second
    # has a larger ratio, and the dead and zero-denominator entries none.
    num = np.array([2, 1, 3, 0, 5, 1, 2, 4, 0])
    denom = np.array([4, 2, 1, 0, 1, 1, 4, 4, 0])
    live = np.array([True, True, True, True, True, True, True, True, False])
    blocks = [(num[i : i + 3], denom[i : i + 3], live[i : i + 3]) for i in range(0, 9, 3)]
    best, ties = spectral.least_ratio(iter(blocks), 3)
    assert best == Fraction(1, 6)
    assert ties.tolist() == [0, 1, 6]
    assert full_tables.least_ratio(num, denom, live, 3)[1].nonzero()[0].tolist() == [0, 1, 6]


def test_packed_cheeger_holds_less_than_an_int16_table():
    # K22: less than the 2 bytes per subset of a whole cut table (8 MiB); the packed
    # rows hold far less (see the pins below).
    G = complete_graph(22)
    cheeger_exhaustive(G)  # an untraced warm-up call
    assert traced_peak(cheeger_exhaustive, G) <= 2.75 * 2**22


@pytest.mark.parametrize("n", [24, 26])
def test_packed_cheeger_holds_a_few_packed_rows(n):
    # K24's 2**24 and K26's 2**26 subsets: the cuts are packed a row of 2**13 or 2**14
    # bytes at a time, beside the low sets' masks and tables, where a whole int16 cut
    # table alone takes 32 or 128 MiB.
    G = complete_graph(n)
    cheeger_exhaustive(complete_graph(16))  # an untraced warm-up call
    assert traced_peak(cheeger_exhaustive, G) < 2 * 2**20


def test_cut_sizes_hold_only_the_table():
    # The reference's top half of each doubling is built in place: no table of |N(j) & S|.
    masks = complete_graph(22).neighbor_masks
    full_tables.cut_sizes(masks)  # an untraced warm-up call
    assert traced_peak(full_tables.cut_sizes, masks) <= 2.5 * 2**22


# --- expander mixing lemma -------------------------------------------------


def brute_mixing_residual(G):
    """(worst residual, the first subset in mask order that attains it)."""
    lambda2 = normalized_spectrum(G).lambda2
    worst, witness = float("-inf"), ()
    k, n = G.regular_k, G.n
    for mask in range(1 << n):
        inside = {v for v in range(n) if mask >> v & 1}
        r = len(inside)
        two_es = sum(1 for u in inside for v in G.adjacency[u] if v in inside)
        residual = two_es - k * r * (r / n + lambda2 * (1 - r / n))
        if residual > worst:
            worst, witness = residual, tuple(sorted(inside))
    return worst, witness


def test_mixing_lemma_audit_corpus():
    for name, G in CORPUS.items():
        assert mixing_lemma_residual(G)[0] <= 1e-6, name


def test_mixing_lemma_residual_matches_brute():
    for G in (K4, C4, C6, OCTAHEDRON, T5):
        residual, witness, _ = mixing_lemma_residual(G)
        worst, want = brute_mixing_residual(G)
        assert abs(residual - worst) <= 1e-9
        assert witness == want


def test_mixing_lemma_nonpositive_on_complete_and_octahedron():
    assert mixing_lemma_residual(K4)[0] <= 1e-12
    assert mixing_lemma_residual(OCTAHEDRON)[0] <= 1e-12


def test_mixing_lemma_capacity(monkeypatch):
    # The cut table refuses the graph before the eigensolver runs.
    monkeypatch.setattr(np.linalg, "eigh", None)
    with pytest.raises(CapacityError, match=r"got 2\*\*27"):
        mixing_lemma_residual(cycle_graph(27))


def test_mixing_lemma_on_23_vertices():
    # On a cycle the least cut of 0 < s < n vertices is an arc's 2, so the
    # worst residual has a closed form.
    n = 23
    residual, _, lam = mixing_lemma_residual(cycle_graph(n))
    want = max(
        2 * s - (2 if 0 < s < n else 0) - 2 * s * (s / n + lam * (1 - s / n))
        for s in range(n + 1)
    )
    assert residual == pytest.approx(want, abs=1e-12) and residual <= 1e-6


# --- Cheeger inequality ----------------------------------------------------


@pytest.mark.parametrize(
    "name,expected",
    [("K4", 10 / 9), ("octahedron", 7 / 8), ("C4", 7 / 8)],
)
def test_cheeger_inequality_known_slack(name, expected):
    assert abs(cheeger_inequality_slack(CORPUS[name]) - expected) <= 1e-9


def test_cheeger_inequality_corpus():
    for G in CORPUS.values():
        assert cheeger_inequality_slack(G) >= -1e-9


# --- edge-graph floor ------------------------------------------------------


def test_floor_known_values():
    assert abs(edge_graph_floor_slack(complete_complex(4)) - 4 / 9) <= 1e-9
    assert abs(edge_graph_floor_slack(complete_complex(5)) - 11 / 18) <= 1e-9


def test_floor_k6_k7():
    for n in (6, 7):
        assert edge_graph_floor_slack(complete_complex(n)) >= -1e-9


def test_floor_requires_edge_regularity():
    lopsided = build_from_triangles([(0, 1, 2)], [(0, 3)])
    with pytest.raises(RegularityError):
        edge_graph_floor_slack(lopsided)
