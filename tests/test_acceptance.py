"""Acceptance suite: eleven end-to-end criteria with stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Each test measures its own wall-clock budget.
"""

import io
import json
import time
from fractions import Fraction

from chains import Chain, coboundary, coboundary_edges, coboundary_vertices, distance_to_space
from lemma_loops import (
    cheeger_inequality_slack,
    edge_graph_floor_slack,
    mixing_lemma_residual,
    outgoing,
    sum_bound,
)
from loop_exact import loop_evolve_exact
from named_complexes import build_from_triangles, complete_graph, cycle_graph
from scalar_walk import high_order_simulate, randrange

from hdxwalk.cli import run as cli_run
from hdxwalk.cochain import coboundary_space, cocycle_space
from hdxwalk.complexes import complete_complex, random_complex
from hdxwalk.expansion import certify_exact
from hdxwalk.graphs import edge_graph
from hdxwalk.rng import SplitMix64
from hdxwalk.spectral import cheeger_exhaustive, normalized_spectrum
from hdxwalk.walk import high_order_step_counts, max_distances

K4 = complete_complex(4)
K5 = complete_complex(5)


def report(number: int, ok: bool, description: str, elapsed: float, budget: float):
    line = (
        f"ACCEPTANCE {number:2d}: {'PASS' if ok else 'FAIL'} - {description} "
        f"({elapsed:.2f}s / budget {budget:.0f}s)"
    )
    print(line)
    assert ok, line
    assert elapsed < budget, f"criterion {number} exceeded runtime budget: {line}"


def test_criterion_01_edge_graph_ground_truth():
    start = time.perf_counter()
    ok = True

    g1 = edge_graph(K4)
    ok &= g1.n == 6 and g1.regular_k == 4
    spec = normalized_spectrum(g1).normalized_eigenvalues
    want = [1.0, 0.0, 0.0, 0.0, -0.5, -0.5]
    ok &= all(abs(a - b) <= 1e-9 for a, b in zip(spec, want))

    g1 = edge_graph(K5)
    ok &= g1.n == 10 and g1.regular_k == 6
    spec = normalized_spectrum(g1).normalized_eigenvalues
    want = [1.0] + [1 / 6] * 4 + [-1 / 3] * 5
    ok &= all(abs(a - b) <= 1e-9 for a, b in zip(spec, want))

    report(1, ok, "edge-graph spectra of the complete complexes on 4 and 5 vertices",
           time.perf_counter() - start, 1.0)


def test_criterion_02_outgoing_edges_identity():
    start = time.perf_counter()
    ok = True
    for X, bits in ((K4, 6), (K5, 10)):
        for mask in range(1 << bits):
            lhs, rhs = outgoing(X, Chain.from_mask(1, mask))
            if lhs != rhs:
                ok = False
    report(2, ok, "edge-graph cut equals local-view coboundary sum on all 64 + 1024 subsets",
           time.perf_counter() - start, 1.0)


def test_criterion_03_mixing_lemma_audit():
    start = time.perf_counter()
    corpus = [
        complete_graph(4),
        complete_graph(5),
        cycle_graph(4),
        cycle_graph(6),
        edge_graph(K4),
        edge_graph(K5),
    ]
    ok = all(mixing_lemma_residual(G)[0] <= 1e-6 for G in corpus)
    report(3, ok, "expander mixing bound residual <= 1e-6 over all subsets of the 6-graph corpus",
           time.perf_counter() - start, 5.0)


def test_criterion_04_cheeger_inequality():
    start = time.perf_counter()
    corpus = {
        "K4": complete_graph(4),
        "K5": complete_graph(5),
        "C4": cycle_graph(4),
        "C6": cycle_graph(6),
        "octahedron": edge_graph(K4),
        "T5": edge_graph(K5),
    }
    ok = all(cheeger_inequality_slack(G) >= -1e-9 for G in corpus.values())
    ok &= cheeger_exhaustive(corpus["K4"]).h_normalized == Fraction(2, 3)
    ok &= cheeger_exhaustive(corpus["octahedron"]).h_normalized == Fraction(1, 2)
    ok &= cheeger_exhaustive(corpus["C4"]).h_normalized == Fraction(1, 2)
    report(4, ok, "Cheeger inequality slack >= -1e-9 on the corpus with exact rational constants",
           time.perf_counter() - start, 5.0)


def test_criterion_05_edge_graph_floor():
    start = time.perf_counter()
    ok = True
    for n in range(4, 8):
        ok &= edge_graph_floor_slack(complete_complex(n)) >= -1e-9
    seeds = iter(range(1000))
    for n in (4, 5, 6, 7):
        for _ in range(5):
            X = random_complex(n, 1.0, seed=next(seeds))
            ok &= edge_graph_floor_slack(X) >= -1e-9
    report(5, ok, "smallest edge-graph eigenvalue >= -17/18 for complete and 20 seeded complexes",
           time.perf_counter() - start, 5.0)


def test_criterion_06_certification_ground_truth():
    start = time.perf_counter()
    cert = certify_exact(K4)
    ok = cert.dimensions[0].epsilon_cosystolic == Fraction(2, 3)
    ok &= cert.mu == 1 and cert.mu_vacuous

    # dimension-1 constant is self-consistent: re-evaluating each witness
    # with the cochain primitives reproduces the reported rational exactly
    dim1 = cert.dimensions[1]
    z1 = cocycle_space(K4, 1)
    b1 = coboundary_space(K4, 1)
    w = Chain.of(1, dim1.cosystolic_witness)
    dist, _ = distance_to_space(w, z1)
    ok &= Fraction(len(coboundary_edges(K4, w)), 2 * dist) == dim1.epsilon_cosystolic
    wb = Chain.of(1, dim1.coboundary_witness)
    dist_b, _ = distance_to_space(wb, b1)
    ok &= Fraction(len(coboundary_edges(K4, wb)), 2 * dist_b) == dim1.epsilon_coboundary
    w0 = Chain.of(0, cert.dimensions[0].cosystolic_witness)
    dist0, _ = distance_to_space(w0, cocycle_space(K4, 0))
    ok &= Fraction(len(coboundary_vertices(K4, w0)), 3 * dist0) == Fraction(2, 3)

    report(6, ok, "certificate: dimension-0 constant 2/3 exact, mu vacuously 1, witnesses re-evaluate",
           time.perf_counter() - start, 10.0)


def test_criterion_07_sum_of_coboundaries():
    start = time.perf_counter()
    ok = True

    eps4 = certify_exact(K4).epsilon_cosystolic
    for mask in range(1 << 6):
        if mask.bit_count() > 3:
            continue
        if not sum_bound(K4, Chain.from_mask(1, mask), eps4)[2]:
            ok = False

    eps5 = certify_exact(K5).epsilon_cosystolic
    for mask in range(1 << 10):
        if mask.bit_count() > 3:
            continue
        if not sum_bound(K5, Chain.from_mask(1, mask), eps5)[2]:
            ok = False

    rng = SplitMix64(20240607)
    audited = 0
    while audited < 10_000:
        mask = randrange(rng, 1 << 10)
        if mask.bit_count() > 5:
            continue
        audited += 1
        if not sum_bound(K5, Chain.from_mask(1, mask), eps5)[2]:
            ok = False

    report(7, ok, "sum-of-coboundaries bound on all small subsets plus 10^4 seeded subsets",
           time.perf_counter() - start, 30.0)


def test_criterion_08_main_theorem_end_to_end(tmp_path):
    start = time.perf_counter()
    ok = True
    for n, lam_g1 in ((4, 0.5), (5, 1 / 3)):
        path = tmp_path / f"k{n}.complex"
        assert cli_run(["gen", "complete", "--n", str(n), "-o", str(path)],
                       io.StringIO(), io.StringIO()) == 0
        out = io.StringIO()
        code = cli_run(["verify-theorem", str(path), "--steps", "100"], out, io.StringIO())
        ok &= code == 0
        doc = json.loads(out.getvalue())
        ok &= doc["status"] == "pass"
        rate = doc["results"]["rate_bound"]
        ok &= 0.0 < rate < 1.0
        ok &= all(doc["results"]["walk"]["bound_ok"])

        # exact evolution from every point-mass start, against both bounds
        X = complete_complex(n)
        g1 = edge_graph(X)
        for e0 in range(g1.n):
            distances = max_distances(g1, [e0], 100)
            d0 = distances[0]
            for i, d in enumerate(distances):
                if d > rate**i + 1e-9:
                    ok = False
                if d > lam_g1**i * d0 + 1e-9:
                    ok = False
    report(8, ok, "verify-theorem passes on both complete complexes; every start obeys both decays",
           time.perf_counter() - start, 10.0)


def test_criterion_09_walk_engine_equivalence():
    start = time.perf_counter()
    paths, steps, seed = 100_000, 8, 1729
    counts = high_order_step_counts(K5, 0, steps, paths=paths, seed=seed)
    exact, _, _ = loop_evolve_exact(edge_graph(K5), 0, steps)
    empirical = [c / paths for c in counts[steps]]
    tv = 0.5 * sum(abs(a - b) for a, b in zip(empirical, exact[steps]))
    ok = tv <= 0.01

    ok &= high_order_simulate(K5, 0, steps, seed=seed) == high_order_simulate(
        K5, 0, steps, seed=seed
    )
    ok &= high_order_step_counts(K5, 0, 3, paths=50, seed=3) == high_order_step_counts(
        K5, 0, 3, paths=50, seed=3
    )
    report(9, ok, f"10^5 seeded walks land within TV {tv:.4f} <= 0.01 of exact; seeds reproduce",
           time.perf_counter() - start, 30.0)


def test_criterion_10_gf2_calculus():
    start = time.perf_counter()
    ok = True

    all_triangles = complete_complex(5).triangles  # the 10 triples on 5 vertices
    skeleton = complete_complex(5).edges
    rng = SplitMix64(555)
    sampled = 0
    while sampled < 500:
        mask = randrange(rng, 1 << 10)
        if mask.bit_count() > 4:
            continue
        sampled += 1
        chosen = [all_triangles[i] for i in range(10) if mask >> i & 1]
        X = build_from_triangles(chosen, skeleton, n_vertices=5)
        for smask in range(1 << 5):
            S = Chain.from_mask(0, smask)
            if coboundary(X, coboundary(X, S)).members:
                ok = False

    ok &= len(cocycle_space(K4, 1)) == 3
    ok &= len(coboundary_space(K4, 1)) == 3
    report(10, ok, "coboundary-of-coboundary vanishes on 500 sampled complexes; Z1/B1 dims are 3",
           time.perf_counter() - start, 30.0)


def test_criterion_11_certification_at_k7(tmp_path):
    path = tmp_path / "k7.complex"
    assert cli_run(["gen", "complete", "--n", "7", "-o", str(path)],
                   io.StringIO(), io.StringIO()) == 0
    certify_exact.cache_clear()
    start = time.perf_counter()
    out = io.StringIO()
    ok = cli_run(["certify", str(path)], out, io.StringIO()) == 0
    elapsed = time.perf_counter() - start
    results = json.loads(out.getvalue())["results"]
    ok &= results["epsilon_cosystolic"] == results["epsilon_coboundary"] == "7/15"
    ok &= results["mu"] == "1" and results["mu_vacuous"]

    # 2**21 edge subsets: each witness re-evaluates to the reported constant
    X = complete_complex(7)
    dim1 = results["dimensions"][1]
    for key, space in (("cosystolic", cocycle_space(X, 1)), ("coboundary", coboundary_space(X, 1))):
        w = Chain.of(1, dim1[f"{key}_witness"])
        dist, _ = distance_to_space(w, space)
        ok &= str(Fraction(len(coboundary_edges(X, w)), 5 * dist)) == dim1[f"epsilon_{key}"]
    report(11, ok, "certify on K7 (21 edges): 7/15 at both dimensions, witnesses re-evaluate",
           elapsed, 2.0)
