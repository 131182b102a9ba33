"""Expansion certificates, the lemma judgements, and the mixing rate bound.

The oracle here is a from-scratch reference certifier: coboundaries by
literal definition loops, cocycle sets by filtering the full power set,
distances by direct minima.  The production certifier must reproduce its
exact rational constants.
"""

import argparse
import functools
import io
import math
import operator
import random
import time
import weakref
from fractions import Fraction
from itertools import accumulate, combinations

import full_tables
import named_complexes
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from chains import Chain, coboundary, coboundary_edges, distance_to_space, local_view, span_iter
from lemma_loops import distance, fatness_partition, link_union, local_views, outgoing, sum_bound
from named_complexes import (
    CUBOCTAHEDRON,
    HEAWOOD_LINE,
    ICOSAHEDRON,
    K333,
    OCTAHEDRON,
    PALEY_13,
    PETERSEN_LINE,
    RP2_6,
    T5,
    TORUS_7,
    TTS_9,
    build_from_triangles,
    complete_graph,
    cycle_graph,
    edge_id,
    relabel,
    save_complex,
)
from scalar_walk import randrange
from scan_certifier import scan_certify_dimension
from traced import traced_call, traced_peak

from hdxwalk import commands, expansion, gf2, graphs, spectral
from hdxwalk.cli import run
from hdxwalk.cochain import coboundary_space, cocycle_space
from hdxwalk.complexes import Complex2, complete_complex, random_complex
from hdxwalk.errors import (
    CapacityError,
    DegenerateComplexError,
    DomainError,
    ParameterError,
    RegularityError,
)
from hdxwalk.expansion import (
    certify_exact,
    distance_judgement,
    fatness_constant,
    gap_lambda2,
    large_cuts_audit,
    local_view_bound_judgement,
    mixing_rate_bound,
    sum_bound_judgement,
)
from hdxwalk.graphs import Graph, edge_graph, underlying_graph
from hdxwalk.rng import SplitMix64
from hdxwalk.spectral import cheeger_exhaustive, normalized_spectrum, row_bits

K4 = complete_complex(4)
K5 = complete_complex(5)


def edge_chain(X, *pairs):
    return Chain.of(1, [edge_id(X, u, v) for (u, v) in pairs])


def coboundary_sums(X):
    """sum_v |coboundary(F_v)| for every edge mask F: the row blocks of the reference
    ``full_tables.local_view_sums`` over the star tables, joined."""
    views = expansion.local_views(X)[1]
    return np.concatenate([sums for sums, _ in full_tables.local_view_sums(X, views)])


def cut_table(G):
    """G's cut size at every vertex mask: the whole-table reference."""
    return full_tables.cut_sizes(G.neighbor_masks)


def view_index(X, v, mask):
    """Index of the local view mask & star(v) in v's tables: bit t for the t-th star edge."""
    return sum((mask >> e & 1) << t for t, e in enumerate(X.vertex_edges[v]))


# A hexagon wheel with one more triangle: vertex degrees 6, 4, 4, 3, 4, 3, 3.
IRREGULAR_HEXAGON = build_from_triangles(
    [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 6), (0, 1, 6), (1, 2, 4)]
)


# --- reference certifier (independent oracle) -------------------------------


def brute_cut_edges(X, vertices):
    return frozenset(
        i for i, (u, v) in enumerate(X.edges) if (u in vertices) != (v in vertices)
    )


def brute_odd_triangles(X, edge_ids):
    chosen = {X.edges[i] for i in edge_ids}
    out = set()
    for j, (u, v, w) in enumerate(X.triangles):
        if sum(pair in chosen for pair in ((u, v), (u, w), (v, w))) % 2:
            out.add(j)
    return frozenset(out)


def brute_certify(X):
    """Reference (epsilon_Z, epsilon_B, mu) per dimension, by definition."""
    k0, k1 = (len(X.vertex_edges[0]), len(X.edge_triangles[0]))
    out = {}
    for i, k_i in ((0, k0), (1, k1)):
        count = X.n_vertices if i == 0 else X.n_edges
        cob = brute_cut_edges if i == 0 else brute_odd_triangles
        subsets = [
            frozenset(s) for r in range(count + 1) for s in combinations(range(count), r)
        ]
        z_set = [s for s in subsets if not cob(X, s)]
        if i == 0:
            b_set = [frozenset(), frozenset(range(X.n_vertices))]
        else:
            b_set = list(
                {
                    brute_cut_edges(X, set(vs))
                    for r in range(X.n_vertices + 1)
                    for vs in combinations(range(X.n_vertices), r)
                }
            )
        eps_z = eps_b = None
        mu = None
        for s in subsets:
            d = cob(X, s)
            if not d:
                if s not in b_set:
                    size = Fraction(len(s), count)
                    mu = size if mu is None else min(mu, size)
                continue
            dz = min(len(s ^ z) for z in z_set)
            db = min(len(s ^ z) for z in b_set)
            rz = Fraction(len(d), k_i * dz)
            rb = Fraction(len(d), k_i * db)
            eps_z = rz if eps_z is None else min(eps_z, rz)
            eps_b = rb if eps_b is None else min(eps_b, rb)
        out[i] = (eps_z, eps_b, mu)
    return out


def test_certificate_matches_reference_oracle():
    for X in (K4, K5):
        want = brute_certify(X)
        cert = certify_exact(X)
        for report in cert.dimensions:
            eps_z, eps_b, mu = want[report.dimension]
            assert report.epsilon_cosystolic == eps_z
            assert report.epsilon_coboundary == eps_b
            assert report.mu == mu
        assert cert.epsilon_cosystolic == min(want[0][0], want[1][0])


def test_certificate_k4_dimension0_equals_cheeger():
    cert = certify_exact(K4)
    assert cert.dimensions[0].epsilon_cosystolic == Fraction(2, 3)


def test_certificate_k4_mu_vacuous():
    cert = certify_exact(K4)
    assert cert.mu == 1 and cert.mu_vacuous
    assert cert.connected


def test_certificate_single_edge_ratio_is_one():
    # |coboundary({e})| / (k1 * dist) = k1 / (k1 * 1) = 1 for any single edge
    F = edge_chain(K4, (0, 1))
    z1 = cocycle_space(K4, 1)
    dist, _ = distance_to_space(F, z1)
    assert dist == 1
    assert Fraction(len(coboundary_edges(K4, F)), 2 * dist) == 1


def test_certificate_witnesses_reproduce_constants():
    for X in (K4, K5):
        cert = certify_exact(X)
        for report in cert.dimensions:
            k_i = (len(X.vertex_edges[0]), len(X.edge_triangles[0]))[report.dimension]
            w = Chain.of(report.dimension, report.cosystolic_witness)
            dist, _ = distance_to_space(w, cocycle_space(X, report.dimension))
            assert Fraction(len(coboundary(X, w)), k_i * dist) == report.epsilon_cosystolic
            wb = Chain.of(report.dimension, report.coboundary_witness)
            dist_b, _ = distance_to_space(wb, coboundary_space(X, report.dimension))
            assert Fraction(len(coboundary(X, wb)), k_i * dist_b) == report.epsilon_coboundary


def test_certificate_mu_witness_on_disconnected_complex():
    tetra = list(complete_complex(4).triangles)
    shifted = [(u + 4, v + 4, w + 4) for (u, v, w) in tetra]
    X = build_from_triangles(tetra + shifted)
    cert = certify_exact(X)
    assert not cert.connected and not cert.mu_vacuous
    assert cert.mu == Fraction(1, 2)  # one component out of 8 vertices
    dim0 = cert.dimensions[0]
    w = Chain.of(0, dim0.mu_witness)
    assert coboundary(X, w).members == frozenset()
    assert w.mask not in set(span_iter(coboundary_space(X, 0)))
    assert Fraction(len(w), X.n_vertices) == dim0.mu == cert.mu
    assert cert.dimensions[1].mu is None  # both components have trivial cohomology


def test_certificate_soundness_on_random_subsets():
    # 1000 seeded subsets per dimension: no ratio below the certified minimum
    cert = certify_exact(K5)
    rng = SplitMix64(99)
    for report in cert.dimensions:
        i = report.dimension
        count = K5.n_vertices if i == 0 else K5.n_edges
        k_i = (4, 3)[i]
        z = cocycle_space(K5, i)
        for _ in range(1000):
            S = Chain.from_mask(i, randrange(rng, 1 << count))
            d = coboundary(K5, S)
            if not d.members:
                continue
            dist, _ = distance_to_space(S, z)
            assert Fraction(len(d), k_i * dist) >= report.epsilon_cosystolic


def test_cosystolic_at_least_coboundary_constant():
    for X in (K4, K5):
        cert = certify_exact(X)
        assert cert.epsilon_cosystolic >= cert.epsilon_coboundary


def test_dist_to_z_at_most_dist_to_b_exhaustive_k4():
    z = cocycle_space(K4, 1)
    b = coboundary_space(K4, 1)
    for mask in range(1 << K4.n_edges):
        F = Chain.from_mask(1, mask)
        dz, _ = distance_to_space(F, z)
        db, _ = distance_to_space(F, b)
        assert dz <= db


def test_certify_capacity_error():
    with pytest.raises(CapacityError):
        certify_exact(complete_complex(8))


def test_certify_degenerate_without_triangles():
    with pytest.raises(DegenerateComplexError):
        certify_exact(random_complex(4, 0.0, seed=0))


def test_certify_requires_regularity():
    with pytest.raises(RegularityError):
        certify_exact(build_from_triangles([(0, 1, 2)], [(0, 3)]))


# --- coset tables against the per-subset codeword scan ----------------------


def _sparse_complex(seed):
    """A few random triangles on 6 or 7 vertices: irregular, often disconnected."""
    rng = random.Random(seed)
    n = rng.choice((6, 7))
    return build_from_triangles(rng.sample(list(combinations(range(n), 3)), rng.randint(1, 5)))


SCAN_INPUTS = (
    [("K4", K4), ("K5", K5), ("K6", complete_complex(6)), ("octahedron", OCTAHEDRON), ("RP2_6", RP2_6)]
    + [(f"{name} relabelled {seed}", relabel(X, seed))
       for name, X in (("K5", K5), ("octahedron", OCTAHEDRON), ("RP2_6", RP2_6)) for seed in (1, 2)]
    + [(f"random_complex seed {s}", random_complex(3 + s % 3, s * 37 % 100 / 100, seed=s))
       for s in range(120)]
    + [(f"sparse seed {s}", X) for s in range(30) if (X := _sparse_complex(s)).n_edges <= 14]
)


def _dimension_or_error(certify, X, i, k_i):
    try:
        return certify(X, i, k_i)
    except DegenerateComplexError as exc:
        return str(exc)


def _library_dimension(X, i, k_i):
    return expansion._certify_dimension(X, i, k_i, *expansion._codes(X, i))


def _path_dimension(monkeypatch, X, i, k_i, ints):
    """``_dimension_or_error`` of the library on plain ints or on arrays, whatever the
    table sizes: INT_TABLE_BITS is raised to the table limit or lowered below 0."""
    monkeypatch.setattr(spectral, "INT_TABLE_BITS", spectral.TABLE_BIT_LIMIT if ints else -1)
    return _dimension_or_error(_library_dimension, X, i, k_i)


@functools.cache
def _scan_reference(j, i, k_i):
    return _dimension_or_error(scan_certify_dimension, SCAN_INPUTS[j][1], i, k_i)


def test_certify_dimension_matches_codeword_scan(monkeypatch):
    # Every field, witnesses included, for arbitrary k_i, on plain ints and on arrays.
    nontrivial_h1 = 0
    for j, (name, X) in enumerate(SCAN_INPUTS):
        nontrivial_h1 += len(cocycle_space(X, 1)) > len(coboundary_space(X, 1))
        for i in (0, 1):
            k_i = 1 + j % 4
            want = _scan_reference(j, i, k_i)
            for ints in (True, False):
                assert _path_dimension(monkeypatch, X, i, k_i, ints) == want, (name, i, ints)
    assert nontrivial_h1 >= 20


# --- the int and array paths ----------------------------------------------------


# The named complexes of at most 24 edges, as they are and relabelled: the tables
# reach both sides of 2**INT_TABLE_BITS (the cuboctahedron's B^1 table has 2**13
# entries and its Z^1 scan 2**16).
NAMED_SMALL = [
    (f"{name} relabelled {seed}" if seed else name, relabel(X, seed) if seed else X)
    for name, X in vars(named_complexes).items()
    if isinstance(X, Complex2) and X.n_edges <= 24
    for seed in (None, 1, 2)
]


@pytest.mark.parametrize("X", [X for _, X in NAMED_SMALL], ids=[n for n, _ in NAMED_SMALL])
def test_int_and_array_paths_agree_on_named_complexes(X, monkeypatch):
    for i in (0, 1):
        k_i = (X.regular or (1, 1))[i]
        want = _path_dimension(monkeypatch, X, i, k_i, False)
        assert _path_dimension(monkeypatch, X, i, k_i, True) == want, i


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 5), st.integers(0, 100), st.integers(0, 2**32 - 1))
def test_int_and_array_paths_match_codeword_scan_on_random_complexes(n, percent, seed):
    X = random_complex(n, percent / 100, seed=seed)
    with pytest.MonkeyPatch.context() as monkeypatch:
        for i, k_i in ((0, 2), (1, 3)):
            want = _dimension_or_error(scan_certify_dimension, X, i, k_i)
            for ints in (True, False):
                assert _path_dimension(monkeypatch, X, i, k_i, ints) == want, (i, ints)


@pytest.mark.parametrize(
    "X, arrays",
    [(OCTAHEDRON, []), (RP2_6, []), (CUBOCTAHEDRON, [8, 13]), (TORUS_7, [13, 15])],
    ids=["octahedron", "RP2_6", "cuboctahedron", "torus7"],
)
def test_arrays_are_built_only_past_the_int_table_bits(X, arrays, monkeypatch):
    # The syndrome bits of each coset table built as an array.  A dimension whose
    # tables all have at most 2**INT_TABLE_BITS entries builds none; the
    # cuboctahedron's 2**13-entry B^1 table puts its Z^1 table, 2**8, on arrays too.
    built = []
    table = expansion._coset_table
    table.cache_clear()
    monkeypatch.setattr(
        expansion, "_coset_table", lambda count, basis: built.append(count - len(basis)) or table(count, basis)
    )
    certify_exact.__wrapped__(X, max_bits=30)
    assert built == arrays


# --- witnesses read off the coset tables -------------------------------------


def _brute_lex_least(columns, flags):
    subsets = sorted(
        tuple(j for j in range(len(columns)) if m >> j & 1) for m in range(1 << len(columns))
    )
    hits = [s for s in subsets if flags[functools.reduce(operator.xor, (columns[j] for j in s), 0)]]
    return hits[0] if hits else None


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_lex_least_matches_brute_force(data):
    bits = data.draw(st.integers(1, 5))
    columns = data.draw(st.lists(st.integers(0, 2**bits - 1), max_size=10))
    flags = np.array(data.draw(st.lists(st.booleans(), min_size=2**bits, max_size=2**bits)))
    want = _brute_lex_least(columns, flags)
    assume(want is not None)
    assert expansion._lex_least(columns, np.flatnonzero(flags)) == want


@pytest.mark.parametrize("columns", [[1, 2, 4, 8], [3, 1, 2, 3, 6, 5], [1, 1, 1]])
def test_lex_least_at_the_ends(columns):
    flags = np.zeros(8 if max(columns) < 8 else 16, bool)
    flags[0] = True  # a tied empty prefix: the empty subset is least
    assert expansion._lex_least(columns, np.array([0])) == () == _brute_lex_least(columns, flags)
    flags[:] = False
    full = functools.reduce(operator.xor, columns)
    flags[full] = True  # tied only at the full set
    assert expansion._lex_least(columns, np.array([full])) == _brute_lex_least(columns, flags)


# Captured from the earlier witness scan over all 2**faces subsets.
PINNED_CERTIFICATES = {  # per dimension: (eps_cos, witness, eps_cob, witness, mu, witness)
    TORUS_7: (
        ('2/3', (0, 1, 2), '2/3', (0, 1, 2),
         None, None),
        ('1/3', (0, 1, 2), '1/7', (0, 1, 2, 3, 4, 5, 6, 7, 10, 12, 15, 17, 20),
         '2/7', (0, 1, 2, 9, 10, 14)),
    ),
    K333: (
        ('7/12', (0, 1, 3, 4, 6), '7/12', (0, 1, 3, 4, 6),
         None, None),
        ('1/3', (0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 12, 14, 15, 17, 23, 25), '1/3', (0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 12, 14, 15, 17, 23, 25),
         None, None),
    ),
    ICOSAHEDRON: (
        ('1/3', (0, 1, 2, 3, 4, 5), '1/3', (0, 1, 2, 3, 4, 5),
         None, None),
        ('1/5', (0, 1, 2, 3, 4, 5, 7, 8, 11, 13, 14, 16, 17, 18, 19, 20, 22, 28, 29), '1/5', (0, 1, 2, 3, 4, 5, 7, 8, 11, 13, 14, 16, 17, 18, 19, 20, 22, 28, 29),
         None, None),
    ),
    T5: (
        ('7/15', (0, 1, 2, 3, 4), '7/15', (0, 1, 2, 3, 4),
         None, None),
        ('5/21', (0, 1, 2, 3, 4, 5, 8, 9, 10, 12, 13, 14, 16, 25, 29), '5/21', (0, 1, 2, 3, 4, 5, 8, 9, 10, 12, 13, 14, 16, 25, 29),
         None, None),
    ),
    PETERSEN_LINE: (
        ('5/14', (0, 1, 2, 3, 4, 5, 6), '5/14', (0, 1, 2, 3, 4, 5, 6),
         None, None),
        ('1', (0,), '1/5', (0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 12, 15, 16),
         '1/15', (0, 3)),
    ),
}


@pytest.mark.parametrize("X", list(PINNED_CERTIFICATES), ids=["torus7", "K333", "icosahedron", "T5", "petersen-line"])
def test_certificates_past_the_default_face_limit(X):
    def fields(r):
        return (
            str(r.epsilon_cosystolic), r.cosystolic_witness,
            str(r.epsilon_coboundary), r.coboundary_witness,
            None if r.mu is None else str(r.mu),
            r.mu_witness,
        )

    cert = certify_exact(X, max_bits=30)
    assert tuple(fields(r) for r in cert.dimensions) == PINNED_CERTIFICATES[X]


def test_coboundary_constant_null_when_its_table_does_not_fit(monkeypatch):
    # The 7-vertex torus has a 2**15-entry B^1 table and a 2**13-entry Z^1 table.
    # Past a limit of 2**14, read from spectral as check_table_bits reads it, B^1's
    # table is not built: epsilon_coboundary is null at dimension 1 and, through
    # the minimum, at the top level, and nothing else changes.
    full = certify_exact.__wrapped__(TORUS_7)
    assert full.dimensions[1].epsilon_coboundary == Fraction(1, 7)
    monkeypatch.setattr(spectral, "TABLE_BIT_LIMIT", 14)
    cut = certify_exact.__wrapped__(TORUS_7)
    dim0, dim1 = full.dimensions
    dim1 = expansion.DimensionReport(
        **{**dim1.asdict(), "epsilon_coboundary": None, "coboundary_witness": None}
    )
    assert cut == expansion.ExpansionCertificate(
        **{**full.asdict(), "epsilon_coboundary": None, "dimensions": (dim0, dim1)}
    )


def test_paley13_certified_without_its_b1_table():
    # Z^1 has 2**25 cosets and B^1 2**27: the traced peak stays below B^1's table alone.
    expansion._coset_table.cache_clear()
    cert, peak = traced_call(certify_exact.__wrapped__, PALEY_13, max_bits=40)
    expansion._coset_table.cache_clear()
    assert (cert.epsilon_cosystolic, cert.mu, cert.epsilon_coboundary) == (Fraction(1, 5), Fraction(8, 39), None)
    assert peak < 2**27


@pytest.fixture
def coset_table_bits(monkeypatch):
    """The bits of every coset table built, in order, on plain ints or as an array
    from empty table caches; a table read from its cache is not built again."""
    built = []
    table, int_table = expansion._coset_table, expansion._int_coset_table
    table.cache_clear()
    int_table.cache_clear()

    def spy(count, basis):
        misses = table.cache_info().misses
        columns, weight = table(count, basis)
        if table.cache_info().misses > misses:
            built.append(len(weight).bit_length() - 1)
        return columns, weight

    def int_spy(count, basis):
        misses = int_table.cache_info().misses
        columns, weight = int_table(count, basis)
        if int_table.cache_info().misses > misses:
            built.append(len(weight).bit_length() - 1)
        return columns, weight

    monkeypatch.setattr(expansion, "_coset_table", spy)
    monkeypatch.setattr(expansion, "_int_coset_table", int_spy)
    return built


@pytest.mark.parametrize(
    "X, max_bits, bits",
    [(K5, 24, [4, 6]), (RP2_6, 24, [5, 9, 10]), (TORUS_7, 24, [6, 13, 15]), (T5, 30, [9, 21])],
    ids=["K5", "RP2_6", "torus7", "T5"],
)
def test_one_coset_table_per_distinct_code(coset_table_bits, X, max_bits, bits):
    # B^i = Z^i at dimension 0 of a connected complex and at dimension 1
    # of K5 and T(5): one table serves both distances.
    certify_exact.__wrapped__(X, max_bits=max_bits)
    assert coset_table_bits == bits


@pytest.mark.parametrize("lemma", ["distance", "all"])
def test_audit_builds_the_z1_table_once(coset_table_bits, tmp_path, lemma):
    # Certification, which gives mu, builds the Z^0 and Z^1 tables (B = Z at both
    # dimensions), as arrays on K7 and on plain ints on the octahedron; the distance
    # judgement reads the same Z^1 table.
    for X, bits in [(complete_complex(7), [6, 15]), (OCTAHEDRON, [5, 7])]:
        path = tmp_path / "x.complex"
        save_complex(X, str(path))
        certify_exact.cache_clear()
        coset_table_bits.clear()
        assert run(["audit", str(path), "--lemma", lemma], io.StringIO(), io.StringIO()) == 0
        assert coset_table_bits == bits


def test_every_table_is_sized_before_any_is_built(coset_table_bits):
    # Tables of 2**20, 2**14 and 2**22 entries would fit; the 2**28
    # cocycles of Z^1 do not, and that is known from dim Z and dim B alone.
    start = time.perf_counter()
    with pytest.raises(CapacityError, match=r"got 2\*\*28"):
        certify_exact.__wrapped__(HEAWOOD_LINE, max_bits=64)
    assert time.perf_counter() - start < 0.1
    assert coset_table_bits == []


COSET_TABLE_INPUTS = [
    ("K5", K5, (0, 1)),
    ("K6", complete_complex(6), (0, 1)),
    ("octahedron", OCTAHEDRON, (0, 1)),
    ("RP2_6", RP2_6, (0, 1)),
    ("RP2_6 relabelled 1", relabel(RP2_6, 1), (0, 1)),
    ("K12", complete_complex(12), (0,)),  # 66 edges: coboundaries span two 64-bit chunks
    # An edge in no triangle has a zero Z^1 column, and 9 unit columns over 8 bits
    # give a non-pivot face a unit column: the two kinds the relaxation skips.
    ("random 6 0.5 3", random_complex(6, 0.5, seed=3), (0, 1)),
    # Ten edges each, with non-unit columns of both halves of the relaxation's XOR.
    ("random 5 0.3 0", random_complex(5, 0.3, seed=0), (0, 1)),
    ("random 5 0.5 2", random_complex(5, 0.5, seed=2), (0, 1)),
]


@pytest.mark.parametrize(
    "X, dimensions",
    [(X, d) for _, X, d in COSET_TABLE_INPUTS],
    ids=[n for n, *_ in COSET_TABLE_INPUTS],
)
def test_coset_tables_match_every_face_subset(X, dimensions, monkeypatch):
    # For every subset S of the faces, built up one face at a time: the least
    # weight at syn(S) is at most |S|, reached in every coset, and the size
    # at syn(S) is |coboundary(S)|.  Z^i and B^i differ on RP2_6 at dimension 1.
    # Under the real row split each of these tables is one row; rows of 2 bits make
    # the relaxation read partner rows, some of them relaxed already.
    for block_bits in (spectral._BLOCK_BITS, 2):
        monkeypatch.setattr(spectral, "_BLOCK_BITS", block_bits)
        expansion._coset_table.cache_clear()
        for i in dimensions:
            gens = (X.vertex_edge_masks, X.edge_triangle_masks)[i]
            for basis in (cocycle_space(X, i), coboundary_space(X, i)):
                columns, weight = expansion._coset_table(len(gens), basis)
                size = np.concatenate(list(expansion._coset_sizes(X, i, columns)))
                least = [len(gens)] * len(weight)
                syndromes, deltas = [0], [0]
                for S in range(1, 1 << len(gens)):
                    j = (S & -S).bit_length() - 1
                    syndromes.append(syndromes[S ^ 1 << j] ^ columns[j])
                    deltas.append(deltas[S ^ 1 << j] ^ gens[j])
                for S, (syndrome, delta) in enumerate(zip(syndromes, deltas)):
                    least[syndrome] = min(least[syndrome], S.bit_count())
                    assert size[syndrome] == delta.bit_count()
                assert weight.tolist() == least
    expansion._coset_table.cache_clear()


def test_coset_table_inputs_reach_both_halves_of_the_xor(monkeypatch):
    # The relaxation splits a column c at lo = row_bits: the row part picks
    # the partner row, the low part is gathered.  Under rows of 2 bits, some
    # non-unit column has a row part only (a partner row read whole), some a
    # low part only (the row is its own partner), and some both.
    monkeypatch.setattr(spectral, "_BLOCK_BITS", 2)
    kinds = set()
    for _, X, dimensions in COSET_TABLE_INPUTS:
        for i in dimensions:
            count = (X.n_vertices, X.n_edges)[i]
            for basis in (cocycle_space(X, i), coboundary_space(X, i)):
                lo = row_bits(count - len(basis))
                for c in gf2.syndrome_columns(basis, count):
                    if c & (c - 1):
                        kinds.add((c >> lo > 0, c & ((1 << lo) - 1) > 0))
    assert {(True, False), (False, True), (True, True)} <= kinds


def test_coset_tables_keep_no_complex_alive():
    # The coset table cache is keyed by the face count and the code, so once
    # the certificate cache lets it go, a certified complex is freed.
    X = complete_complex(6)
    ref = weakref.ref(X)
    certify_exact(X)
    certify_exact.cache_clear()
    del X
    assert ref() is None


def test_coset_weights_hold_one_byte_per_entry():
    # T(5)'s Z^1 table has 2**21 entries: the uint8 weights, relaxed in place,
    # and per row block of 2**14 one index and one gathered row.
    z1 = cocycle_space(T5, 1)
    expansion._coset_table(T5.n_edges, z1)
    expansion._coset_table.cache_clear()
    assert traced_peak(expansion._coset_table, T5.n_edges, z1) <= 1.25 * 2**21


def test_coset_tables_hold_no_coboundary_masks():
    # The largest table of T(5) and of K8 has 2**21 entries.  Certification
    # holds a uint8 weight per entry, and no coboundaries: the weights are
    # relaxed in place a row block at a time, and the sizes are counted a row
    # block at a time, from subset XORs over the low and the high syndrome bits.
    for X in (T5, complete_complex(8)):
        certify_exact.__wrapped__(X, max_bits=30)
        expansion._coset_table.cache_clear()
        assert traced_peak(certify_exact.__wrapped__, X, max_bits=30) <= 1.25 * 2**21


def test_mu_scans_one_table_of_cocycles():
    # The Petersen line complex has 2**20 cocycles at dimension 1, 2**6 cosets
    # of B among them.  mu is read from one uint32 table of the cocycles, over
    # a basis of B extended to one of Z, with no table of their B-syndromes.
    certify_exact.__wrapped__(PETERSEN_LINE, max_bits=30)
    expansion._coset_table.cache_clear()
    assert traced_peak(certify_exact.__wrapped__, PETERSEN_LINE, max_bits=30) <= 7 * 2**20


@pytest.mark.parametrize("X, ties", [(T5, 12), (complete_complex(8), 2520)], ids=["T5", "K8"])
def test_coset_row_blocks_match_the_full_table(X, ties, monkeypatch):
    # Z^1 = B^1 on both: the tied syndromes of the 2**21 cosets, found over
    # row blocks, against one pass over whole tables.
    passed = []
    lex_least = expansion._lex_least
    monkeypatch.setattr(
        expansion, "_lex_least", lambda columns, tied: passed.append(tied) or lex_least(columns, tied)
    )
    report = certify_exact.__wrapped__(X, max_bits=30).dimensions[1]
    eps, want = full_tables.least_coset(X, 1, X.regular[1], cocycle_space(X, 1))
    columns = expansion._coset_table(X.n_edges, cocycle_space(X, 1))[0]
    assert (report.epsilon_cosystolic, report.cosystolic_witness) == (eps, lex_least(columns, want))
    assert passed[-1].tolist() == want.tolist()
    assert len(want) == ties and len(np.unique(want >> row_bits(21))) > 1


def test_local_view_sums_hold_one_row_block():
    # The sums of local coboundaries over the cuboctahedron's 2**24 edge sets are the
    # cuts of its edge graph: the sum lemma's pass over them holds one packed row of
    # 2**13 cuts and its flags at a time, never a table per edge set.  Each edge lies
    # in one triangle, so the edge graph is 8 disjoint triangles, and the sets of cut 0
    # are the 2**8 unions of them.
    masks = edge_graph(CUBOCTAHEDRON).neighbor_masks

    def full_pass():
        return list(spectral.cuts_below(masks, [0.5] * 25))

    assert len(full_pass()) == 2**8
    assert traced_peak(full_pass) < 2**20


def test_certificate_invariant_under_relabelling():
    for X in (K5, OCTAHEDRON, RP2_6, complete_complex(6)):
        cert = certify_exact(X)
        for seed in range(4):
            other = certify_exact(relabel(X, seed))
            for field in ("epsilon_cosystolic", "epsilon_coboundary", "mu", "mu_vacuous", "connected"):
                assert getattr(other, field) == getattr(cert, field), (field, seed)
            for a, b in zip(cert.dimensions, other.dimensions):
                assert (a.epsilon_cosystolic, a.epsilon_coboundary, a.mu) == (
                    b.epsilon_cosystolic, b.epsilon_coboundary, b.mu)


def test_tts9_certificate_invariant_under_relabelling():
    # Past the B^1 table's limit epsilon_coboundary is null; relabelled, it still is.
    cert = certify_exact(TTS_9, max_bits=40)
    assert (cert.epsilon_cosystolic, cert.mu, cert.epsilon_coboundary) == (Fraction(1, 6), Fraction(1, 9), None)
    for seed in (1, 2):
        other = certify_exact(relabel(TTS_9, seed), max_bits=40)
        for field in ("epsilon_cosystolic", "epsilon_coboundary", "mu", "mu_vacuous", "connected"):
            assert getattr(other, field) == getattr(cert, field), (field, seed)
        for a, b in zip(cert.dimensions, other.dimensions):
            assert (a.epsilon_cosystolic, a.epsilon_coboundary, a.mu) == (
                b.epsilon_cosystolic, b.epsilon_coboundary, b.mu)


@pytest.mark.parametrize("seed", [14, 24, 25])
def test_gap_gates_exact_on_relabelled_cuboctahedron(seed):
    X = relabel(CUBOCTAHEDRON, seed)
    for gate in (
        lambda: large_cuts_audit(underlying_graph(X)),
        lambda: distance_judgement(X, mu=Fraction(1)),
        lambda: local_view_bound_judgement(X, Fraction(1), mu=Fraction(1)),
        lambda: sum_bound_judgement(X, Fraction(1)),
        lambda: gap_lambda2(underlying_graph(X), "rate bound requires"),  # verify-theorem's
    ):
        with pytest.raises(DomainError, match="decided exactly"):
            gate()


def test_cuboctahedron_dimension_1():
    # 24 edges: out of reach of the codeword scan, which needs 2**24 * 2**16 steps.
    report = certify_exact(CUBOCTAHEDRON).dimensions[1]
    assert report.epsilon_cosystolic == 1
    assert report.epsilon_coboundary == Fraction(1, 5)
    assert report.mu == Fraction(1, 12)
    assert report.mu_witness == (0, 2)


# --- fatness constant and partition -----------------------------------------


def test_fatness_constant_values():
    assert abs(fatness_constant(0.0) - (1 + math.sqrt(33)) / 8) <= 1e-12
    assert abs(fatness_constant(-0.25) - (1 + math.sqrt(129)) / 16) <= 1e-12
    assert abs(fatness_constant(-1 / 3) - 0.75) <= 1e-12


def test_fatness_constant_rejects_boundary():
    with pytest.raises(DomainError):
        fatness_constant(0.5)
    # approaching the boundary the value tends to 1
    assert fatness_constant(0.5 - 1e-12) == pytest.approx(1.0, abs=1e-9)


def test_fatness_constant_identity():
    # lambda2 = 2*eta - 1/eta - 1/2 across the accepted range
    for j in range(100):
        lam = -1.0 + 1.49 * j / 99.0
        eta = fatness_constant(lam)
        assert abs(lam - (2 * eta - 1 / eta - 0.5)) <= 1e-12


def test_fatness_partition_empty_chain():
    part = fatness_partition(K4, Chain.empty(1), 0.843)
    assert part == {"fat": [], "semi_fat": [], "non_fat": [0, 1, 2, 3]}


def test_fatness_partition_full_edge_set():
    part = fatness_partition(K4, Chain.of(1, range(K4.n_edges)), 0.843)
    assert part["fat"] == [0, 1, 2, 3]


def test_fatness_partition_star():
    F = edge_chain(K4, (0, 1), (0, 2), (0, 3))
    assert fatness_partition(K4, F, 0.843) == {"fat": [0], "semi_fat": [], "non_fat": [1, 2, 3]}


def test_fatness_partition_semi_fat_case():
    # k0 = 4 on K5: a vertex with 3 of its 4 edges is semi-fat for eta ~ 0.772
    eta = fatness_constant(normalized_spectrum(complete_graph(5)).lambda2)
    F = edge_chain(K5, (0, 1), (0, 2), (0, 3))
    assert 0 in fatness_partition(K5, F, eta)["semi_fat"]


def test_fatness_partition_is_partition_and_recomputable():
    # The judgement's categories, by view size, against the reference's, by local view.
    _, eta, _ = local_view_bound_judgement(K5, Fraction(1), mu=Fraction(1))
    rng = SplitMix64(5)
    for _ in range(50):
        F = Chain.from_mask(1, randrange(rng, 1 << K5.n_edges))
        part = fatness_partition(K5, F, eta)
        assert sorted(sum(part.values(), [])) == list(range(K5.n_vertices))
        for v, star in enumerate(K5.vertex_edge_masks):
            size = (star & F.mask).bit_count()
            kind = "fat" if size > eta * 4 else "semi_fat" if 2 * size > 4 else "non_fat"
            assert v in part[kind]


# --- outgoing-edges identity -------------------------------------------------


def test_outgoing_identity_empty():
    assert outgoing(K4, Chain.empty(1)) == (0, 0)


def test_outgoing_identity_single_edge():
    assert outgoing(K4, edge_chain(K4, (0, 1))) == (4, 4)


def test_outgoing_identity_full_edge_set():
    assert outgoing(K4, Chain.of(1, range(K4.n_edges))) == (0, 0)


def test_outgoing_identity_exhaustive():
    # The two tables whose agreement audit --lemma outgoing decides, on every edge set,
    # and the edge graph's packed cut rows, which the sum lemma reads as the sums.
    for X in (K4, K5):
        assert np.array_equal(cut_table(edge_graph(X)), coboundary_sums(X))
        assert full_tables.packed_table(edge_graph(X).neighbor_masks) == coboundary_sums(X).tolist()


def test_outgoing_identity_on_random_complexes():
    for seed in range(3):
        X = random_complex(6, 0.5, seed=seed)
        cut, sums = cut_table(edge_graph(X)), coboundary_sums(X)
        rng = SplitMix64(seed)
        for _ in range(200):
            mask = randrange(rng, 1 << X.n_edges)
            assert outgoing(X, Chain.from_mask(1, mask)) == (cut[mask], sums[mask])


OUTGOING_INPUTS = {
    "k4": K4,
    "k5": K5,
    "octahedron": OCTAHEDRON,
    "rp2": RP2_6,
    "irregular-hexagon": IRREGULAR_HEXAGON,
    "k5-relabelled": relabel(K5, 2),
    "octahedron-relabelled": relabel(OCTAHEDRON, 3),
    "rp2-relabelled": relabel(RP2_6, 8),
    **{f"random-{p}-{s}": random_complex(6, p, s) for p, s in [(0.2, 1), (0.5, 3), (0.8, 4)]},
}


@pytest.mark.parametrize("name", sorted(OUTGOING_INPUTS))
def test_outgoing_decision_is_the_exhaustive_comparison(name, monkeypatch):
    # audit --lemma outgoing reports a pass from its proof alone.  The report must be
    # the comparison of the edge graph's cut table with the sums of local coboundaries
    # on every edge set, and reaching it must build no graph, stream and scan nothing.
    calls = []

    def spy(module, attr):
        original = getattr(module, attr)

        def spying(*args, **kwargs):
            calls.append(attr)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, attr, spying)

    for module, attr in [
        (graphs, "edge_graph"), (spectral, "_packed_cuts"), (expansion, "local_views"),
        (commands, "_supersets"), (commands, "_merged"), (commands, "_lemma_result"),
    ]:
        spy(module, attr)
    X = OUTGOING_INPUTS[name]
    assert X.n_edges <= 15
    Y = Complex2(X.n_vertices, X.edges, X.triangles)  # no graph kept on it yet
    result = commands._audit_outgoing(Y, argparse.Namespace(max_bits=24))
    assert calls == []
    assert "_edge_graph" not in Y.__dict__
    cut, sums = cut_table(edge_graph(X)), coboundary_sums(X)
    assert np.array_equal(cut, sums)
    assert result == {"lemma": "outgoing", "subsets_checked": 1 << X.n_edges, "violations": [],
                      "status": "pass"}


def test_edge_graph_is_the_union_of_the_links():
    # The premise of the outgoing identity: two edges adjacent in the edge graph span a
    # triangle, so they share a vertex and lie in that vertex's link; the links' union,
    # read per vertex from the triangles, is the edge graph.
    named = [X for X in vars(named_complexes).values() if isinstance(X, Complex2)]
    for X in named + list(OUTGOING_INPUTS.values()):
        for Y in [X] + [relabel(X, seed) for seed in range(3)]:
            assert link_union(Y) == edge_graph(Y)


# --- distance formula --------------------------------------------------------


def test_distance_formula_single_edge():
    assert distance(K4, edge_chain(K4, (0, 1)), certify_exact(K4).mu) == (True, [])
    met, holds = distance_judgement(K4, mu=certify_exact(K4).mu)
    assert met and holds[0][view_index(K4, 0, 1)]


def test_distance_formula_broken_star():
    # dist({02, 03}, Z^1) = 1 = min(2, 3 - 2) at vertex 0
    F = edge_chain(K4, (0, 2), (0, 3))
    assert distance(K4, F, Fraction(1)) == (True, [])
    holds = distance_judgement(K4, mu=Fraction(1))[1]
    assert all(h[view_index(K4, v, F.mask)] for v, h in enumerate(holds))


def test_distance_formula_empty_is_informational():
    assert distance(K4, Chain.empty(1), Fraction(1)) == (False, [])


def test_distance_formula_exhaustive_k4_k5():
    # Every local view of every vertex, as audit --lemma distance judges them.
    for X in (K4, K5):
        met, holds = distance_judgement(X, mu=certify_exact(X).mu)
        assert met
        assert [len(h) for h in holds] == [2 ** len(star) for star in X.vertex_edges]
        assert all(map(all, holds))


AGREEMENT_INPUTS = [
    (f"{name} relabelled {seed}" if seed else name, relabel(X, seed) if seed else X)
    for name, X in [(f"K{n}", complete_complex(n)) for n in range(4, 8)]
    + [("octahedron", OCTAHEDRON), ("RP2_6", RP2_6), ("icosahedron", ICOSAHEDRON), ("T5", T5),
       ("K333", K333), ("torus", TORUS_7)]
    for seed in (0, 1, 2)
]


@pytest.mark.parametrize("X", [X for _, X in AGREEMENT_INPUTS], ids=[n for n, _ in AGREEMENT_INPUTS])
def test_distance_table_agrees_with_codeword_enumeration(X):
    # Every local view: the Z^1 coset table's weight, and the judgement read off
    # it, against the nearest of all 2**dim Z^1 codewords.
    z1 = cocycle_space(X, 1)
    columns, weight = expansion._coset_table(X.n_edges, z1)
    _, holds = distance_judgement(X, mu=Fraction(1))
    k0 = len(X.vertex_edges[0])
    for v, edges in enumerate(X.vertex_edges):
        for r in range(len(edges) + 1):
            for view in combinations(edges, r):
                want, _ = distance_to_space(Chain.of(1, view), z1)
                assert weight[functools.reduce(operator.xor, (columns[e] for e in view), 0)] == want
                mask = sum(1 << e for e in view)
                assert holds[v][view_index(X, v, mask)] == (want == min(r, k0 - r))


@pytest.mark.parametrize(
    "X",
    [X for _, X in AGREEMENT_INPUTS] + [random_complex(6, 0.5, seed=3), IRREGULAR_HEXAGON],
    ids=[n for n, _ in AGREEMENT_INPUTS] + ["random 6 0.5 3", "irregular hexagon"],
)
def test_local_view_tables_agree_with_coboundary_definition(X):
    # Every view of every star: its size, and its |coboundary| as a cut of the
    # link, against the triangles holding an odd number of its edges.
    sizes, cuts = expansion.local_views(X)
    for v, edges in enumerate(X.vertex_edges):
        assert len(sizes[v]) == len(cuts[v]) == 2 ** len(edges)
        for index in range(2 ** len(edges)):
            view = Chain.of(1, [e for t, e in enumerate(edges) if index >> t & 1])
            assert sizes[v][index] == len(view)
            assert cuts[v][index] == len(coboundary_edges(X, view))


# --- local-view bounds --------------------------------------------------------


def test_local_view_bounds_empty_chain():
    # every vertex non-fat with an empty view, 0 >= 0
    eps = certify_exact(K4).epsilon_cosystolic
    assert all(h[0] for h in local_view_bound_judgement(K4, eps, mu=Fraction(1))[2])
    assert local_views(K4, Chain.empty(1), eps, Fraction(1)) == (True, [])


def test_local_view_bounds_single_edge():
    eps = certify_exact(K4).epsilon_cosystolic
    F = edge_chain(K4, (0, 1))
    assert local_views(K4, F, eps, Fraction(1)) == (True, [])
    assert 0 in fatness_partition(K4, F, fatness_constant(-1 / 3))["non_fat"]
    assert expansion.local_views(K4)[1][0][view_index(K4, 0, F.mask)] == 2


def test_local_view_bounds_exhaustive():
    for X in (K4, K5):
        cert = certify_exact(X)
        met, _, holds = local_view_bound_judgement(X, cert.epsilon_cosystolic, mu=cert.mu)
        assert met
        assert [len(h) for h in holds] == [2 ** len(star) for star in X.vertex_edges]
        assert all(map(all, holds))


# --- large cuts ---------------------------------------------------------------


def test_large_cuts_k4():
    result = large_cuts_audit(complete_graph(4))
    assert result.min_cut == 3 == result.k
    assert result.precondition_met and result.passes


def test_large_cuts_k5():
    result = large_cuts_audit(complete_graph(5))
    assert result.min_cut == 4 == result.k


def test_large_cuts_witness_achieves_minimum():
    result = large_cuts_audit(complete_graph(5))
    inside = set(result.witness)
    G = complete_graph(5)
    cut = sum(1 for u in inside for v in G.adjacency[u] if v not in inside)
    assert cut == result.min_cut


def test_large_cuts_witness_is_least_minimum_cut():
    # proper subsets containing vertex 0, compared as sorted vertex tuples
    for G in (complete_graph(4), complete_graph(6), edge_graph(K4)):
        candidates = []
        for r in range(1, G.n):
            for s in combinations(range(G.n), r):
                if 0 in s:
                    cut = sum(1 for u in s for v in G.adjacency[u] if v not in s)
                    candidates.append((cut, s))
        result = large_cuts_audit(G)
        assert (result.min_cut, result.witness) == min(candidates)


def test_large_cuts_single_vertex_cut_is_k():
    # every k-regular graph has a vertex cut of exactly k, so min_cut <= k always
    for G in (complete_graph(4), complete_graph(6)):
        assert large_cuts_audit(G).min_cut <= G.regular_k


def test_large_cuts_rejects_half_gap():
    with pytest.raises(DomainError):
        large_cuts_audit(cycle_graph(6))  # lambda2 = 1/2


def test_large_cuts_downgrades_when_too_small():
    # C5: lambda2 = cos(72 deg) ~ 0.309, so the size bound is ~10.5 > 5
    result = large_cuts_audit(cycle_graph(5))
    assert not result.precondition_met
    assert result.min_cut == 2 and result.passes  # holds anyway, informationally


@pytest.mark.parametrize("f", [cheeger_exhaustive, large_cuts_audit], ids=["cheeger", "large-cuts"])
@pytest.mark.parametrize("n", [0, 1])
def test_cut_minima_refuse_graphs_below_two_vertices(f, n):
    # No vertices is not regular, and one vertex is 0-regular: both are
    # refused by the regularity check.
    with pytest.raises(RegularityError):
        f(Graph.from_edges(n, []))


def test_large_cuts_capacity():
    with pytest.raises(CapacityError, match=r"got 2\*\*27"):
        large_cuts_audit(cycle_graph(27))


@pytest.mark.parametrize("name, seed", full_tables.BLOCKED_CASES, ids=full_tables.BLOCKED_IDS)
def test_large_cuts_row_blocks_match_the_full_table(name, seed, monkeypatch):
    # The packed minimum-cut scan against the whole table.  The lambda2 gate is passed
    # for every graph, so the cycle's cuts are compared too.
    monkeypatch.setattr(expansion, "gap_lambda2", lambda G, claim, tol: 0.0)
    G = full_tables.blocked_graph(name, seed)
    least, witness, ties = full_tables.min_cut(G)
    result = large_cuts_audit(G)
    assert (result.min_cut, result.witness) == (least, witness)
    lo = len(spectral._low_sets(G.n - 1)[1]) - 2
    assert len({int(m) >> lo for m in ties}) > 1  # ties in more than one packed row


def joined_copies(n, k, seed):
    """Two copies of a random k-regular graph on n vertices, one edge {a, b} of each
    swapped for the edges {a, b'} and {a', b} between them: still k-regular, and the
    copies are split by a cut of 2 < k."""
    G = named_complexes.random_regular_graph(n, k, seed)
    (a, b), *rest = [(u, v) for u in range(n) for v in G.adjacency[u] if u < v]
    edges = rest + [(u + n, v + n) for u, v in rest] + [(a, b + n), (a + n, b)]
    return Graph.from_edges(2 * n, edges)


def union_of_cycles(*lengths):
    """Disjoint cycles of these lengths: a minimum cut of 0, tied by unions of them."""
    starts = accumulate(lengths[:-1], initial=0)
    return Graph.from_edges(sum(lengths), [(a + i, a + (i + 1) % c) for a, c in zip(starts, lengths) for i in range(c)])


# Minimum cuts whose least witness is not {0}, from 14 to 24 vertices, and, up to 26,
# ties at every size of side: each as it is and relabelled twice.
MIN_CUT_GRAPHS = {
    "K2": complete_graph(2),
    "K3": complete_graph(3),
    "copies 7 4": joined_copies(7, 4, 1),
    "copies 10 3": joined_copies(10, 3, 2),
    "copies 11 4": joined_copies(11, 4, 3),
    "copies 12 5": joined_copies(12, 5, 4),
    "cycles 3 4 5 3": union_of_cycles(3, 4, 5, 3),
    "cycles 5 6 7 4": union_of_cycles(5, 6, 7, 4),
    "cycles 5 6 7 8": union_of_cycles(5, 6, 7, 8),
    "C13": cycle_graph(13),
    "C22": cycle_graph(22),
    "C26": cycle_graph(26),
}


def component_min_cut(G):
    """(0, the least union of components holding vertex 0 short of them all): the
    minimum cut of a disconnected graph, from its components alone."""
    seen, parts = 0, []
    for v in range(G.n):
        if not seen >> v & 1:
            part, frontier = 1 << v, [v]
            while frontier:
                u = frontier.pop()
                for w in G.adjacency[u]:
                    if not part >> w & 1:
                        part |= 1 << w
                        frontier.append(w)
            seen |= part
            parts.append(part)
    unions = [parts[0] | sum(p for j, p in enumerate(parts[1:]) if r >> j & 1) for r in range(2 ** (len(parts) - 1) - 1)]
    return 0, spectral.lex_first(unions)


@pytest.mark.parametrize("seed", [None, 1, 2])
@pytest.mark.parametrize("name", sorted(MIN_CUT_GRAPHS))
def test_large_cuts_match_the_full_table_past_twelve_vertices(name, seed, monkeypatch):
    # Where the cut rows of numpy ran once.  The full table takes 128 MiB at 26 vertices,
    # so there the cycles' answers are taken from their components and arcs: 0 for a
    # union, and 2 on C26, whose least arc holding 0 is {0}.
    monkeypatch.setattr(expansion, "gap_lambda2", lambda G, claim, tol: 0.0)
    G = MIN_CUT_GRAPHS[name]
    G = G if seed is None else named_complexes.relabel_graph(G, seed)
    result = large_cuts_audit(G)
    if G.n <= 24:
        assert (result.min_cut, result.witness) == full_tables.min_cut(G)[:2]
    elif name == "C26":
        assert (result.min_cut, result.witness) == (2, (0,))
    else:
        assert (result.min_cut, result.witness) == component_min_cut(G)
    if name.startswith("copies"):
        assert result.min_cut == 2 < G.regular_k and len(result.witness) > 1


def test_large_cuts_hold_less_than_an_int16_table():
    # n = 22: less than the 2 bytes per subset of a whole cut table (8 MiB); the
    # packed rows of 2**12 cuts hold far less.
    G = complete_graph(22)
    large_cuts_audit(G)
    assert traced_peak(large_cuts_audit, G) <= 2.5 * 2**22


def test_cut_scans_read_the_packed_rows(monkeypatch):
    # Cheeger constants, the minimum cut and the sum lemma each read the one row
    # generator, at 6 vertices or edges and past 20.
    monkeypatch.setattr(expansion, "gap_lambda2", lambda G, claim, tol: 0.0)
    rows, packed_cuts = [], spectral._packed_cuts

    def spying(masks, order, highs):
        for row in packed_cuts(masks, order, highs):
            rows.append(len(masks))
            yield row

    monkeypatch.setattr(spectral, "_packed_cuts", spying)
    ns = argparse.Namespace(max_bits=24, slack=1e-9, tol=1e-9)
    for run, inputs in [
        (spectral.cheeger_exhaustive, [complete_graph(6), complete_graph(21)]),
        (large_cuts_audit, [complete_graph(6), complete_graph(22)]),
        (lambda X: commands._audit_sum(X, ns), [K4, complete_complex(7)]),
    ]:
        for x in inputs:
            rows.clear()
            run(x)
            assert rows and set(rows) == {x.n if isinstance(x, Graph) else x.n_edges}


# --- sum of coboundaries -------------------------------------------------------


def test_sum_coboundaries_empty():
    # lhs 0 against the bound scale * 0 = 0
    scale = sum_bound_judgement(K4, certify_exact(K4).epsilon_cosystolic)
    assert coboundary_sums(K4)[0] == 0 == scale * 0


def test_sum_coboundaries_single_edge_value():
    # lambda2 = -1/3 makes the bracket exactly 2/3, so the bound is eps/3
    eps = certify_exact(K4).epsilon_cosystolic
    lhs, rhs, ok = sum_bound(K4, edge_chain(K4, (0, 1)), eps)
    assert lhs == 4 and ok
    assert rhs == pytest.approx(float(eps) / 3, abs=1e-12)
    assert sum_bound_judgement(K4, eps) * 1 == rhs


def test_sum_coboundaries_rejects_large_sets():
    # The bound is stated for |F| <= |E|/2: audit checks the 42 edge sets of K4 with |F| <= 3.
    result = commands._audit_sum(K4, argparse.Namespace(max_bits=24, slack=1e-9, tol=1e-9))
    assert result["subsets_checked"] == sum(math.comb(6, r) for r in range(4)) == 42


@pytest.mark.parametrize("lemma, slack, per_set", [("sum", 1e-9, 0.25)])
def test_lemma_scans_hold_no_table_per_edge_set(lemma, slack, per_set):
    # K7's 2**21 edge sets, once the certificate, the graphs and the local views
    # are kept: the lemma reads one row block of sums, sizes and flags at a time.
    X = complete_complex(7)
    ns = argparse.Namespace(max_bits=24, slack=slack, tol=1e-9)
    run = commands._LEMMA_RUNNERS[lemma]
    assert run(X, ns)["status"] == "pass"
    assert traced_peak(run, X, ns) <= per_set * 2**21


@pytest.mark.parametrize("lemma", ["distance", "local-views", "outgoing"])
def test_view_lemmas_that_hold_scan_nothing(lemma):
    # On K7, with the certificate, the graphs and the local views kept, every
    # view holds and every edge-graph pair shares a vertex, so none of the 2**21
    # edge sets is enumerated: the lemma holds a few KiB, a figure that does not
    # grow with the number of edge sets.
    X = complete_complex(7)
    ns = argparse.Namespace(max_bits=24, slack=1e-9, tol=1e-9)
    run = commands._LEMMA_RUNNERS[lemma]
    assert run(X, ns)["status"] == "pass"
    assert traced_peak(run, X, ns) <= 16 * 2**10


def test_sum_lemma_lists_violations_without_an_index_per_failure():
    # With this slack every edge set of at most |E|/2 edges fails; the first ten
    # are listed from the first row block, and no table per edge set is built.
    X = complete_complex(7)
    ns = argparse.Namespace(max_bits=24, slack=-1e6, tol=1e-9)
    result = commands._audit_sum(X, ns)
    assert [v["edges"] for v in result["violations"]] == [
        [e for e in range(21) if m >> e & 1] for m in range(10)
    ]
    assert traced_peak(commands._audit_sum, X, ns) <= 0.25 * 2**21


@pytest.mark.parametrize("bits, seed", [(0, 0), (3, 1), (14, 2), (17, 3), (17, 4), (20, 5)])
def test_lemma_result_lists_the_first_ten_failures(bits, seed, monkeypatch):
    # Sparse failures of the sum stream, on a random graph: the sets of four sizes whose
    # cut is at most one above the least of their size, straddling packed rows; the
    # first three tables have fewer than ten failures in all.  Each violation is
    # described from its mask, and the scan stops at the row of the tenth.
    rng = np.random.default_rng(seed)
    G = Graph.from_edges(bits, [(u, v) for u, v in combinations(range(bits), 2) if rng.random() < 0.5])
    cuts, sizes = full_tables.cut_sizes(G.neighbor_masks), spectral.subset_sums([1] * bits)
    least = [-math.inf] * (bits + 1)
    for s in rng.choice(bits + 1, min(bits + 1, 4), replace=False):
        least[s] = float(cuts[sizes == s].min()) + rng.choice([0.5, 1.5])
    fail = cuts < np.array(least)[sizes]
    sums = rng.integers(0, 200, 1 << bits)
    lo = len(spectral._low_sets(bits)[1]) - 2
    read, packed_cuts = [], spectral._packed_cuts

    def rows(*args):
        for row in packed_cuts(*args):
            read.append(row)
            yield row

    monkeypatch.setattr(spectral, "_packed_cuts", rows)
    result = commands._lemma_result(
        "sum", argparse.Namespace(n_edges=bits), spectral.cuts_below(G.neighbor_masks, least),
        lambda m: {"m": m, "total": sums[m]},
    )
    want = np.flatnonzero(fail)[:10].tolist()
    assert [(v["m"], v["total"]) for v in result["violations"]] == [(m, sums[m]) for m in want]
    assert (result["status"], result["subsets_checked"]) == ("fail" if want else "pass", fail.size)
    assert len(read) == ((want[-1] >> lo) + 1 if len(want) == 10 else 1 << bits - lo)


def test_sum_coboundaries_exhaustive_k4_k5():
    for X in (K4, K5):
        result = commands._audit_sum(X, argparse.Namespace(max_bits=24, slack=1e-9, tol=1e-9))
        assert (result["status"], result["violations"]) == ("pass", [])


@pytest.mark.parametrize(
    "X",
    [K4, build_from_triangles([(0, 1, 2), (1, 2, 3)], [(3, 4)]), random_complex(6, 0.5, seed=3)],
)
def test_local_view_sums_match_per_subset_sums(X):
    # The reference scan, and the edge graph's packed cut rows that the sum lemma reads.
    views = expansion.local_views(X)[1]
    sizes = np.concatenate([size for _, size in full_tables.local_view_sums(X, views)])
    want = [outgoing(X, Chain.from_mask(1, m))[1] for m in range(1 << X.n_edges)]
    assert coboundary_sums(X).tolist() == want
    assert full_tables.packed_table(edge_graph(X).neighbor_masks) == want
    assert sizes.tolist() == [m.bit_count() for m in range(1 << X.n_edges)]


def test_sum_local_coboundaries_matches_direct():
    rng = SplitMix64(17)
    for _ in range(100):
        mask = randrange(rng, 1 << K5.n_edges)
        F = Chain.from_mask(1, mask)
        direct = sum(
            len(coboundary_edges(K5, local_view(K5, F, v))) for v in range(K5.n_vertices)
        )
        assert coboundary_sums(K5)[mask] == direct


# --- mixing rate bound ----------------------------------------------------------


def test_rate_bound_zero_epsilon():
    assert mixing_rate_bound(0, 0.0) == 1.0


def test_rate_bound_near_half_gap():
    assert mixing_rate_bound(1, 0.5 - 1e-13) == pytest.approx(1.0, abs=1e-9)


def test_rate_bound_frozen_value():
    # epsilon=1, lambda2=0: 1 - (3*sqrt(33) - 17)**2 / 128
    want = 1.0 - (3 * math.sqrt(33) - 17) ** 2 / 128
    assert mixing_rate_bound(1, 0.0) == pytest.approx(want, abs=1e-15)
    assert 0.99957 < want < 0.99958


def test_rate_bound_monotone_in_epsilon():
    for lam in (-1 / 3, 0.0, 0.3):
        values = [mixing_rate_bound(Fraction(j, 50), lam) for j in range(1, 51)]
        assert all(a >= b for a, b in zip(values, values[1:]))


def test_rate_bound_in_unit_interval():
    for lam in (-0.9, -1 / 3, 0.0, 0.49):
        for eps in (Fraction(1, 10), Fraction(1, 2), Fraction(1)):
            rate = mixing_rate_bound(eps, lam)
            assert 0.0 < rate < 1.0


def test_rate_bound_domain_errors():
    with pytest.raises(DomainError):
        mixing_rate_bound(1, 0.5)
    with pytest.raises(DomainError):
        mixing_rate_bound(-0.1, 0.0)


@pytest.mark.parametrize("mu", [Fraction(0), Fraction(-1, 3), -2])
def test_non_positive_mu_is_refused(mu):
    irregular = build_from_triangles([(0, 1, 2)], [(0, 3)])
    for X in (K4, irregular):  # before the regularity gate
        calls = (
            lambda: distance_judgement(X, mu=mu),
            lambda: local_view_bound_judgement(X, Fraction(1), mu=mu),
        )
        for call in calls:
            with pytest.raises(ParameterError, match="mu must be positive"):
                call()
