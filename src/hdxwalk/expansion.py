"""Exact expansion certificates and numerical audits of the mixing machinery.

``certify_exact`` computes exactly, per face dimension i, the minimum of
|coboundary(S)| / (k_i * dist(S, Z^i)) over all non-cocycle subsets S (the
cosystolic constant; the coboundary constant takes distances to B^i instead),
together with the smallest relative size mu of a nontrivial cocycle.  Each
quantity depends only on the coset of S, so it is read off tables indexed by
syndrome: one table per distinct code.  The tables a verdict reads are sized
before any is built; B^i's, read only by the coboundary constant, is built when it fits.
Over the faces with unit syndrome columns, an information set, a syndrome
weighs its popcount; one relaxation per other face c, w[s] to w[s ^ c] + 1, in
place, lowers that to the least: w[s ^ c] once lowered is min(w[s ^ c], w[s] + 1),
and plus 1 lowers w[s] no further.  It, the coboundary sizes and the least ratio
run over the same row blocks: one byte per syndrome is the only table per code.
The least witnesses come from the tied syndromes by a greedy pass over the
faces, and mu's from a scan of the cocycles outside B^i.

A dimension whose tables all have at most 2**INT_TABLE_BITS entries (B^i's
coset table, which bounds Z^i's, and the 2**dim Z^i cocycle scan) is computed
on plain Python ints: lists of weights, relaxed one pass per column, coboundary
sizes from the XOR table of the pivot masks, and the least ratio compared by
cross-multiplication.  So ``certify`` on K4-K6, the octahedron or RP^2_6
never imports numpy, whose import costs more than the whole enumeration (see
``spectral.INT_TABLE_BITS`` for why 12).  Larger dimensions, K7's and the
cuboctahedron's first, read the array tables above; both paths give the same
report, witnesses included.

The rest states the facts behind the mixing bound that ``hdx audit`` checks:
the local-view distance formula, the per-vertex coboundary lower bounds for
semi-fat and non-fat vertices, the minimum-cut lower bound, the
sum-of-coboundaries lower bound, and the closed-form mixing rate.
``local_views`` tables, once per complex and vertex v, the size and coboundary
size of every local view F_v = F & star(v), as lists: ``spectral.cut_list``
gives the cuts of the link.  Each ``*_judgement`` function passes a lemma's
regularity and lambda2 gates once per complex and returns the lemma's verdict
per vertex and view as lists over those tables (the sum bound, its scale); none
spans the edge sets.  dist(F_v, Z^1) is read off the Z^1 coset table that
certification cached, on ints or as an array.  The lambda2 gate of a G0 on at
most INT_TABLE_BITS vertices is exact, ``spectral.lambda2_below`` and
``lambda2_bracket`` on Python ints, and the minimum cut is
``spectral.least_cut``, on packed ints at every size: so ``audit`` on K4-K6,
the octahedron or RP^2_6 never imports numpy.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from . import gf2, spectral
from ._lazy import np
from ._record import Record
from .cochain import coboundary_space, cocycle_space
from .complexes import Complex2, kept_on_complex
from .errors import (
    CERTIFY_BIT_LIMIT,
    CapacityError,
    DegenerateComplexError,
    DomainError,
    ParameterError,
    RegularityError,
    check_tolerance,
)
from .graphs import Graph, edge_graph, underlying_graph
from .spectral import (
    check_table_bits,
    cut_list,
    lambda2_below,
    lambda2_below_half,
    lambda2_bracket,
    least_cut,
    least_int_ratio,
    least_ratio,
    lex_first,
    normalized_spectrum,
    row_bits,
    subset_sums,
    subset_xors,
)

class DimensionReport(Record):
    """Exact expansion data for one face dimension."""

    dimension: int
    epsilon_cosystolic: Fraction
    cosystolic_witness: tuple[int, ...]
    epsilon_coboundary: Optional[Fraction]
    coboundary_witness: Optional[tuple[int, ...]]
    mu: Optional[Fraction]
    mu_witness: Optional[tuple[int, ...]]


class ExpansionCertificate(Record):
    """Brute-forced expansion constants with minimizing witnesses."""

    epsilon_cosystolic: Fraction
    epsilon_coboundary: Optional[Fraction]
    mu: Fraction
    mu_vacuous: bool
    connected: bool
    dimensions: tuple[DimensionReport, DimensionReport]


def _required_regular(X: Complex2) -> tuple[int, int]:
    if X.regular is None:
        raise RegularityError("complex is not (k0, k1)-regular")
    return X.regular


def gap_lambda2(G: Graph, claim: str, tol: float = 1e-9) -> float:
    """lambda2 of G; DomainError("<claim> lambda2 < 1/2; ...") unless decided below exactly.

    On at most INT_TABLE_BITS vertices one ``lambda2_below`` decides, and the
    float of ``lambda2_bracket``'s lower end is returned: no eigensolver runs
    unless the gate refuses, for the value its message quotes.  Larger graphs,
    and a ``tol`` below the bracket's width 2**-60, take the eigensolver's value
    and ``lambda2_below_half``.  ``tol`` bounds the eigensolver's residual, as in
    ``normalized_spectrum``.
    """
    check_tolerance(tol)
    exact = 0 < G.n <= spectral.INT_TABLE_BITS and tol >= 2**-60
    if exact and lambda2_below(G, Fraction(1, 2)):
        return float(lambda2_bracket(G)[0])
    report = normalized_spectrum(G, tol)
    if exact or not lambda2_below_half(G, report):
        raise DomainError(
            f"{claim} lambda2 < 1/2; it is at least 1/2, decided exactly "
            f"(eigensolver value {report.lambda2})"
        )
    return report.lambda2


def _lex_least(columns: tuple[int, ...], tied) -> tuple[int, ...]:
    """The lexicographically least subset of range(len(columns)) whose syndrome
    is in ``tied``, distinct syndromes (ints or an array of them).

    Greedy, one index at a time: stop once the syndrome of the subset chosen
    so far is tied; otherwise take index j exactly when some tied syndrome
    lies in syndrome ^ columns[j] ^ span(columns[j + 1:]).  Two syndromes
    differ by a member of that span exactly when they reduce alike against
    its reduced basis, so one pass over the tied syndromes tests them all.
    Some tied syndrome must be reachable from the start.

    The tied syndromes are packed into one int, a field of whole bytes each
    with its top bit spare, so each step acts on all of them at once: XOR with
    x * ``ones`` applies x to every field, and subtracting ``ones`` borrows
    into a top bit exactly when some field is zero.
    """
    tied = list(map(int, tied))
    size = max(*columns, *tied, 0).bit_length() // 8 + 1  # bytes per field
    ones = int.from_bytes((b"\1" + bytes(size - 1)) * len(tied), "little")
    packed = int.from_bytes(b"".join(t.to_bytes(size, "little") for t in tied), "little")
    tops = ones << (8 * size - 1)

    def hit(fields: int) -> bool:  # whether some field is zero
        return (fields - ones) & tops != 0

    chosen, syndrome = [], 0
    for j, column in enumerate(columns):
        if hit(packed ^ syndrome * ones):
            break
        offsets = packed ^ (syndrome ^ column) * ones
        for row in gf2.row_reduce(columns[j + 1 :]):
            offsets ^= (offsets >> gf2.low_bit(row) & ones) * row
        if hit(offsets):
            chosen.append(j)
            syndrome ^= column
    return tuple(chosen)


def _codes(X: Complex2, i: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Bases of Z^i and B^i, once every table a verdict reads at dimension i is known to fit.

    The Z coset table has 2**(faces - dim Z) entries and, only when B is smaller
    than Z, the cocycle table 2**dim Z.  The B coset table, 2**(faces - dim B),
    is not sized here: only epsilon_coboundary reads it, and it is built when it fits.
    """
    z, b = cocycle_space(X, i), coboundary_space(X, i)
    count = (X.n_vertices, X.n_edges)[i]
    if len(z) == count:
        raise DegenerateComplexError(
            f"every subset at dimension {i} is a cocycle; expansion ratio undefined"
        )
    check_table_bits(count - len(z))
    if len(b) < len(z):
        check_table_bits(len(z))
    return z, b


@lru_cache(maxsize=4)
def _int_coset_table(count: int, basis: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``_coset_table`` on plain ints: the columns, and the least weight of every
    coset, relaxed as a list by one pass per non-unit column over the whole list.
    Cached as ``_coset_table`` is, for the distance lemma."""
    columns = tuple(gf2.syndrome_columns(basis, count))
    weight = [s.bit_count() for s in range(1 << (count - len(basis)))]
    for column in columns:
        if column & (column - 1):  # zero and unit columns lower no weight
            partner = [weight[s ^ column] for s in range(len(weight))]
            weight = [w if w <= v else v + 1 for w, v in zip(weight, partner)]  # min(w, v + 1)
    return columns, tuple(weight)


@lru_cache(maxsize=4)
def _coset_table(count: int, basis: tuple[int, ...]) -> tuple[tuple[int, ...], np.ndarray]:
    """The syndrome columns of ``count`` faces for span(basis), a subspace of
    their cocycles, and the least weight of every coset, indexed by syndrome,
    read-only: dist(S, span(basis)) at the syndrome of S.  Cached for the
    distance lemma, keyed by the face count and the code, so it holds no complex.

    The checks are reduced: bit r is the column of one pivot face, so those
    give syndrome s the weight popcount(s).  Each other face, column c, relaxes
    w[s] to w[s ^ c] + 1 (a 0/1 knapsack) in place: row r of ``row_bits`` from
    row r ^ (c >> lo) gathered at the low bits of c, a copy even of row r.  A
    row relaxed already holds min(w[s ^ c], w[s] + 1): plus 1, it lowers no w[s].
    """
    columns = tuple(gf2.syndrome_columns(basis, count))
    bits = count - len(basis)
    weight = subset_sums([1] * bits)  # at most TABLE_BIT_LIMIT: the + 1 below fits a uint8
    lo = row_bits(bits)
    rows, cols = weight.reshape(-1, 1 << lo), np.arange(1 << lo)
    for column in columns:
        if column & (column - 1):  # zero and unit columns lower no weight
            low = cols ^ (column & ((1 << lo) - 1))
            for r, row in enumerate(rows):
                np.minimum(row, rows[r ^ (column >> lo)][low] + 1, out=row)
    weight.flags.writeable = False
    return columns, weight


def _pivot_masks(X: Complex2, i: int, columns: tuple[int, ...]) -> list[int]:
    """The coboundary masks of the pivot faces, the one for syndrome bit r at r."""
    gens = (X.vertex_edge_masks, X.edge_triangle_masks)[i]
    return [gens[columns.index(1 << r)] for r in range(max(columns, default=0).bit_length())]


def _xors(masks: list[int]) -> list[int]:
    """XOR of masks[j] over the set bits j of every index below 2**len(masks):
    ``subset_xors`` on plain ints."""
    table = [0]
    for m in masks:
        table += [t ^ m for t in table]
    return table


def _coset_sizes(X: Complex2, i: int, columns: tuple[int, ...]):
    """Row blocks of |coboundary(S)| at the syndrome of every S, for
    ``_coset_table``'s columns: row r holds the syndromes r * 2**lo + t for
    t below 2**lo, lo = ``row_bits`` of the syndrome bits.

    The size is the same across a coset, since the code lies in the cocycles.
    The pivot faces for the bits of s form a member of coset s, whose
    coboundary is the XOR of their masks: per 64-bit chunk, the XOR of one
    entry of a table over the row bits with a whole table over the low bits,
    popcounted.
    """
    width = (X.n_edges, X.n_triangles)[i]
    pivot_masks = _pivot_masks(X, i, columns)
    bits = len(pivot_masks)
    lo = row_bits(bits)
    halves = []
    for start in range(0, width, 64):
        chunk = [g >> start & (2**64 - 1) for g in pivot_masks]
        dtype = np.min_scalar_type(max(chunk, default=0))
        halves.append((subset_xors(chunk[lo:], dtype), subset_xors(chunk[:lo], dtype)))
    for r in range(1 << (bits - lo)):
        size = np.zeros(1 << lo, np.min_scalar_type(width))
        for high, low in halves:
            size += np.bitwise_count(low ^ high[r])
        yield size


def _least_coset(X: Complex2, i: int, k_i: int, basis: tuple[int, ...], ints: bool):
    """The least |coboundary(S)| / (k_i * dist(S, span(basis))) over S outside the
    cocycles, and its lexicographically least witness, on plain ints or on arrays."""
    count = (X.n_vertices, X.n_edges)[i]
    if ints:
        columns, weight = _int_coset_table(count, basis)
        sizes = (m.bit_count() for m in _xors(_pivot_masks(X, i, columns)))
        entries = ((s, size, w) for s, (size, w) in enumerate(zip(sizes, weight)) if size)
        eps, ties = least_int_ratio(entries, k_i)
    else:
        columns, weight = _coset_table(count, basis)
        rows = weight.reshape(-1, 1 << row_bits(len(weight).bit_length() - 1))
        blocks = ((size, w, size > 0) for size, w in zip(_coset_sizes(X, i, columns), rows))
        eps, ties = least_ratio(blocks, k_i)
    return eps, _lex_least(columns, ties)


def _on_ints(count: int, z_basis: tuple[int, ...], b_basis: tuple[int, ...]) -> bool:
    """Whether every table of a dimension of ``count`` faces has at most
    2**INT_TABLE_BITS entries: B's coset table, which bounds Z's, and the
    cocycles outside B, scanned only when B < Z."""
    scan = len(z_basis) if len(b_basis) < len(z_basis) else 0
    return max(count - len(b_basis), scan) <= spectral.INT_TABLE_BITS


def _certify_dimension(
    X: Complex2, i: int, k_i: int, z_basis: tuple[int, ...], b_basis: tuple[int, ...]
) -> DimensionReport:
    """One dimension's report from the bases ``_codes`` returned, on plain ints
    when every table it builds has at most 2**INT_TABLE_BITS entries."""
    count = (X.n_vertices, X.n_edges)[i]
    ints = _on_ints(count, z_basis, b_basis)
    eps_z, z_witness = _least_coset(X, i, k_i, z_basis, ints)
    if len(b_basis) == len(z_basis):
        # B = Z: one code, so one table, and no cocycle outside B.
        return DimensionReport(i, eps_z, z_witness, eps_z, z_witness, None, None)
    eps_b = b_witness = None  # B's table, read by no verdict, only when it fits
    if count - len(b_basis) <= spectral.TABLE_BIT_LIMIT:
        eps_b, b_witness = _least_coset(X, i, k_i, b_basis, ints)
    # Cocycles outside B, the nonzero cosets of B with an empty coboundary: the
    # least weight is not found greedily, so scan them.  Both bases are reduced
    # and B lies in Z, so the Z rows at pivots B lacks extend B's basis to Z's,
    # and the cocycles outside B are the combinations using one of those rows.
    pivots = {gf2.low_bit(b) for b in b_basis}
    basis = [*b_basis, *(z for z in z_basis if gf2.low_bit(z) not in pivots)]
    if ints:
        outside = _xors(basis)[1 << len(b_basis) :]
        mu_size = min(m.bit_count() for m in outside)
        least = [m for m in outside if m.bit_count() == mu_size]
    else:
        outside = subset_xors(basis, np.min_scalar_type((1 << count) - 1))[1 << len(b_basis) :]
        weight = np.bitwise_count(outside)
        mu_size = int(weight.min())
        least = outside[weight == mu_size]
    return DimensionReport(
        i, eps_z, z_witness, eps_b, b_witness, Fraction(mu_size, count), lex_first(least)
    )


def certificate_codes(X: Complex2, *, max_bits: int = CERTIFY_BIT_LIMIT) -> list:
    """Per dimension, the bases of Z^i and B^i, past every gate ``certify_exact``
    passes before it builds a table: regularity, the face limit and the size of
    every table a verdict reads."""
    _required_regular(X)
    if X.n_vertices > max_bits or X.n_edges > max_bits:
        raise CapacityError(
            f"certification is limited to {max_bits} faces per dimension; "
            f"got {X.n_vertices} vertices, {X.n_edges} edges"
        )
    return [_codes(X, i) for i in (0, 1)]


@lru_cache(maxsize=32)
def certify_exact(X: Complex2, *, max_bits: int = CERTIFY_BIT_LIMIT) -> ExpansionCertificate:
    """Exact expansion certificate at both dimensions, with the least witnesses."""
    codes = certificate_codes(X, max_bits=max_bits)  # every table is sized before any is built
    reports = tuple(_certify_dimension(X, i, k, *codes[i]) for i, k in enumerate(X.regular))
    cobs = [r.epsilon_coboundary for r in reports]
    mus = [r.mu for r in reports if r.mu is not None]
    vacuous = not mus
    return ExpansionCertificate(
        epsilon_cosystolic=min(r.epsilon_cosystolic for r in reports),
        epsilon_coboundary=None if None in cobs else min(cobs),
        mu=Fraction(1) if vacuous else min(mus),
        mu_vacuous=vacuous,
        # dim Z^0 counts the components; _codes refuses a complex without vertices.
        connected=len(codes[0][0]) == 1,
        dimensions=reports,
    )


def _bracket(lambda2: float) -> float:
    """3*sqrt((1+2*lambda2)**2 + 32) - 2*lambda2 - 17; positive for lambda2 < 1/2."""
    return 3.0 * math.sqrt((1.0 + 2.0 * lambda2) ** 2 + 32.0) - 2.0 * lambda2 - 17.0


def fatness_constant(lambda2: float) -> float:
    """The fatness threshold eta = (1 + 2*lambda2 + sqrt((1+2*lambda2)**2 + 32)) / 8.

    Defined for lambda2 < 1/2; satisfies lambda2 = 2*eta - 1/eta - 1/2 and
    lies strictly between 1/2 and 1.
    """
    if lambda2 >= 0.5:
        raise DomainError(f"fatness constant requires lambda2 < 1/2, got {lambda2}")
    u = 1.0 + 2.0 * lambda2
    eta = (u + math.sqrt(u * u + 32.0)) / 8.0
    if not (0.5 < eta < 1.0):
        raise DomainError(f"fatness constant {eta} outside (1/2, 1); lambda2={lambda2}")
    return eta


def _size_preconditions(X: Complex2, claim: str, mu: Fraction, tol: float):
    """k0, k1, lambda2, and whether the size preconditions |V| >= 4 / (1 - 2*lambda2)
    and |V| >= 3 / mu hold, past X's regularity and lambda2 gates."""
    if mu <= 0:
        raise ParameterError(f"mu must be positive, got {mu}")
    k0, k1 = _required_regular(X)
    lambda2 = gap_lambda2(underlying_graph(X), claim, tol)
    return k0, k1, lambda2, _enough_vertices(X.n_vertices, lambda2) and X.n_vertices * mu >= 3


def _enough_vertices(n: int, lambda2: float) -> bool:
    """The size precondition |V| >= 4 / (1 - 2*lambda2) of the cut and local-view lemmas."""
    return n >= 4.0 / (1.0 - 2.0 * lambda2) - 1e-12


# The star tables are lists, of 2**k0 entries per vertex, never arrays: the view
# lemmas run only once ``certify_exact`` has passed, and that bounds k0.  Every
# edge lies in a triangle (k1 > 0, or Z^1 would hold every edge set), so triangles
# each with an edge no earlier one holds give independent rows of coboundary_1,
# and rank coboundary_1 >= |E|/3.  Its Z^1 coset table, 2**rank entries, fits
# 2**26, so |E| <= 78, and |E| = |V| * k0 / 2 >= (k0 + 1) * k0 / 2 gives k0 <= 12:
# no star table exceeds 2**12 entries.  At a table limit of 30, |E| <= 90 gives
# the same.  ``local_views`` still sizes each table, for a caller that has not certified.


@kept_on_complex
def local_views(X: Complex2) -> tuple[list[list[int]], list[list[int]]]:
    """Per vertex v, the size and |coboundary| of every local view L inside star(v), kept on X.

    A view's index has bit t set when it holds the t-th edge of
    ``X.vertex_edges[v]``.  Every triangle meeting star(v) holds v and exactly
    two star edges, which are neighbors in the edge graph; so |coboundary(L)|
    is the cut of L in the edge graph restricted to the star, the link of v.
    """
    neighbors = edge_graph(X).neighbor_masks
    sizes, cuts = [], []
    for edges in X.vertex_edges:
        check_table_bits(len(edges))
        sizes.append(list(map(int.bit_count, range(1 << len(edges)))))
        link = [sum((neighbors[e] >> f & 1) << t for t, f in enumerate(edges)) for e in edges]
        cuts.append(cut_list(link))
    return sizes, cuts


def distance_judgement(X: Complex2, *, mu: Fraction, tol: float = 1e-9):
    """Whether the size preconditions hold, and per vertex v whether each view L of
    star(v) has dist(L, Z^1) = min(|L|, k0 - |L|), read off the Z^1 coset table."""
    k0, _, _, met = _size_preconditions(X, "distance formula requires", mu, tol)
    z = cocycle_space(X, 1)
    # The table certification built, which gave mu: on ints or as an array.
    if _on_ints(X.n_edges, z, coboundary_space(X, 1)):
        columns, weight = _int_coset_table(X.n_edges, z)
    else:
        columns, weight = _coset_table(X.n_edges, z)
    holds = []
    for star, sizes in zip(X.vertex_edges, local_views(X)[0]):
        syndromes = _xors([columns[e] for e in star])
        holds.append([weight[s] == min(size, k0 - size) for s, size in zip(syndromes, sizes)])
    return met, holds


def local_view_bound_judgement(
    X: Complex2, epsilon: Fraction, *, mu: Fraction, slack: float = 1e-9, tol: float = 1e-9
):
    """Whether the size preconditions hold, eta from lambda2, and per vertex v whether
    each view L of star(v) has |coboundary(L)| reaching, within slack,
    eps*k1*(1 - eta)*k0 if L is semi-fat (k0/2 < |L| <= eta*k0) and eps*k1*|L|
    if non-fat; a fat view always holds."""
    k0, k1, lambda2, met = _size_preconditions(X, "local-view bounds require", mu, tol)
    eta = fatness_constant(lambda2)
    eps = float(epsilon)
    semi_fat = eps * k1 * (1.0 - eta) * k0
    holds = [
        [
            size > eta * k0 or cut >= (semi_fat if 2 * size > k0 else eps * k1 * size) - slack
            for size, cut in zip(sizes, cuts)
        ]
        for sizes, cuts in zip(*local_views(X))
    ]
    return met, eta, holds


class LargeCutsResult(Record):
    min_cut: int
    witness: tuple[int, ...]
    k: int
    lambda2: float
    precondition_met: bool
    passes: bool


def large_cuts_audit(G0: Graph, *, tol: float = 1e-9) -> LargeCutsResult:
    """Exact minimum cut over proper nonempty vertex subsets, compared to k."""
    k = G0.regular_k
    if k is None or k == 0:
        raise RegularityError("minimum-cut bound needs a regular graph of positive degree")
    check_table_bits(G0.n)  # refused before the lambda2 gate
    lambda2 = gap_lambda2(G0, "minimum-cut bound requires", tol)
    min_cut, _, side = least_cut(G0, False)
    return LargeCutsResult(
        min_cut=min_cut,
        witness=lex_first([side]),
        k=k,
        lambda2=lambda2,
        precondition_met=_enough_vertices(G0.n, lambda2),
        passes=min_cut >= k,
    )


def sum_bound_judgement(X: Complex2, epsilon: Fraction, *, tol: float = 1e-9) -> float:
    """The scale (eps*k1/4) * bracket(lambda2) of the bound sum_v |coboundary(F_v)| >=
    scale * |F|, stated for |F| <= |E|/2."""
    _, k1 = _required_regular(X)
    lambda2 = gap_lambda2(underlying_graph(X), "sum-of-coboundaries bound requires", tol)
    return float(epsilon) * k1 / 4.0 * _bracket(lambda2)


def mixing_rate_bound(epsilon, lambda2: float) -> float:
    """Closed-form rate 1 - (epsilon**2 / 128) * bracket(lambda2)**2.

    Strictly below 1 for epsilon > 0 and lambda2 < 1/2, and above 0 for
    epsilon <= 1.
    """
    eps = float(epsilon)
    if eps < 0:
        raise DomainError(f"expansion constant must be non-negative, got {eps}")
    if lambda2 >= 0.5:
        raise DomainError(f"mixing rate requires lambda2 < 1/2, got {lambda2}")
    return 1.0 - eps * eps / 128.0 * _bracket(lambda2) ** 2
