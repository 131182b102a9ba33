"""Exact expansion certificates and numerical audits of the mixing machinery.

``certify_exact`` computes exactly, per face dimension i, the minimum of
|coboundary(S)| / (k_i * dist(S, Z^i)) over all non-cocycle subsets S (the
cosystolic constant; the coboundary constant takes distances to B^i instead),
together with the smallest relative size mu of a nontrivial cocycle.  Each
quantity depends only on the coset of S, so it is read off tables of coset
leaders indexed by syndrome: one table per distinct code, all of them sized
before any is built.  The least witnesses come from the same tables:
a greedy pass over the faces for the two ratios, and a scan of the cocycles
for mu.

The audits check, on concrete inputs, the chain of facts behind the mixing
bound: the outgoing-edges identity between edge-graph cuts and local-view
coboundaries, the local-view distance formula, the per-vertex coboundary
lower bounds for semi-fat and non-fat vertices, the minimum-cut lower bound,
the sum-of-coboundaries lower bound, and the closed-form mixing rate.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional

from . import gf2
from ._lazy import np
from ._record import Record
from .cochain import (
    Chain,
    chain_to_mask,
    coboundary_edges,
    coboundary_space,
    cocycle_space,
    distance_to_space,
    local_view,
    mask_bits,
    mask_to_chain,
)
from .complexes import Complex2, degree_profile
from .errors import (
    CapacityError,
    DegenerateComplexError,
    DomainError,
    ParameterError,
    RegularityError,
)
from .graphs import Graph, edge_graph, underlying_graph
from .spectral import (
    check_table_bits,
    cut_sizes,
    lambda2_below_half,
    lex_first,
    normalized_spectrum,
    subset_sums,
    subset_xors,
)

#: Default certification bound: faces per dimension.
CERTIFY_BIT_LIMIT = 24
#: Coset-leader weight of a syndrome not reached yet.
_UNREACHED = 255


class DimensionReport(Record):
    """Exact expansion data for one face dimension."""

    dimension: int
    epsilon_cosystolic: Fraction
    cosystolic_witness: Chain
    epsilon_coboundary: Fraction
    coboundary_witness: Chain
    mu: Optional[Fraction]
    mu_witness: Optional[Chain]


class ExpansionCertificate(Record):
    """Brute-forced expansion constants with minimizing witnesses."""

    epsilon_cosystolic: Fraction
    epsilon_coboundary: Fraction
    mu: Fraction
    mu_vacuous: bool
    connected: bool
    dimensions: tuple[DimensionReport, DimensionReport]


def _required_regular(X: Complex2) -> tuple[int, int]:
    regular = degree_profile(X).regular
    if regular is None:
        raise RegularityError("complex is not (k0, k1)-regular")
    return regular


def gap_lambda2(G: Graph, claim: str, tol: float = 1e-9) -> float:
    """lambda2 of G; DomainError("<claim> lambda2 < 1/2; ...") unless decided below exactly.

    ``tol`` bounds the eigensolver's residual, as in ``normalized_spectrum``.
    """
    report = normalized_spectrum(G, tol)
    if not lambda2_below_half(G, report):
        raise DomainError(
            f"{claim} lambda2 < 1/2; it is at least 1/2, decided exactly "
            f"(eigensolver value {report.lambda2})"
        )
    return report.lambda2


def _coset_leaders(
    columns: list[int], bits: int, gens: tuple[int, ...], width: int
) -> tuple[np.ndarray, np.ndarray]:
    """Least weight and coboundary size of every coset, indexed by syndrome.

    ``columns`` are the faces' syndrome columns of ``bits`` bits, ``gens``
    their coboundary masks of ``width`` bits.  Breadth first from syndrome 0:
    a coset first reached at step d has least weight d, and the subset that
    reaches it has its parent's coboundary XOR one face's.  The coboundary
    is the same across a coset, since the code lies in the cocycles.
    """
    check_table_bits(bits)
    chunks = -(-width // 64)
    faces = np.array(
        [[g >> (64 * c) & (2**64 - 1) for c in range(chunks)] for g in gens], np.uint64
    ).reshape(len(gens), chunks)
    weight = np.full(1 << bits, _UNREACHED, np.uint8)
    size = np.zeros(1 << bits, np.min_scalar_type(width))
    weight[0] = 0
    frontier, deltas = np.zeros(1, np.int64), np.zeros((1, chunks), np.uint64)
    step = 0
    while len(frontier):
        step += 1
        reached, reached_deltas = [], []
        for column, face in zip(columns, faces):
            found = frontier ^ column
            new = weight[found] == _UNREACHED
            found, delta = found[new], deltas[new] ^ face
            weight[found] = step
            size[found] = np.bitwise_count(delta).sum(axis=1)
            reached.append(found)
            reached_deltas.append(delta)
        frontier, deltas = np.concatenate(reached), np.concatenate(reached_deltas)
    return weight, size


def _least_ratio(weight: np.ndarray, size: np.ndarray, k: int) -> tuple[Fraction, np.ndarray]:
    """Least size / (k * weight) over the cosets off the cocycles, and the cosets attaining it.

    For each weight only the least size can attain it, so at most one exact
    fraction per weight is compared.  Weight 0 is the code itself, whose
    coboundary is empty.
    """
    live = size > 0
    least = {}
    for d in range(1, int(weight.max()) + 1):
        sizes = size[live & (weight == d)]
        if sizes.size:
            least[d] = int(sizes.min())
    best = min(Fraction(c, k * d) for d, c in least.items())
    ties = np.zeros_like(live)
    for d, c in least.items():
        if Fraction(c, k * d) == best:
            ties |= (weight == d) & (size == c)
    return best, ties


def _lex_least(columns: list[int], flags: np.ndarray) -> tuple[int, ...]:
    """The lexicographically least subset of range(len(columns)) whose syndrome is flagged.

    Greedy, one index at a time: stop once the syndrome of the subset chosen
    so far is flagged; otherwise take index j exactly when some flagged
    syndrome lies in syndrome ^ columns[j] ^ span(columns[j + 1:]).  Two
    syndromes differ by a member of that span exactly when they reduce alike
    against its reduced basis, so one pass over the flagged syndromes tests
    them all.  Some flagged syndrome must be reachable from the start.
    """
    flagged = np.flatnonzero(flags)
    chosen, syndrome = [], 0
    for j, column in enumerate(columns):
        if flags[syndrome]:
            break
        offsets = flagged ^ (syndrome ^ column)
        for row in gf2.row_reduce(columns[j + 1 :]):
            offsets ^= (offsets >> gf2.low_bit(row) & 1) * row
        if not offsets.all():
            chosen.append(j)
            syndrome ^= column
    return tuple(chosen)


def _codes(X: Complex2, i: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Bases of Z^i and B^i, once every table certifying dimension i is known to fit.

    The Z coset table has 2**(faces - dim Z) entries.  Only when B is smaller
    than Z are the B coset table, 2**(faces - dim B), and the cocycle table,
    2**dim Z, needed.
    """
    z, b = cocycle_space(X, i), coboundary_space(X, i)
    if z.dim == z.ambient:
        raise DegenerateComplexError(
            f"every subset at dimension {i} is a cocycle; expansion ratio undefined"
        )
    check_table_bits(z.ambient - z.dim)
    if b.dim < z.dim:
        check_table_bits(z.ambient - b.dim)
        check_table_bits(z.dim)
    return z.basis_masks, b.basis_masks


def _certify_dimension(
    X: Complex2, i: int, k_i: int, z_basis: tuple[int, ...], b_basis: tuple[int, ...]
) -> DimensionReport:
    """One dimension's report from the bases ``_codes`` returned."""
    count, width = (X.n_vertices, X.n_edges, X.n_triangles)[i : i + 2]
    gens = (X.vertex_edge_masks, X.edge_triangle_masks)[i]

    def coset_table(basis):
        # Distances, and |coboundary(S)|, depend only on the coset of S.
        columns = gf2.syndrome_columns(basis, count)
        weight, size = _coset_leaders(columns, count - len(basis), gens, width)
        eps, ties = _least_ratio(weight, size, k_i)
        return eps, Chain.of(i, _lex_least(columns, ties)), columns, weight, size

    eps_z, z_witness, *_ = coset_table(z_basis)
    if len(b_basis) == len(z_basis):
        # B = Z: one code, so one table, and no cocycle outside B.
        return DimensionReport(i, eps_z, z_witness, eps_z, z_witness, None, None)
    eps_b, b_witness, b_columns, b_weight, b_size = coset_table(b_basis)
    # Cocycles outside B: the nonzero cosets of B with an empty coboundary.
    mu_size = int(b_weight[1:][b_size[1:] == 0].min())
    # The least weight is not found greedily: scan every cocycle, with its
    # B-syndrome by the same doubling from the basis vectors' own.
    cocycles = subset_xors(z_basis, np.min_scalar_type((1 << count) - 1))
    columns = np.array(b_columns, np.int64)
    b_syndromes = subset_xors(
        [int(np.bitwise_xor.reduce(columns[mask_bits(z)])) for z in z_basis],
        np.min_scalar_type(len(b_weight) - 1),
    )
    fits = (np.bitwise_count(cocycles) == mu_size) & (b_syndromes != 0)
    mu_witness = Chain.of(i, lex_first(cocycles[fits]))
    return DimensionReport(
        i, eps_z, z_witness, eps_b, b_witness, Fraction(mu_size, count), mu_witness
    )


@lru_cache(maxsize=32)
def certify_exact(X: Complex2, *, max_bits: int = CERTIFY_BIT_LIMIT) -> ExpansionCertificate:
    """Exact expansion certificate at both dimensions, with the least witnesses."""
    k0, k1 = _required_regular(X)
    if X.n_vertices > max_bits or X.n_edges > max_bits:
        raise CapacityError(
            f"certification is limited to {max_bits} faces per dimension; "
            f"got {X.n_vertices} vertices, {X.n_edges} edges"
        )
    codes = [_codes(X, i) for i in (0, 1)]  # every table is sized before any is built
    reports = tuple(_certify_dimension(X, i, k, *codes[i]) for i, k in enumerate((k0, k1)))
    mus = [r.mu for r in reports if r.mu is not None]
    vacuous = not mus
    return ExpansionCertificate(
        epsilon_cosystolic=min(r.epsilon_cosystolic for r in reports),
        epsilon_coboundary=min(r.epsilon_coboundary for r in reports),
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


class FatnessPartition(Record):
    """Vertices split by local-view size: > eta*k0 / (k0/2, eta*k0] / <= k0/2."""

    eta: float
    fat: tuple[int, ...]
    semi_fat: tuple[int, ...]
    non_fat: tuple[int, ...]


def fatness_partition(X: Complex2, F: Chain, eta: float) -> FatnessPartition:
    k0, _ = _required_regular(X)
    if not (0.5 < eta < 1.0):
        raise DomainError(f"fatness constant must lie in (1/2, 1), got {eta}")
    if F.dimension != 1:
        raise ParameterError("fatness partition takes a 1-chain of edges")
    fmask = chain_to_mask(F)
    fat, semi, non = [], [], []
    for v in range(X.n_vertices):
        size = (X.vertex_edge_masks[v] & fmask).bit_count()
        if size > eta * k0:
            fat.append(v)
        elif 2 * size > k0:
            semi.append(v)
        else:
            non.append(v)
    return FatnessPartition(eta, tuple(fat), tuple(semi), tuple(non))


def sum_local_coboundaries(X: Complex2, F: Chain) -> int:
    """Sum over vertices of |coboundary(local view of F at v)|."""
    fmask = chain_to_mask(F)
    total = 0
    for star in X.vertex_edge_masks:
        fv = star & fmask
        d = 0
        while fv:
            d ^= X.edge_triangle_masks[gf2.low_bit(fv)]
            fv &= fv - 1
        total += d.bit_count()
    return total


class OutgoingEdgesIdentity(Record):
    """Cut size in the edge-graph vs. the local-view coboundary sum."""

    lhs: int
    rhs: int

    @property
    def holds(self) -> bool:
        return self.lhs == self.rhs


def outgoing_edges_identity(X: Complex2, F: Chain) -> OutgoingEdgesIdentity:
    if F.dimension != 1:
        raise ParameterError("outgoing-edges identity takes a 1-chain of edges")
    g1 = edge_graph(X)
    fmask = chain_to_mask(F)
    outside = ((1 << g1.n) - 1) & ~fmask
    lhs = 0
    m = fmask
    while m:
        a = gf2.low_bit(m)
        lhs += (g1.neighbor_masks[a] & outside).bit_count()
        m &= m - 1
    return OutgoingEdgesIdentity(lhs, sum_local_coboundaries(X, F))


class SizePreconditions(Record):
    """Minimum-size hypotheses under which the asymptotic statements are asserted."""

    spectral_bound: float  # |V| >= 4 / (1 - 2*lambda2)
    cosystolic_bound: float  # |V| >= 3 / mu
    spectral_ok: bool
    cosystolic_ok: bool

    @property
    def met(self) -> bool:
        return self.spectral_ok and self.cosystolic_ok


def _size_preconditions(n: int, lambda2: float, mu: Fraction) -> SizePreconditions:
    spectral_bound = 4.0 / (1.0 - 2.0 * lambda2)
    cosystolic_bound = 3.0 / float(mu)
    return SizePreconditions(
        spectral_bound=spectral_bound,
        cosystolic_bound=cosystolic_bound,
        spectral_ok=n >= spectral_bound - 1e-12,
        cosystolic_ok=Fraction(n) * mu >= 3,
    )


class VertexDistanceEntry(Record):
    vertex: int
    local_view_size: int
    distance: int
    formula_value: int

    @property
    def equal(self) -> bool:
        return self.distance == self.formula_value


class DistanceFormulaReport(Record):
    """Per-vertex comparison of dist(F_v, Z^1) against min(|F_v|, k0 - |F_v|)."""

    applicable: bool
    note: Optional[str]
    preconditions: SizePreconditions
    entries: tuple[VertexDistanceEntry, ...]

    @property
    def all_equal(self) -> bool:
        return all(e.equal for e in self.entries)

    @property
    def passes(self) -> Optional[bool]:
        if not self.applicable or not self.preconditions.met:
            return None
        return self.all_equal


def distance_formula_audit(
    X: Complex2,
    F: Chain,
    *,
    mu: Optional[Fraction] = None,
    tol: float = 1e-9,
) -> DistanceFormulaReport:
    k0, _ = _required_regular(X)
    lambda2 = gap_lambda2(underlying_graph(X), "distance formula requires", tol)
    if F.dimension != 1:
        raise ParameterError("distance formula audit takes a 1-chain of edges")
    if mu is None:
        mu = certify_exact(X).mu
    preconditions = _size_preconditions(X.n_vertices, lambda2, mu)
    note = None
    applicable = 0 < len(F) < X.n_edges
    if not applicable:
        note = "stated for proper nonempty edge subsets; report is informational"
    z1 = cocycle_space(X, 1)
    entries = []
    for v in range(X.n_vertices):
        fv = local_view(X, F, v)
        dist, _ = distance_to_space(fv, z1)
        entries.append(
            VertexDistanceEntry(v, len(fv), dist, min(len(fv), k0 - len(fv)))
        )
    return DistanceFormulaReport(applicable, note, preconditions, tuple(entries))


class LocalViewBoundEntry(Record):
    vertex: int
    category: str  # "semi_fat" or "non_fat"
    coboundary_size: int
    bound: float
    ok: bool


class LocalViewBoundsReport(Record):
    """Coboundary lower bounds for semi-fat and non-fat local views."""

    preconditions: SizePreconditions
    eta: float
    entries: tuple[LocalViewBoundEntry, ...]

    @property
    def all_ok(self) -> bool:
        return all(e.ok for e in self.entries)

    @property
    def passes(self) -> Optional[bool]:
        if not self.preconditions.met:
            return None
        return self.all_ok


def local_view_bounds_audit(
    X: Complex2,
    F: Chain,
    epsilon: Fraction,
    eta: float,
    *,
    mu: Optional[Fraction] = None,
    slack: float = 1e-9,
    tol: float = 1e-9,
) -> LocalViewBoundsReport:
    k0, k1 = _required_regular(X)
    lambda2 = gap_lambda2(underlying_graph(X), "local-view bounds require", tol)
    if mu is None:
        mu = certify_exact(X).mu
    preconditions = _size_preconditions(X.n_vertices, lambda2, mu)
    partition = fatness_partition(X, F, eta)
    eps = float(epsilon)
    entries = []
    for v in partition.semi_fat:
        d = len(coboundary_of_local_view(X, F, v))
        bound = eps * k1 * (1.0 - eta) * k0
        entries.append(LocalViewBoundEntry(v, "semi_fat", d, bound, d >= bound - slack))
    for v in partition.non_fat:
        fv = local_view(X, F, v)
        d = len(coboundary_of_local_view(X, F, v))
        bound = eps * k1 * len(fv)
        entries.append(LocalViewBoundEntry(v, "non_fat", d, bound, d >= bound - slack))
    entries.sort(key=lambda e: e.vertex)
    return LocalViewBoundsReport(preconditions, eta, tuple(entries))


def coboundary_of_local_view(X: Complex2, F: Chain, v: int) -> Chain:
    return coboundary_edges(X, local_view(X, F, v))


def local_view_sums(X: Complex2, value: Callable[[int, Chain], int]) -> np.ndarray:
    """Sum over vertices v of value(v, local view of F at v), for every edge mask F.

    ``value(v, L)`` is called once for each vertex v and each 1-chain L
    inside the star of v, and returns a non-negative integer; every F then
    looks its local views up by index.  The result is indexed by F's mask.
    """
    check_table_bits(X.n_edges)
    stars = [mask_bits(star) for star in X.vertex_edge_masks]
    # A view's index has bit t set when it holds the t-th edge of the star.
    tables = [
        [value(v, mask_to_chain(1, int(L))) for L in subset_sums([1 << e for e in edges], int)]
        for v, edges in enumerate(stars)
    ]
    total = np.zeros(1 << X.n_edges, np.min_scalar_type(sum(map(max, tables))))
    for edges, table in zip(stars, tables):
        weights = [0] * X.n_edges
        for t, e in enumerate(edges):
            weights[e] = 1 << t
        index = subset_sums(weights, np.min_scalar_type(len(table) - 1))
        total += np.asarray(table, total.dtype)[index]
    return total


class LargeCutsResult(Record):
    min_cut: int
    witness: tuple[int, ...]
    k: int
    lambda2: float
    precondition_met: bool
    passes: bool

    @property
    def asserted(self) -> Optional[bool]:
        return self.passes if self.precondition_met else None


def large_cuts_audit(G0: Graph, *, tol: float = 1e-9) -> LargeCutsResult:
    """Exact minimum cut over proper nonempty vertex subsets, compared to k."""
    k = G0.regular_k
    if k is None or k == 0:
        raise RegularityError("minimum-cut bound needs a regular graph of positive degree")
    check_table_bits(G0.n)  # before the eigensolver runs
    if G0.n < 2:
        raise DomainError("minimum cut needs at least 2 vertices")
    lambda2 = gap_lambda2(G0, "minimum-cut bound requires", tol)
    cut = cut_sizes(G0)[1:-1:2]  # masks 1, 3, ...: proper subsets containing vertex 0
    min_cut = int(cut.min())
    precondition = G0.n >= 4.0 / (1.0 - 2.0 * lambda2) - 1e-12
    return LargeCutsResult(
        min_cut=min_cut,
        witness=lex_first(2 * np.flatnonzero(cut == min_cut) + 1),
        k=k,
        lambda2=lambda2,
        precondition_met=precondition,
        passes=min_cut >= k,
    )


class SumCoboundariesResult(Record):
    lhs: int
    rhs_bound: float
    lambda2: float
    passes: bool


def sum_coboundaries_audit(
    X: Complex2,
    F: Chain,
    epsilon: Fraction,
    *,
    slack: float = 1e-9,
    tol: float = 1e-9,
) -> SumCoboundariesResult:
    """Check sum_v |coboundary(F_v)| >= (eps*k1/4) * bracket(lambda2) * |F|."""
    _, k1 = _required_regular(X)
    lambda2 = gap_lambda2(underlying_graph(X), "sum-of-coboundaries bound requires", tol)
    if F.dimension != 1:
        raise ParameterError("sum-of-coboundaries audit takes a 1-chain of edges")
    if 2 * len(F) > X.n_edges:
        raise DomainError(
            f"bound stated for |F| <= |E|/2; got |F|={len(F)}, |E|={X.n_edges}"
        )
    lhs = sum_local_coboundaries(X, F)
    rhs = float(epsilon) * k1 / 4.0 * _bracket(lambda2) * len(F)
    return SumCoboundariesResult(lhs, rhs, lambda2, lhs >= rhs - slack)


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
