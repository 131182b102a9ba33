"""Normalized adjacency spectra, exact Cheeger constants, and spectral audits.

Eigenvalues of a k-regular graph are reported normalized by k, sorted
descending.  Cheeger constants are exact rationals from exhaustive subset
enumeration.  The audits check, with explicit slack, the inequalities
relating cuts, eigenvalues, and the edge-graph spectral floor of -17/18.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import chain

from ._lazy import np
from ._record import Record
from .cochain import mask_bits
from .complexes import Complex2, degree_profile
from .errors import CapacityError, DomainError, ParameterError, RegularityError, ToleranceError
from .graphs import Graph, edge_graph

#: Largest subset table (2**bits entries) the enumeration kernels build.
TABLE_BIT_LIMIT = 26
#: Most vertices of a graph whose dense n x n matrices are built.
DENSE_VERTEX_LIMIT = 2**11
#: Normalized floor for the smallest edge-graph eigenvalue.
EDGE_GRAPH_FLOOR = Fraction(-17, 18)


class SpectralReport(Record):
    """Normalized spectrum of a regular graph, sorted descending."""

    normalized_eigenvalues: tuple[float, ...]
    lambda2: float
    lambda_n: float
    lambda_max_nontrivial: float
    tolerance: float


def _require_regular(G: Graph) -> int:
    k = G.regular_k
    if k is None:
        raise RegularityError("graph is not regular; normalized spectrum undefined")
    if k == 0:
        raise RegularityError("0-regular graph; normalization by degree undefined")
    return k


def adjacency_matrix(G: Graph) -> np.ndarray:
    """Dense 0/1 adjacency matrix; refused above DENSE_VERTEX_LIMIT vertices before allocating."""
    if G.n > DENSE_VERTEX_LIMIT:
        raise CapacityError(
            f"dense matrices are limited to {DENSE_VERTEX_LIMIT} vertices, got {G.n}"
        )
    A = np.zeros((G.n, G.n))
    rows = np.repeat(np.arange(G.n), G.degrees)
    A[rows, np.fromiter(chain.from_iterable(G.adjacency), np.intp, rows.size)] = 1.0
    return A


def check_tolerance(tol: float) -> None:
    """Refuse an eigensolver tolerance that is not a finite number >= 0.

    ``residual > tol`` is never true for a NaN or infinite ``tol``, which
    would turn the residual guard off, and always true for a negative one.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ParameterError(f"tolerance must be finite and non-negative, got {tol!r}")


@lru_cache(maxsize=256)
def normalized_spectrum(G: Graph, tol: float = 1e-9) -> SpectralReport:
    """All eigenvalues of A/k via a dense symmetric eigensolver.

    A normalized residual above ``tol`` raises ToleranceError.
    """
    check_tolerance(tol)
    if G.n < 1:
        raise ParameterError("spectrum of the empty graph is undefined")
    k = _require_regular(G)
    A = adjacency_matrix(G)
    eigvals, eigvecs = np.linalg.eigh(A)
    residual = float(np.abs(A @ eigvecs - eigvecs * eigvals).max()) / k
    if residual > tol:
        raise ToleranceError(f"eigensolver residual {residual:.3e} exceeds tolerance {tol:.3e}")
    normalized = tuple(float(v) / k for v in eigvals[::-1])
    lambda2 = normalized[1] if G.n > 1 else normalized[0]
    lambda_n = normalized[-1]
    return SpectralReport(
        normalized_eigenvalues=normalized,
        lambda2=lambda2,
        lambda_n=lambda_n,
        lambda_max_nontrivial=max(abs(lambda2), abs(lambda_n)),
        tolerance=residual,
    )


def lambda2_below_half(G: Graph, report: SpectralReport) -> bool:
    """Whether the normalized lambda2 of a regular graph is below 1/2, decided exactly.

    ``report`` is G's normalized spectrum.  Its float lambda2 decides when it
    lies farther from 1/2 than n times the eigensolver's normalized residual
    (at least 1e-9), which bounds its error.  Inside that band, lambda2 < 1/2
    exactly when A has one eigenvalue at or above k/2.  Those are the roots
    y >= 0 of det(yI - (2A - kI)), an integer polynomial with only real
    roots: Descartes' rule of signs counts its positive roots exactly, and
    its trailing zero coefficients count the root at 0.
    """
    if abs(report.lambda2 - 0.5) > max(G.n * report.tolerance, 1e-9):
        return report.lambda2 < 0.5
    k = G.regular_k
    # Horner's rule for 2**n * p((y + k) / 2), p = det(xI - A), highest power first.
    q: list[int] = []
    for j, c in enumerate(characteristic_polynomial(G)):
        q = [a + k * b for a, b in zip(q + [0], [0] + q)]
        q[-1] += c * 2**j
    at_zero = next(j for j, a in enumerate(reversed(q)) if a)
    signs = [a > 0 for a in q if a]
    positive = sum(a != b for a, b in zip(signs, signs[1:]))
    return at_zero + positive == 1


def check_table_bits(bits: int) -> None:
    """Refuse a subset table of 2**bits entries above the limit, before allocating it."""
    if bits > TABLE_BIT_LIMIT:
        raise CapacityError(
            f"subset tables are limited to 2**{TABLE_BIT_LIMIT} entries; got 2**{bits}"
        )


def _doubled(combine, weights: list[int], dtype) -> np.ndarray:
    """combine() of weights[j] over the set bits j of every mask below 2**len(weights).

    Built by doubling: the masks with top bit j take the values of the masks
    below 2**j, combined with weights[j].
    """
    check_table_bits(len(weights))
    out = np.zeros(1 << len(weights), dtype)
    for j, w in enumerate(weights):
        combine(out[: 1 << j], w, out=out[1 << j : 2 << j])
    return out


def subset_sums(weights: list[int], dtype) -> np.ndarray:
    """Sum of weights[j] over the set bits j of every mask below 2**len(weights)."""
    return _doubled(np.add, weights, dtype)


def subset_xors(columns: list[int], dtype) -> np.ndarray:
    """XOR of columns[j] over the set bits j of every mask below 2**len(columns)."""
    return _doubled(np.bitwise_xor, columns, dtype)


def cut_sizes(G: Graph) -> np.ndarray:
    """Cut size |E(S, V - S)| of every vertex subset S, indexed by its bit mask.

    Built by doubling: cut(S + j) = cut(S) + deg(j) - 2|N(j) & S| for S below
    2**j.  Each vertex uses its own degree, so irregular graphs work too.
    """
    check_table_bits(G.n)
    cut = np.zeros(1 << G.n, np.int16)
    for j, nbrs in enumerate(G.neighbor_masks):
        top = cut[1 << j : 2 << j]
        np.add(cut[: 1 << j], G.degrees[j], out=top)
        top -= 2 * subset_sums([nbrs >> i & 1 for i in range(j)], np.uint8)
    return cut


def lex_first(masks: np.ndarray) -> tuple[int, ...]:
    """The least of distinct masks, compared as sorted vertex tuples."""
    rest = masks
    while len(masks) > 1:
        low = rest & -rest  # each mask's next vertex; 0 marks a prefix of all the others
        keep = low == low.min()
        masks, rest = masks[keep], rest[keep] ^ low[keep]
    return tuple(mask_bits(int(masks[0])))


class CheegerResult(Record):
    h_normalized: Fraction
    witness: tuple[int, ...]


def cheeger_exhaustive(G: Graph) -> CheegerResult:
    """Exact normalized Cheeger constant by enumerating every vertex subset.

    Ties are broken by the lexicographically smallest witness (as a sorted
    vertex tuple).
    """
    k = _require_regular(G)
    if G.n < 2:
        raise DomainError("Cheeger constant needs at least 2 vertices")
    n = G.n
    cut = cut_sizes(G)
    size = subset_sums([1] * n, np.uint8)
    # Each cut once, from its smaller side; of two equal sides, the one with vertex 0.
    side = 2 * size < n
    side[1::2] |= 2 * size[1::2] == n
    least = {m: int(cut[side & (size == m)].min()) for m in range(1, n // 2 + 1)}
    best = min(Fraction(c, k * m) for m, c in least.items())
    ties = np.zeros_like(side)
    for m, c in least.items():
        if Fraction(c, k * m) == best:
            ties |= side & (size == m) & (cut == c)
    return CheegerResult(best, lex_first(np.flatnonzero(ties)))


class MixingLemmaAudit(Record):
    residual: float
    witness: tuple[int, ...]
    lambda2: float
    passes: bool


def mixing_lemma_audit(G: Graph, *, slack: float = 1e-6) -> MixingLemmaAudit:
    """Worst residual of the one-sided expander mixing bound over all subsets.

    Audits 2|E(S)| <= k|S|(|S|/n + lambda2*(1 - |S|/n)), the exact Rayleigh
    form, which holds for every regular graph with the signed lambda2 (with
    equality on complete graphs).  Dropping the (1 - |S|/n) factor is only
    sound when lambda2 >= 0, and this bound implies that simpler one there.
    """
    k = _require_regular(G)
    check_table_bits(G.n)  # before the eigensolver runs
    lambda2 = normalized_spectrum(G).lambda2
    n = G.n
    cut = cut_sizes(G)
    size = subset_sums([1] * n, np.uint8)
    # 2|E(S)| = k|S| - cut(S): at each size the least cut gives the worst residual.
    least = [int(cut[size == s].min()) for s in range(n + 1)]
    residuals = [
        (k * s - c) - k * s * (s / n + lambda2 * (1.0 - s / n)) for s, c in enumerate(least)
    ]
    worst = max(residuals)
    first = min(
        int(np.argmax((size == s) & (cut == c)))
        for s, (c, r) in enumerate(zip(least, residuals))
        if r == worst
    )
    return MixingLemmaAudit(worst, tuple(mask_bits(first)), lambda2, worst <= slack)


class CheegerInequalityAudit(Record):
    slack: float
    h_normalized: Fraction
    lambda2: float
    passes: bool


def cheeger_inequality_audit(G: Graph, *, slack: float = 1e-9) -> CheegerInequalityAudit:
    """Slack of lambda2 <= 1 - h^2/2 (nonnegative when the inequality holds)."""
    h = cheeger_exhaustive(G).h_normalized
    lambda2 = normalized_spectrum(G).lambda2
    value = (1.0 - float(h) ** 2 / 2.0) - lambda2
    return CheegerInequalityAudit(value, h, lambda2, value >= -slack)


class EdgeGraphFloorAudit(Record):
    lambda_n: float
    slack: float
    passes: bool


def edge_graph_floor_audit(X: Complex2, *, slack: float = 1e-9) -> EdgeGraphFloorAudit:
    """Slack of lambda_n(edge-graph) >= -17/18 for an edge-regular complex."""
    profile = degree_profile(X)
    if not profile.edge_triangle_degrees or len(set(profile.edge_triangle_degrees)) != 1:
        raise RegularityError("complex is not edge-regular; edge-graph floor undefined")
    report = normalized_spectrum(edge_graph(X))
    value = report.lambda_n - float(EDGE_GRAPH_FLOOR)
    return EdgeGraphFloorAudit(report.lambda_n, value, value >= -slack)


def characteristic_polynomial(G: Graph) -> tuple[int, ...]:
    """Exact integer coefficients of det(xI - A), highest power first.

    Faddeev-LeVerrier in integers (each coefficient is an integer, so its
    division by k is exact); independent of the floating eigensolver, so it
    can cross-check reported spectra.
    """
    n = G.n
    coeffs = [1]
    M = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        # M <- A @ (M + c_{k-1} I)
        for i in range(n):
            M[i][i] += coeffs[-1]
        M = [[sum(M[t][j] for t in G.adjacency[i]) for j in range(n)] for i in range(n)]
        trace = sum(M[i][i] for i in range(n))
        if trace % k:
            raise AssertionError("characteristic polynomial must have integer coefficients")
        coeffs.append(-trace // k)
    return tuple(coeffs)
