"""Normalized adjacency spectra, exact Cheeger constants, and subset tables.

Eigenvalues of a k-regular graph are reported normalized by k, sorted
descending; whether lambda2 < 1/2 is decided exactly, near 1/2 by Sylvester's
criterion in integers.  Cheeger constants are exact rationals from exhaustive
subset enumeration; the same tables of cut sizes serve the minimum-cut audit.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain
from typing import TYPE_CHECKING, Sequence

from ._lazy import np
from ._record import Record
from .errors import CapacityError, DomainError, ParameterError, RegularityError, ToleranceError
from .graphs import Graph

if TYPE_CHECKING:
    from fractions import Fraction

#: Largest subset table (2**bits entries) the enumeration kernels build.
TABLE_BIT_LIMIT = 26
#: Most vertices of a graph whose dense n x n matrices are built.
DENSE_VERTEX_LIMIT = 2**11
#: Most multiplications, bounded by n**3, of the exact lambda2 decision's elimination.
ELIMINATION_WORK_LIMIT = 2**22


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


@lru_cache(maxsize=8)
def _eigensystem(G: Graph) -> tuple:
    k = _require_regular(G)
    A = adjacency_matrix(G)
    eigvals, eigvecs = np.linalg.eigh(A)
    R = A @ eigvecs
    R -= eigvecs * eigvals
    values = eigvals / k
    values.flags.writeable = eigvecs.flags.writeable = False
    return values, eigvecs, float(np.abs(R, out=R).max()) / k


def eigensystem(G: Graph, tol: float = 1e-9) -> tuple:
    """(values, vectors, residual) of A/k by a dense symmetric eigensolver, run once per graph.

    The values ascend, column i of ``vectors`` is a unit eigenvector for
    values[i], and both arrays are read-only.  A normalized residual
    max |A V - V diag(eigenvalues of A)| / k above ``tol`` raises ToleranceError.
    """
    check_tolerance(tol)
    if G.n < 1:
        raise ParameterError("spectrum of the empty graph is undefined")
    values, vectors, residual = _eigensystem(G)
    if residual > tol:
        raise ToleranceError(f"eigensolver residual {residual:.3e} exceeds tolerance {tol:.3e}")
    return values, vectors, residual


@lru_cache(maxsize=256)
def normalized_spectrum(G: Graph, tol: float = 1e-9) -> SpectralReport:
    """All eigenvalues of A/k, descending, from ``eigensystem(G, tol)``."""
    values, _, residual = eigensystem(G, tol)
    normalized = tuple(values[::-1].tolist())
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
    exactly when B = kI - 2A + kJ is positive definite: B has eigenvalue
    k(n - 1) on the all-ones vector and k - 2*mu for each other eigenvalue mu
    of A.  Testing that takes fewer than n**3 multiplications; above
    ELIMINATION_WORK_LIMIT CapacityError is raised before the first.
    """
    if abs(report.lambda2 - 0.5) > max(G.n * report.tolerance, 1e-9):
        return report.lambda2 < 0.5
    if G.n**3 > ELIMINATION_WORK_LIMIT:
        raise CapacityError(
            f"lambda2 lies within the eigensolver's error of 1/2, and deciding it exactly "
            f"takes up to {G.n}**3 multiplications; limit is {ELIMINATION_WORK_LIMIT}"
        )
    k = G.regular_k
    # Row v of B from its diagonal on: 2k, then k - 2 at a neighbor and k elsewhere.
    return _positive_definite([
        [2 * k] + [k - 2 * (nbrs >> w & 1) for w in range(v + 1, G.n)]
        for v, nbrs in enumerate(G.neighbor_masks)
    ])


def _positive_definite(rows: list[list[int]]) -> bool:
    """Whether a symmetric integer matrix, given as row i from column i on, is positive definite.

    Sylvester's criterion: the pivots of fraction-free (Bareiss) elimination
    without pivoting, each divided exactly by the previous one, are the
    leading principal minors.
    """
    prev = 1
    while rows:
        top = rows[0]
        pivot = top[0]
        if pivot <= 0:
            return False
        rows = [
            [(x * pivot - a * y) // prev for x, y in zip(row, top[t:])]
            for t, (row, a) in enumerate(zip(rows[1:], top[1:]), 1)
        ]
        prev = pivot
    return True


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


def cut_sizes(neighbor_masks: Sequence[int]) -> np.ndarray:
    """Cut size |E(S, V - S)| of every vertex subset S of the graph with these
    neighbor masks (``Graph.neighbor_masks``), indexed by S's bit mask.

    Built by doubling: cut(S + j) = cut(S) + deg(j) - 2|N(j) & S| for S below
    2**j.  Each vertex uses its own degree, so irregular graphs work too.
    """
    check_table_bits(len(neighbor_masks))
    cut = np.zeros(1 << len(neighbor_masks), np.int16)
    for j, nbrs in enumerate(neighbor_masks):
        top = cut[1 << j : 2 << j]
        np.add(cut[: 1 << j], nbrs.bit_count(), out=top)
        top -= 2 * subset_sums([nbrs >> i & 1 for i in range(j)], np.uint8)
    return cut


def lex_first(masks: np.ndarray) -> tuple[int, ...]:
    """The least of distinct masks, compared as sorted vertex tuples."""
    rest = masks
    while len(masks) > 1:
        low = rest & -rest  # each mask's next vertex; 0 marks a prefix of all the others
        keep = low == low.min()
        masks, rest = masks[keep], rest[keep] ^ low[keep]
    first = int(masks[0])
    return tuple(v for v in range(first.bit_length()) if first >> v & 1)


class CheegerResult(Record):
    h_normalized: Fraction
    witness: tuple[int, ...]


def least_ratio(
    num: np.ndarray, denom: np.ndarray, live: np.ndarray, k: int
) -> tuple[Fraction, np.ndarray]:
    """Least num / (k * denom) over the live entries, as an exact fraction, and
    the live entries attaining it.

    Per denominator d >= 1 only the least numerator can attain it, so at most
    one exact fraction per d is compared; entries with denominator 0 are skipped.
    """
    from fractions import Fraction  # its users here: walk and spectrum skip it and decimal

    least = {}
    for d in range(1, int(denom.max()) + 1):
        nums = num[live & (denom == d)]
        if nums.size:
            least[d] = int(nums.min())
    best = min(Fraction(c, k * d) for d, c in least.items())
    ties = np.zeros_like(live)
    for d, c in least.items():
        if Fraction(c, k * d) == best:
            ties |= live & (denom == d) & (num == c)
    return best, ties


def cheeger_exhaustive(G: Graph) -> CheegerResult:
    """Exact normalized Cheeger constant by enumerating every vertex subset.

    Ties are broken by the lexicographically smallest witness (as a sorted
    vertex tuple).
    """
    k = _require_regular(G)
    if G.n < 2:
        raise DomainError("Cheeger constant needs at least 2 vertices")
    n = G.n
    size = subset_sums([1] * n, np.uint8)
    # Each cut once, from its smaller nonempty side; of two equal sides, the one with vertex 0.
    side = 2 * size < n
    side[1::2] |= 2 * size[1::2] == n
    side[0] = False
    best, ties = least_ratio(cut_sizes(G.neighbor_masks), size, side, k)
    return CheegerResult(best, lex_first(np.flatnonzero(ties)))
