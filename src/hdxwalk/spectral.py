"""Normalized adjacency spectra, exact Cheeger constants, and subset tables.

Eigenvalues of a k-regular graph are reported normalized by k, sorted
descending; whether lambda2 < 1/2 is decided exactly, near 1/2 by Sylvester's
criterion in integers.  Cheeger constants are exact rationals from exhaustive
subset enumeration; ``cut_rows``, the one cut kernel, streams every cut a row at a time.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain
from typing import TYPE_CHECKING, Sequence

from ._lazy import np
from ._record import Record
from .errors import CapacityError, ParameterError, RegularityError, ToleranceError, check_tolerance
from .graphs import Graph

if TYPE_CHECKING:
    from fractions import Fraction

#: Largest subset table (2**bits entries) the enumeration kernels build.
TABLE_BIT_LIMIT = 26
#: Most vertices of a graph whose dense n x n matrices are built.
DENSE_VERTEX_LIMIT = 2**11
#: Most multiplications, bounded by n**3, of the exact lambda2 decision's elimination.
ELIMINATION_WORK_LIMIT = 2**22

# Index bits of one row block of a subset table: the least-ratio kernel reads
# tables a row at a time, so none of its temporaries spans more.
_BLOCK_BITS = 14

# Lanczos breakdown: a next vector of at most this norm.  Where exact arithmetic
# leaves 0, rounding leaves 7e-13 to 8e-11 on triangulated tori; the dropped
# remainder counts in the residual, so it stays below the default tolerance.
_BREAKDOWN = 1e-10


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


def _split_start(table: np.ndarray, j: int) -> tuple:
    """(r, weights): e_j - u split into r, orthogonal to the eigenvalues 1 and -1
    of M, and the exact squared weights of e_j - u on those two eigenvalues.

    On j's component C, of a regular graph, the eigenvalue 1 has eigenvector the
    indicator 1_C, and -1 the sides' signs s_C when C is bipartite (both sides
    have the same size); breadth-first levels from j give both.  The weights are
    1/|C| - 1/n and, on a bipartite C, 1/|C|.
    """
    n = len(table)
    level = np.full(n, -1)
    level[j] = 0
    frontier, d = [j], 0
    while len(frontier):
        d += 1
        reached = np.zeros(n, bool)
        reached[table[frontier]] = True
        frontier = np.flatnonzero(reached & (level < 0))
        level[frontier] = d
    component = level >= 0
    even = level % 2 == 0
    bipartite = not (even[table] == even[:, None])[component].any()
    size = int(component.sum())
    r = np.zeros(n)
    # e_j - 1_C/|C|, less s_C/|C| on a bipartite C: -2/|C| on j's side, 0 on the other.
    if bipartite:
        r[component & even] = -2 / size
    else:
        r[component] = -1 / size
    r[j] += 1
    return r, np.array([1 / size - 1 / n, bipartite / size])


def start_measure(G: Graph, j: int, steps: int, tol: float = 1e-9) -> tuple:
    """(values, coefficients, residual): a measure of e_j - u under M = A/k with
    ||M^t (e_j - u)||**2 = sum_i values[i]**(2t) * coefficients[i]**2 for t = 0..steps.

    The eigenvalues 1 and -1 come first, with the exact weights of
    ``_split_start``, so that their powers stay exact over a long walk.  The
    rest is Lanczos on M from the remainder r, with mat-vecs over the neighbor
    table and two-pass full reorthogonalisation.  It stops at breakdown or after
    m = min(n, steps + 1) vectors, and the eigenvalues of its m x m tridiagonal T,
    weighted by ||r|| times their eigenvectors' first entries, reproduce every
    moment r.M^(2t).r up to 2t = 2m - 1.  The residual is the largest entry of
    M V - V T (less the Lanczos remainder when m = steps + 1) plus that of
    V V^T - I; above ``tol`` it raises ToleranceError.  Memory is the basis,
    (m, n) at most doubled, and a few (n, k) gathers: no n x n matrix is built.
    """
    check_tolerance(tol)
    k = _require_regular(G)
    table = np.fromiter(chain.from_iterable(G.adjacency), np.intp, G.n * k).reshape(G.n, k)
    r, split = _split_start(table, j)
    norm = math.sqrt(r @ r)
    limit = min(G.n, steps + 1)
    V = np.empty((min(limit, 8), G.n))
    alpha, beta = [], []
    relation, w, b = 0.0, r, norm
    for i in range(limit):
        if b <= _BREAKDOWN:
            break
        if i == len(V):  # the basis doubles, up to the limit
            V = np.concatenate((V, np.empty((min(i, limit - i), G.n))))
        V[i] = w / b
        basis = V[: i + 1]
        Mv = basis[i][table].sum(axis=1)
        Mv /= k
        h = basis @ Mv
        w = Mv - h @ basis
        h2 = basis @ w
        w -= h2 @ basis
        alpha.append(h[i] + h2[i])
        # Column i of M V - V T is what the two passes removed beyond T, and rounding.
        Mv -= alpha[i] * basis[i] + w
        if i:
            Mv -= beta[i - 1] * basis[i - 1]
        relation = max(relation, float(np.abs(Mv).max()))
        b = math.sqrt(w @ w)
        beta.append(b)
    m = len(alpha)
    if m <= steps:  # stopped at breakdown or with n vectors: the remainder is an error
        relation = max(relation, float(np.abs(w).max()))
    gram = V[:m] @ V[:m].T
    gram.flat[:: m + 1] -= 1.0
    residual = relation + float(np.abs(gram, out=gram).max(initial=0.0))
    if residual > tol:
        raise ToleranceError(f"Lanczos residual {residual:.3e} exceeds tolerance {tol:.3e}")
    del V, gram  # freed before the eigensolver's m x m workspace
    T = np.diag(alpha)
    np.fill_diagonal(T[1:], beta[: m - 1])
    np.fill_diagonal(T[:, 1:], beta[: m - 1])
    ritz, S = np.linalg.eigh(T)
    values = np.concatenate(([1.0, -1.0], ritz))
    return values, np.concatenate((np.sqrt(split), norm * S[:1].ravel())), residual


@lru_cache(maxsize=256)
def normalized_spectrum(G: Graph, tol: float = 1e-9) -> SpectralReport:
    """All eigenvalues of A/k, descending, from ``eigensystem(G, tol)``."""
    values, _, residual = eigensystem(G, tol)
    normalized = tuple(values[::-1].tolist())
    lambda2 = normalized[1]
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


def row_bits(bits: int) -> int:
    """Index bits within one row block of a table of 2**bits entries."""
    return min(bits, _BLOCK_BITS)


def _doubled(combine, weights: list[int], out: np.ndarray) -> np.ndarray:
    """combine() of weights[j] over the set bits j of every mask below 2**len(weights),
    into ``out``, whose entry 0 holds the empty combination.

    Built by doubling: the masks with top bit j take the values of the masks
    below 2**j, combined with weights[j].
    """
    for j, w in enumerate(weights):
        combine(out[: 1 << j], w, out=out[1 << j : 2 << j])
    return out


def subset_sums(weights: list[int]) -> np.ndarray:
    """Sum of 0/1 weights[j] over the set bits j of every mask below 2**len(weights), in uint8."""
    check_table_bits(len(weights))
    return _doubled(np.add, weights, np.zeros(1 << len(weights), np.uint8))


def subset_xors(columns: list[int], dtype) -> np.ndarray:
    """XOR of columns[j] over the set bits j of every mask below 2**len(columns)."""
    check_table_bits(len(columns))
    return _doubled(np.bitwise_xor, columns, np.zeros(1 << len(columns), dtype))


def cut_rows(neighbor_masks: Sequence[int]):
    """Row blocks of the cut size |E(S, V - S)| of every vertex subset S of the graph with
    these neighbor masks (``Graph.neighbor_masks``), by S's bit mask, in int16: row r holds
    the masks r * 2**lo + t for t below 2**lo, lo = ``row_bits(n)``.  The table size is
    refused on the call.  A vertex v joining S adds deg(v) - 2|N(v) & S| to its cut: row 0
    joins the low vertices one at a time, doubled in place, and row r is row r - 1 with
    the high vertices that differ, two on average, flipped."""
    n = len(neighbor_masks)
    check_table_bits(n)
    lo = row_bits(n)
    low = np.zeros(1 << lo, np.int16)
    for j, m in enumerate(neighbor_masks[:lo]):
        top = low[1 << j : 2 << j]
        top[0] = m.bit_count()
        _doubled(np.subtract, [2 * (m >> i & 1) for i in range(j)], top)
        top += low[: 1 << j]
    low.flags.writeable = False  # row 0, and the start of every other row
    twice = [2 * subset_sums([m >> i & 1 for i in range(lo)]) for m in neighbor_masks[lo:]]

    def gain(v: int, high: int) -> np.ndarray:  # v joining a set with these high vertices
        m = neighbor_masks[v]
        outside = m.bit_count() - 2 * (m & high).bit_count()
        return np.subtract(outside, twice[v - lo], dtype=np.int16)

    def rows(row=low, high=0):
        yield row
        for r in range(1, 1 << n - lo):
            for v in range(lo, lo + (r & -r).bit_length()):  # bits lo + i of r ^ (r - 1)
                high ^= 1 << v
                row = row + gain(v, high) if high >> v & 1 else row - gain(v, high)
            yield row

    return rows()


def lex_min(masks: np.ndarray) -> np.ndarray:
    """The least of distinct masks, compared as sorted vertex tuples, as a one-entry array."""
    rest = masks
    while len(masks) > 1:
        low = rest & -rest  # each mask's next vertex; 0 marks a prefix of all the others
        keep = low == low.min()
        masks, rest = masks[keep], rest[keep] ^ low[keep]
    return masks


def lex_first(masks: np.ndarray) -> tuple[int, ...]:
    """The least of distinct masks, compared as sorted vertex tuples."""
    first = int(lex_min(masks)[0])
    return tuple(v for v in range(first.bit_length()) if first >> v & 1)


class CheegerResult(Record):
    h_normalized: Fraction
    witness: tuple[int, ...]


def least_ratio(blocks, k: int, keep=None) -> tuple[Fraction, np.ndarray]:
    """Least num / (k * denom) over the live entries, as an exact fraction, and
    the indices of the entries attaining it.

    ``blocks`` yields (num, denom, live) arrays for consecutive blocks of the
    entries, indexed from 0, so no temporary here spans more than one block.
    Each block's quotients are compared in float64: division is correctly
    rounded, so equal fractions give equal floats, and with numerators below
    2**16 and denominators below 2**8 two distinct fractions differ by more
    than their rounding.  An entry that is not live, or has denominator 0, is
    divided by 0, to inf or NaN, and ``np.fmin`` passes over NaN, so no masked
    operation runs.  ``keep`` maps a block's attaining indices, ascending, to
    the ones returned (all of them by default).
    """
    from fractions import Fraction  # its users here: walk and spectrum skip it and decimal

    best, least, kept, offset = None, math.inf, [], 0
    for num, denom, live in blocks:
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.divide(num, denom * live, dtype=np.float64)
        low = np.fmin.reduce(ratio)
        if low <= least and low < math.inf:  # false for a NaN low: nothing live
            ties = np.flatnonzero(ratio == low)
            if low < least:
                j = ties[0]
                least, kept, best = low, [], Fraction(int(num[j]), k * int(denom[j]))
            ties += offset
            kept.append(keep(ties) if keep else ties)
        offset += len(num)
        del ratio  # not held beside the next block while the generator builds it
    return best, np.concatenate(kept)


def cheeger_exhaustive(G: Graph) -> CheegerResult:
    """Exact normalized Cheeger constant by enumerating every vertex subset.

    Ties are broken by the lexicographically smallest witness (as a sorted
    vertex tuple).  The cuts come a row block at a time, and the sizes and sides
    of a block from its row's popcount and one row of low popcounts.
    Past row 0, a block's masks share the same nonempty high vertices, so none
    is a prefix of another, and the least is the one holding the lowest vertex
    where two differ: the largest low bits read in reverse.
    """
    k = _require_regular(G)
    n = G.n
    rows = cut_rows(G.neighbor_masks)
    lo = row_bits(n)
    low = subset_sums([1] * lo)
    odd = np.arange(1 << lo) % 2 == 1  # the masks with vertex 0
    reversed_low = subset_xors([1 << (lo - 1 - j) for j in range(lo)], np.uint16)

    def least(ties: np.ndarray) -> np.ndarray:
        if ties[0] >> lo == 0:  # row 0: the empty high part lets a mask be a prefix
            return lex_min(ties)
        i = np.argmax(reversed_low[ties & ((1 << lo) - 1)])
        return ties[[i]]  # a copy: a view would keep the whole block of ties

    def blocks():
        for r, cut in enumerate(rows):
            size = low + r.bit_count()
            # Each cut once, from its smaller nonempty side; of two equal sides, the one with vertex 0.
            side = 2 * size < n
            side |= (2 * size == n) & odd
            if r == 0:
                side[0] = False
            yield cut, size, side

    best, winners = least_ratio(blocks(), k, keep=least)
    return CheegerResult(best, lex_first(winners))
