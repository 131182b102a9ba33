"""Normalized adjacency spectra, exact Cheeger constants, and subset tables.

Eigenvalues of a k-regular graph are reported normalized by k, sorted
descending; whether lambda2 < 1/2 is decided exactly, near 1/2 by Sylvester's
criterion in integers.  ``lambda2_below(G, t)`` decides lambda2 < t for any
rational t that way, and ``lambda2_bracket`` bisects with it to an exact
bracket of width 2**-60: 1.4-3.3 ms at 4-7 vertices, 9-20 ms at 12, with no
eigensolver.  Cheeger constants are exact rationals from exhaustive subset
enumeration.  Every scan of a graph's cuts over its vertex subsets reads
``_packed_cuts``, rows of one-byte cuts packed into Python ints, and its readers,
the Cheeger constant and minimum cut (``least_cut``) and the sum lemma's stream
(``cuts_below``), live here, so only this module knows the format; ``cut_list``
gives every cut of a small graph as one list.  None imports numpy: on a 2-CPU
Xeon VM (Python 3.11.7) ``cheeger`` takes 2.6 ms on K18, 6.2 ms on K20, 7.4 ms
on K7's edge graph (21 vertices), 32 ms on the cuboctahedron's (24) and 190 ms
on K26, where importing numpy takes 75-150 ms.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate, chain, combinations, compress
from operator import itemgetter
from typing import TYPE_CHECKING, Sequence

from ._lazy import np
from ._record import Record
from .errors import CapacityError, ParameterError, RegularityError, ToleranceError, check_tolerance
from .graphs import Graph

if TYPE_CHECKING:
    from fractions import Fraction

#: Largest subset table (2**bits entries) the enumeration kernels build.
TABLE_BIT_LIMIT = 26
#: Largest coset table (2**bits entries) that ``certify`` enumerates on Python ints
#: instead of numpy.  Up to it a process that only certifies never imports numpy,
#: whose import (75-150 ms) outweighs the whole enumeration.  12 because, with
#: numpy loaded already (2-CPU Xeon VM, Python 3.11.7), the int pass costs at most
#: 2.1 ms on the certificates of K4-K6, the octahedron and RP^2_6, while at 2**15
#: it costs 37-43 ms (K7's Z^1 table) where numpy takes 0.4-1.6 ms.
INT_TABLE_BITS = 12
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


def _check_elimination(G: Graph, what: str) -> None:
    if G.n**3 > ELIMINATION_WORK_LIMIT:
        raise CapacityError(
            f"{what} takes up to {G.n}**3 multiplications; limit is {ELIMINATION_WORK_LIMIT}"
        )


def lambda2_below(G: Graph, t: Fraction) -> bool:
    """Whether the normalized lambda2 of a regular graph is below t, decided exactly.

    For t = p/q with q > 0, lambda2 < t exactly when B = p*k*I - q*A + q*k*J is
    positive definite: B has eigenvalue q*k*(t + n - 1) on the all-ones vector
    and p*k - q*mu for each other eigenvalue mu of A.  The first is positive
    for every t > 1 - n, and for t <= 1 - n <= -1 <= lambda2 B is not positive
    definite, rightly; so no t needs a case of its own.  Testing it takes
    fewer than n**3 multiplications; above ELIMINATION_WORK_LIMIT
    CapacityError is raised before the first.
    """
    k = _require_regular(G)
    _check_elimination(G, f"deciding lambda2 < {t} exactly")
    p, q = t.numerator, t.denominator
    # Row v of B from its diagonal on: (p + q)k, then q(k - 1) at a neighbor and qk elsewhere.
    return _positive_definite([
        [(p + q) * k] + [q * (k - (nbrs >> w & 1)) for w in range(v + 1, G.n)]
        for v, nbrs in enumerate(G.neighbor_masks)
    ])


@lru_cache(maxsize=8)
def lambda2_bracket(G: Graph) -> tuple[Fraction, Fraction]:
    """(lo, hi): consecutive multiples of 2**-60 with lo <= lambda2 < hi, exactly.

    Bisection over the multiples of 2**-60 from -1, which lambda2 reaches at
    least, to 1, which it reaches at most, one ``lambda2_below`` per halving:
    62 at most.  Cached, as the eigensystem is.
    """
    from fractions import Fraction

    step = 1 << 60
    lo, hi = -step, step + 1  # numerators over 2**60: lambda2 >= lo / 2**60, < hi / 2**60
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if lambda2_below(G, Fraction(mid, step)):
            hi = mid
        else:
            lo = mid
    return Fraction(lo, step), Fraction(hi, step)


def lambda2_below_half(G: Graph, report: SpectralReport) -> bool:
    """Whether the normalized lambda2 of a regular graph is below 1/2, decided exactly.

    ``report`` is G's normalized spectrum.  Its float lambda2 decides when it
    lies farther from 1/2 than n times the eigensolver's normalized residual
    (at least 1e-9), which bounds its error; inside that band ``lambda2_below``
    does.
    """
    if abs(report.lambda2 - 0.5) > max(G.n * report.tolerance, 1e-9):
        return report.lambda2 < 0.5
    from fractions import Fraction

    _check_elimination(
        G, "lambda2 lies within the eigensolver's error of 1/2, and deciding it exactly"
    )
    return lambda2_below(G, Fraction(1, 2))


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


def cut_list(neighbor_masks: Sequence[int]) -> list[int]:
    """``cut_rows`` on plain ints, as one list: the cut of every subset S of the first
    len(neighbor_masks) vertices, by S's bit mask, in the graph of these neighbor masks.
    Doubled: vertex v joining a set S below it adds deg(v) - 2|N(v) & S|."""
    cuts = [0]
    for m in neighbor_masks:
        degree = m.bit_count()
        cuts += [c + degree - 2 * (m & s).bit_count() for s, c in enumerate(cuts)]
    return cuts


def subset_sums(weights: list[int]) -> np.ndarray:
    """Sum of 0/1 weights[j] over the set bits j of every mask below 2**len(weights), in uint8."""
    check_table_bits(len(weights))
    return _doubled(np.add, weights, np.zeros(1 << len(weights), np.uint8))


def subset_xors(columns: list[int], dtype) -> np.ndarray:
    """XOR of columns[j] over the set bits j of every mask below 2**len(columns)."""
    check_table_bits(len(columns))
    return _doubled(np.bitwise_xor, columns, np.zeros(1 << len(columns), dtype))


def lex_first(masks) -> tuple[int, ...]:
    """The least of distinct masks, ints or an array of them, as a sorted vertex tuple:
    the witness tie-break of every exact minimum."""
    return min(tuple(v for v in range(m.bit_length()) if m >> v & 1) for m in map(int, masks))


class CheegerResult(Record):
    h_normalized: Fraction
    witness: tuple[int, ...]


def least_ratio(blocks, k: int) -> tuple[Fraction, np.ndarray]:
    """Least num / (k * denom) over the live entries, as an exact fraction, and
    the indices of the entries attaining it.

    ``blocks`` yields (num, denom, live) arrays for consecutive blocks of the
    entries, indexed from 0, so no temporary here spans more than one block.
    Each block's quotients are compared in float64: division is correctly
    rounded, so equal fractions give equal floats, and with numerators below
    2**16 and denominators below 2**8 two distinct fractions differ by more
    than their rounding.  An entry that is not live, or has denominator 0, is
    divided by 0, to inf or NaN, and ``np.fmin`` passes over NaN, so no masked
    operation runs.
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
            kept.append(ties + offset)
        offset += len(num)
        del ratio  # not held beside the next block while the generator builds it
    return best, np.concatenate(kept)


def least_int_ratio(entries, k: int) -> tuple[Fraction, list[int]]:
    """Least num / (k * denom) over the (index, num, denom) ``entries``, denominators
    positive, as an exact fraction, and the indices attaining it in the order
    given: ``least_ratio`` on plain ints, compared exactly by cross-multiplication."""
    from fractions import Fraction

    best_num, best_denom, ties = 1, 0, []  # 1/0 lies above every ratio
    for index, num, denom in entries:
        diff = num * best_denom - best_num * denom
        if diff < 0:
            best_num, best_denom, ties = num, denom, [index]
        elif diff == 0:
            ties.append(index)
    return Fraction(best_num, k * best_denom), ties


def _lex_less(a: int, b: int) -> bool:
    """Whether mask a precedes mask b, compared as sorted vertex tuples: at the least
    vertex where they differ, the mask holding it comes first, unless the other mask
    ends there.  False when they are equal."""
    low = (a ^ b) & -(a ^ b)
    return b > low if a & low else a < low


def _low_sets(bits: int) -> tuple[list[int], list[int]]:
    """The masks of the low sets of a scan of ``bits`` vertices, the subsets of the first
    lo = min((bits + 3) // 2, bits), in the order of ``_packed_cuts``' fields: by size
    and then as sorted vertex tuples; and the index where each size begins, the end last."""
    lo = min((bits + 3) // 2, bits)
    vertices = [1 << v for v in range(lo)]
    order = [m for size in range(lo + 1) for m in map(sum, combinations(vertices, size))]
    return order, list(accumulate((math.comb(lo, s) for s in range(lo + 1)), initial=0))


def _packed_cuts(neighbor_masks: Sequence[int], order: list[int], highs):
    """(H, cuts) for each high set H of ``highs``, in the order given: the cut of
    S = H + L for every low set L of ``order`` (``_low_sets``), in the graph of these
    neighbor masks, packed one byte per L into an int, the first L lowest.

    The one subset scan of cuts.  A cut is at most n**2 / 4, below 256 for n < 32, so
    every byte is exact; each caller refuses the table size first.  A vertex w joining
    S adds deg(w) - 2|N(w) & L| - 2|N(w) & H| to every field at once: w's packed table
    of the first two terms, built at its first move, less 2|N(w) & H| * ``ones``.  A
    row costs one move in Gray order, two on average in ascending order.
    """
    lo = order[-1].bit_length()
    ones = int.from_bytes(b"\1" * len(order), "little")
    packed = int.from_bytes(bytes(map(cut_list(neighbor_masks[:lo]).__getitem__, order)), "little")
    pick = itemgetter(*order)  # a tuple: where a high vertex moves, lo >= 1 and len(order) >= 2
    plus_two = bytes(range(2, 256)) + b"\0\1"
    high, alone, twice = 0, {}, {}
    for target in highs:
        moved = target ^ high
        while moved:
            bit = moved & -moved
            moved ^= bit
            high ^= bit
            w = bit.bit_length() - 1
            m = neighbor_masks[w]
            if w not in alone:  # deg(w) - 2|N(w) & L| at every L
                near = b"\0"  # 2|N(w) & L| by L's mask, doubled one low vertex at a time
                for v in range(lo):
                    near += near.translate(plus_two) if m >> v & 1 else near
                alone[w] = m.bit_count() * ones - int.from_bytes(bytes(pick(near)), "little")
            c = (m & high).bit_count()
            if c not in twice:
                twice[c] = 2 * c * ones
            gain = alone[w] - twice[c]
            packed = packed + gain if high & bit else packed - gain
        yield high, packed


def least_cut(G: Graph, per_vertex: bool) -> tuple[int, int, int]:
    """(c, s, side): the least cut c per vertex of its side, s = |side|, if ``per_vertex``
    (Cheeger's ratio: the smaller side, of two equal ones the one holding vertex 0),
    else the least cut c, s = 1, of a side holding vertex 0; the side is the
    lexicographically least, as a mask.

    Each cut once: T ranges over the subsets of vertices 0..n - 2, the high ones in
    Gray order.  Within a size's slice of a row ``find`` gives the least side T of a
    cut and ``rfind`` its least side V - T, as complementing reverses the order among
    sets of one size; the sets holding vertex 0 come first.  From the side {0}, a
    slice of sides of size s can meet the best ratio c*/s* only with a cut c <= t =
    c* s // s*: ``translate`` deletes its bytes above t, and c is the least left.
    For the least cut a whole row is passed over first unless some field x is below
    c* + 1 <= 128, which borrows into its top bit in x - (c* + 1) * ones, kept by ~x
    as x < 128, before any field at least c* + 1 does.  Ties pass, compared exactly.
    """
    n, full = G.n, (1 << G.n) - 1
    order, starts = _low_sets(n - 1)
    lo = len(starts) - 2
    # The low sets of each size s are fields a..e, those holding vertex 0 before split.
    splits = [a + (s and math.comb(lo - 1, s - 1)) for s, a in enumerate(starts[:-1])]
    slices = list(zip(range(lo + 1), starts, starts[1:], splits))
    gray = ((r ^ r >> 1) << lo for r in range(1 << (n - 1 - lo)))
    best_cut, best_size, witness = G.neighbor_masks[0].bit_count(), 1, 1  # the side {0}
    side_sizes = [min(size, n - size) if per_vertex else 1 for size in range(n)]
    # The cut values above t, for every t a slice can reach: the ratio is at most deg(0).
    above = [bytes(range(t + 1, 256)) for t in range(best_cut * max(side_sizes) + 1)]
    ones = int.from_bytes(b"\1" * len(order), "little")
    tops, limit = ones << 7, None
    for high, packed in _packed_cuts(G.neighbor_masks, order, gray):
        if limit is not None and not (packed - limit) & ~packed & tops:
            continue
        cuts = packed.to_bytes(len(order), "little")
        h = high.bit_count()
        for s, a, e, split in slices[not h :]:  # T = H + L is not empty
            size = h + s
            side_size = side_sizes[size]
            left = cuts[a:e].translate(None, above[best_cut * side_size // best_size])
            if not left:
                continue
            c = min(left)
            if per_vertex and 2 * size < n:
                side = order[cuts.find(c, a, e)] | high
            elif per_vertex and 2 * size > n:
                side = full ^ (order[cuts.rfind(c, a, e)] | high)
            else:
                i, j = cuts.find(c, a, split), cuts.rfind(c, split, e)
                side = order[i] | high if i >= 0 else None
                other = full ^ (order[j] | high) if j >= 0 else side
                side = other if side is None or _lex_less(other, side) else side
            if c * best_size < best_cut * side_size or _lex_less(side, witness):
                best_cut, best_size, witness = c, side_size, side
        if not per_vertex:  # t = c* + 1 <= n in every slice
            limit = (best_cut + 1) * ones
    return best_cut, best_size, witness


def cuts_below(neighbor_masks: Sequence[int], least: Sequence[float]):
    """The masks of the vertex sets S of the graph with these neighbor masks whose cut
    is below least[|S|], ascending, from ``_packed_cuts``' rows; the table size is
    refused on the call.

    The high sets H ascend, so a row holds the masks H to H + 2**lo - 1, its failures
    sorted.  A cut is below x exactly when below t = ceil(x), taken from 0 to 256.  A
    row with no field below its largest t <= 128 is passed over as in ``least_cut``;
    in each size slice of the others ``translate`` flags the fields below t.
    """
    n = len(neighbor_masks)
    check_table_bits(n)
    order, starts = _low_sets(n)
    lo = len(starts) - 2
    limits = [0 if not x > 0 else 256 if x > 256 else math.ceil(x) for x in least]
    flags = {t: bytes(v < t for v in range(256)) for t in set(limits)}
    slices = list(enumerate(zip(starts, starts[1:])))
    ones = int.from_bytes(b"\1" * len(order), "little")
    tops = ones << 7
    # Per |H|, the largest limit of the row times ones, or None past 128.
    largest = (max(limits[h : h + lo + 1]) for h in range(n - lo + 1))
    tests = [t * ones if t <= 128 else None for t in largest]
    rows = _packed_cuts(neighbor_masks, order, (r << lo for r in range(1 << (n - lo))))

    def failing():
        for high, packed in rows:
            h = high.bit_count()
            if tests[h] is not None and not (packed - tests[h]) & ~packed & tops:
                continue
            cuts, found = packed.to_bytes(len(order), "little"), []
            for s, (a, e) in slices:
                t = limits[h + s]
                if t and b"\1" in (marks := cuts[a:e].translate(flags[t])):
                    found += compress(order[a:e], marks)
            yield from (high | m for m in sorted(found))

    return failing()


def cheeger_exhaustive(G: Graph) -> CheegerResult:
    """Exact normalized Cheeger constant by enumerating every vertex subset.

    Each cut counts once, from its smaller nonempty side S, and of two equal
    sides from the one holding vertex 0; ties are broken by the lexicographically
    smallest witness (as a sorted vertex tuple).  The table size is refused
    first, so no graph of more than TABLE_BIT_LIMIT = 26 vertices reaches the
    packed kernel, whose byte fields need n < 32.
    """
    from fractions import Fraction

    k = _require_regular(G)
    check_table_bits(G.n)
    cut, size, witness = least_cut(G, True)
    return CheegerResult(Fraction(cut, k * size), lex_first([witness]))
