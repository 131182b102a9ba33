"""Whole subset tables: the references for the library's subset kernels.

``cut_sizes`` builds a graph's cut table over all 2**n subsets at once, the
reference for the packed cut rows of ``hdxwalk.spectral._packed_cuts``
(``packed_table`` joins them by mask), and ``local_view_sums`` sums per-star
tables over every edge set a row block at a time, the scan that ``audit``'s
sum and view lemmas replaced by cut rows and merged streams.  The least ratios
below build every table at once too, with a boolean temporary of that size per
denominator, and return every tied entry, as ``hdxwalk.spectral.least_ratio``
does reading the tables a row block at a time; ``cheeger`` and ``min_cut`` are
the references for the packed Cheeger and minimum-cut kernels.  Besides
``cut_sizes``, the tables come from the library's doubling kernels
(``subset_sums``, ``subset_xors``), which are tested against per-mask counts
on their own.
"""

from fractions import Fraction

import numpy as np
from named_complexes import complete_graph, cycle_graph, random_regular_graph, relabel_graph

from hdxwalk.expansion import _coset_table
from hdxwalk import spectral
from hdxwalk.spectral import _doubled, check_table_bits, lex_first, row_bits, subset_sums, subset_xors

# Tables of 2**17 to 2**20 entries, read as 2**7 to 2**9 packed cut rows.
BLOCKED_GRAPHS = {
    "K17": complete_graph(17),
    "K18": complete_graph(18),
    "C18": cycle_graph(18),
    "random 3-regular 20": random_regular_graph(20, 3, 5),
}
# Each graph as it is and under two relabellings.
BLOCKED_CASES = [(name, seed) for name in BLOCKED_GRAPHS for seed in (None, 1, 2)]
BLOCKED_IDS = [f"{name}-{seed}" if seed else name for name, seed in BLOCKED_CASES]


def cut_sizes(neighbor_masks):
    """Cut size |E(S, V - S)| of every vertex subset S of the graph with these
    neighbor masks, indexed by S's bit mask.

    Built by doubling: cut(S + j) = cut(S) + deg(j) - 2|N(j) & S| for S below
    2**j, the last two terms doubled in place into the top half before cut(S)
    is added, so the int16 table is the only one.
    """
    check_table_bits(len(neighbor_masks))
    cut = np.zeros(1 << len(neighbor_masks), np.int16)
    for j, nbrs in enumerate(neighbor_masks):
        top = cut[1 << j : 2 << j]
        top[0] = nbrs.bit_count()
        _doubled(np.subtract, [2 * (nbrs >> i & 1) for i in range(j)], top)
        top += cut[: 1 << j]
    return cut


def packed_table(masks, highs=None):
    """``spectral._packed_cuts``' rows over every high set, in ascending order or in the
    order ``highs`` gives, joined into one list indexed by mask: field i of row H is
    the cut of H + order[i], ``order`` being the low sets by size, then lexicographically."""
    order, starts = spectral._low_sets(len(masks))
    lo = len(starts) - 2
    if highs is None:
        highs = [r << lo for r in range(1 << (len(masks) - lo))]
    table = [None] * (1 << len(masks))
    for high, packed in spectral._packed_cuts(masks, order, highs):
        for low, cut in zip(order, packed.to_bytes(len(order), "little")):
            table[high | low] = cut
    return table


def local_view_sums(X, tables):
    """Row blocks of the sums over v of tables[v] at F's local view at v, over
    every edge mask F, with the masks' sizes |F|; no block if every table is 0.

    ``tables[v]`` holds a non-negative integer or bool per view of star(v), a list or an array,
    indexed as in ``hdxwalk.expansion.local_views``.  Block r holds the masks
    r * 2**lo + t for t below 2**lo, lo = ``row_bits(|E|)``, which share the
    edges from lo up.  The star's edges ascend, so its low edges index a row
    of its table and its high edges pick the row; each block is a (2,) * lo
    array whose axis a is edge lo - 1 - a, to which each star's row adds by
    broadcasting.
    """
    n = X.n_edges
    lo = row_bits(n)
    tables = [np.asarray(t) for t in tables]
    dtype = np.min_scalar_type(sum(int(t.max()) for t in tables))
    stars = []
    for edges, table in zip(X.vertex_edges, tables):
        if not table.any():  # adds nothing, as for a view lemma's star where every view holds
            continue
        shape = [2 if lo - 1 - a in edges else 1 for a in range(lo)]
        stars.append(([e - lo for e in edges if e >= lo], table.astype(dtype).reshape(-1, *shape)))
    if not stars:  # every sum is 0
        return
    check_table_bits(n)
    low = subset_sums([1] * lo)
    for r in range(1 << (n - lo)):
        total = np.zeros((2,) * lo, dtype)
        for high, rows in stars:
            total += rows[sum((r >> e & 1) << j for j, e in enumerate(high))]
        yield total.reshape(-1), low + r.bit_count()


def blocked_graph(name, seed):
    G = BLOCKED_GRAPHS[name]
    return G if seed is None else relabel_graph(G, seed)


def least_ratio(num, denom, live, k):
    """Least num / (k * denom) over the live entries with denominator >= 1, as an
    exact fraction, and a flag per entry attaining it.

    Per denominator d only the least numerator can attain it, so at most one
    exact fraction per d is compared.
    """
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


def cheeger(G):
    """(h, lexicographically first witness, every tied mask) of a regular graph G."""
    n = G.n
    size = subset_sums([1] * n)
    # Each cut once, from its smaller nonempty side; of two equal sides, the one with vertex 0.
    side = 2 * size < n
    side[1::2] |= 2 * size[1::2] == n
    side[0] = False
    best, ties = least_ratio(cut_sizes(G.neighbor_masks), size, side, G.regular_k)
    masks = np.flatnonzero(ties)
    return best, lex_first(masks), masks


def min_cut(G):
    """(least cut over the proper subsets holding vertex 0, lexicographically first
    such subset attaining it, every mask attaining it)."""
    cut = cut_sizes(G.neighbor_masks)[1:-1:2]  # masks 1, 3, ..., 2**n - 3
    least = int(cut.min())
    masks = 2 * np.flatnonzero(cut == least) + 1
    return least, lex_first(masks), masks


def coset_sizes(X, i, columns):
    """|coboundary(S)| at the syndrome of every S, from one ``subset_xors`` table
    over the pivot faces' coboundary masks per 64-bit chunk."""
    width = (X.n_edges, X.n_triangles)[i]
    gens = (X.vertex_edge_masks, X.edge_triangle_masks)[i]
    bits = max(columns, default=0).bit_length()
    pivot_masks = [gens[columns.index(1 << r)] for r in range(bits)]
    size = np.zeros(1 << bits, np.min_scalar_type(width))
    for low in range(0, width, 64):
        chunk = [g >> low & (2**64 - 1) for g in pivot_masks]
        size += np.bitwise_count(subset_xors(chunk, np.min_scalar_type(max(chunk, default=0))))
    return size


def least_coset(X, i, k_i, basis):
    """(least |coboundary(S)| / (k_i * dist(S, span(basis))), every tied syndrome)."""
    columns, weight = _coset_table((X.n_vertices, X.n_edges)[i], basis)
    size = coset_sizes(X, i, columns)
    best, ties = least_ratio(size, weight, size > 0, k_i)
    return best, np.flatnonzero(ties)
