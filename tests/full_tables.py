"""The least ratios over whole subset tables: the reference for the row-block
least-ratio kernel, ``hdxwalk.spectral.least_ratio``.

Each function builds every table over all 2**bits entries at once, with a
boolean temporary of that size per denominator, and returns every tied
entry, where the library reads the same tables a row block at a time and
keeps each block's ties or its lexicographically first.  The tables come
from the library's doubling kernels (``cut_sizes``, ``subset_sums``,
``subset_xors``), which are tested against per-mask counts on their own.
"""

from fractions import Fraction

import numpy as np
from named_complexes import complete_graph, cycle_graph, random_regular_graph, relabel_graph

from hdxwalk.expansion import _coset_table
from hdxwalk.spectral import cut_sizes, lex_first, subset_sums, subset_xors

# Tables of 2**17 to 2**20 entries: 8 to 64 row blocks of the least-ratio kernel.
BLOCKED_GRAPHS = {
    "K17": complete_graph(17),
    "K18": complete_graph(18),
    "C18": cycle_graph(18),
    "random 3-regular 20": random_regular_graph(20, 3, 5),
}
# Each graph as it is and under two relabellings.
BLOCKED_CASES = [(name, seed) for name in BLOCKED_GRAPHS for seed in (None, 1, 2)]
BLOCKED_IDS = [f"{name}-{seed}" if seed else name for name, seed in BLOCKED_CASES]


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
