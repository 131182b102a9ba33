"""The lemmas ``hdx audit`` checks, stated for one edge set at a time, and three
graph inequalities the edge walk's analysis rests on.

Each lemma is restated for one edge set F, a ``Chain``, from the definitions:
the local views ``local_view(X, F, v)``, their coboundaries
``coboundary_edges``, the distances ``distance_to_space`` (all from
``chains``, by codeword enumeration) and the fatness constant.  Neither
``hdxwalk.expansion.local_views`` nor any ``*_judgement`` is called, so the
``audit`` tables, built from per-vertex tables of local views, are checked
against an independent statement.  Only the regularity and exact
``lambda2 < 1/2`` gates are shared, so that both refuse a complex alike.
"""

import math
from fractions import Fraction

import numpy as np

from chains import coboundary_edges, distance_to_space, local_view
from full_tables import cut_sizes
from hdxwalk.cochain import cocycle_space, mask_bits
from hdxwalk.errors import RegularityError
from hdxwalk.expansion import fatness_constant, gap_lambda2
from hdxwalk.graphs import edge_graph, underlying_graph
from hdxwalk.spectral import cheeger_exhaustive, normalized_spectrum, subset_sums

EDGE_GRAPH_FLOOR = Fraction(-17, 18)


def _views(X, F):
    return [local_view(X, F, v) for v in range(X.n_vertices)]


def _hypotheses(X, claim):
    """k0, k1 and lambda2, past the regularity and lambda2 < 1/2 gates."""
    if X.regular is None:
        raise RegularityError("complex is not (k0, k1)-regular")
    return (*X.regular, gap_lambda2(underlying_graph(X), claim))


def _sizes_met(X, lambda2, mu):
    """The size preconditions |V| >= 4 / (1 - 2*lambda2) and |V| >= 3 / mu."""
    return X.n_vertices >= 4.0 / (1.0 - 2.0 * lambda2) - 1e-12 and X.n_vertices * mu >= 3


def outgoing(X, F):
    """(edges of the edge graph leaving F, sum_v |coboundary(F_v)|), equal by the identity."""
    adjacency = edge_graph(X).adjacency
    cut = sum(1 for a in F.members for b in adjacency[a] if b not in F.members)
    return cut, sum(len(coboundary_edges(X, L)) for L in _views(X, F))


def distance(X, F, mu):
    """(asserted, the vertices v where dist(F_v, Z^1) != min(|F_v|, k0 - |F_v|)).

    Asserted for 0 < |F| < |E| under the size preconditions."""
    k0, _, lambda2 = _hypotheses(X, "distance formula requires")
    z1 = cocycle_space(X, 1)
    views = _views(X, F)
    bad = [v for v, L in enumerate(views) if distance_to_space(L, z1)[0] != min(len(L), k0 - len(L))]
    return 0 < len(F) < X.n_edges and _sizes_met(X, lambda2, mu), bad


def fatness_partition(X, F, eta):
    """Vertices by local-view size: above eta*k0 (fat), above k0/2 (semi-fat), or neither."""
    k0 = X.regular[0]
    parts = {"fat": [], "semi_fat": [], "non_fat": []}
    for v, L in enumerate(_views(X, F)):
        parts["fat" if len(L) > eta * k0 else "semi_fat" if 2 * len(L) > k0 else "non_fat"].append(v)
    return parts


def local_views(X, F, epsilon, mu, slack=1e-9):
    """(asserted, the vertices whose view's coboundary falls below its bound less slack).

    The bound is eps*k1*(1 - eta)*k0 for a semi-fat view and eps*k1*|F_v| for
    a non-fat one; asserted under the size preconditions."""
    k0, k1, lambda2 = _hypotheses(X, "local-view bounds require")
    eta, eps = fatness_constant(lambda2), float(epsilon)
    parts, views = fatness_partition(X, F, eta), _views(X, F)
    bound = {v: eps * k1 * (1.0 - eta) * k0 for v in parts["semi_fat"]}
    bound.update({v: eps * k1 * len(views[v]) for v in parts["non_fat"]})
    bad = [v for v, b in sorted(bound.items()) if len(coboundary_edges(X, views[v])) < b - slack]
    return _sizes_met(X, lambda2, mu), bad


def sum_bound(X, F, epsilon, slack=1e-9):
    """(sum_v |coboundary(F_v)|, its bound (eps*k1/4) * bracket(lambda2) * |F|, whether
    the sum reaches the bound less slack), for |F| <= |E|/2."""
    _, k1, lambda2 = _hypotheses(X, "sum-of-coboundaries bound requires")
    assert 2 * len(F) <= X.n_edges, "the bound is stated for |F| <= |E|/2"
    bracket = 3.0 * math.sqrt((1.0 + 2.0 * lambda2) ** 2 + 32.0) - 2.0 * lambda2 - 17.0
    lhs = outgoing(X, F)[1]
    rhs = float(epsilon) * k1 / 4.0 * bracket * len(F)
    return lhs, rhs, lhs >= rhs - slack


def mixing_lemma_residual(G):
    """(worst residual, its first subset in mask order, lambda2) of the one-sided expander
    mixing bound 2|E(S)| <= k|S|(|S|/n + lambda2*(1 - |S|/n)) over every vertex subset S.

    This exact Rayleigh form holds on every regular graph with the signed
    lambda2, with equality on complete graphs."""
    cut = cut_sizes(G.neighbor_masks)  # refuses a graph over the table limit before the eigensolver runs
    k, n, lambda2 = G.regular_k, G.n, normalized_spectrum(G).lambda2
    size = subset_sums([1] * n)
    # 2|E(S)| = k|S| - cut(S): at each size the least cut gives the worst residual.
    least = [int(cut[size == s].min()) for s in range(n + 1)]
    residuals = [(k * s - c) - k * s * (s / n + lambda2 * (1.0 - s / n)) for s, c in enumerate(least)]
    worst = max(residuals)
    first = min(
        int(np.argmax((size == s) & (cut == c)))
        for s, (c, r) in enumerate(zip(least, residuals))
        if r == worst
    )
    return worst, tuple(mask_bits(first)), lambda2


def cheeger_inequality_slack(G):
    """(1 - h**2/2) - lambda2, non-negative where the Cheeger inequality holds."""
    h = cheeger_exhaustive(G).h_normalized
    return (1.0 - float(h) ** 2 / 2.0) - normalized_spectrum(G).lambda2


def edge_graph_floor_slack(X):
    """lambda_n of the edge graph less -17/18, non-negative where the floor holds."""
    return normalized_spectrum(edge_graph(X)).lambda_n - float(EDGE_GRAPH_FLOOR)
