"""GF(2) cocycle and coboundary spaces of 2-dimensional complexes, as bit masks.

A subset of same-dimension faces is a GF(2) vector, held as an int whose
bit i is face i; addition is XOR.  The coboundary of a vertex set S is the
cut E(S, S-bar); the coboundary of an edge set F is the set of triangles
containing an odd number of edges of F.  Cocycle spaces Z^i are coboundary
kernels, coboundary spaces B^i are images of the next map down; each is
returned as its reduced basis of masks.
"""

from __future__ import annotations

from . import gf2
from .complexes import Complex2
from .errors import ParameterError


def mask_bits(mask: int) -> list[int]:
    """Set bit positions of a mask, ascending."""
    out = []
    while mask:
        out.append(gf2.low_bit(mask))
        mask &= mask - 1
    return out


def _coboundary_generators(X: Complex2, i: int) -> tuple[int, ...]:
    if i == 0:
        return X.vertex_edge_masks
    if i == 1:
        return X.edge_triangle_masks
    raise ParameterError(f"cochain dimension must be 0 or 1, got {i}")


def cocycle_space(X: Complex2, i: int) -> tuple[int, ...]:
    """Reduced basis of Z^i, the kernel of the dimension-i coboundary map."""
    return tuple(gf2.kernel_basis(_coboundary_generators(X, i)))


def coboundary_space(X: Complex2, i: int) -> tuple[int, ...]:
    """Reduced basis of B^i, the trivial zeros: image of the map below (B^0 is
    {empty, all vertices})."""
    if i == 0:
        return () if X.n_vertices == 0 else ((1 << X.n_vertices) - 1,)
    if i == 1:
        return tuple(gf2.row_reduce(X.vertex_edge_masks))
    raise ParameterError(f"cochain dimension must be 0 or 1, got {i}")
