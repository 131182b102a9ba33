"""GF(2) cochain calculus on 2-dimensional complexes.

A chain is a subset of same-dimension faces viewed as a GF(2) vector
(membership = coefficient 1); chain addition is symmetric difference.
The coboundary of a vertex set S is the cut E(S, S-bar); the coboundary of
an edge set F is the set of triangles containing an odd number of edges
of F.  Cocycle spaces Z^i are coboundary kernels, coboundary spaces B^i are
images of the next map down; distances are Hamming distances.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Optional

from . import gf2
from ._record import Record
from .complexes import Complex2
from .errors import CapacityError, DimensionMismatchError, ParameterError

#: ``distance_to_space`` enumerates all 2**dim codewords up to this dimension.
DISTANCE_ENUMERATION_LIMIT = 24


class Chain(Record):
    """Set of face indices of one dimension (0 vertices, 1 edges, 2 triangles)."""

    dimension: int
    members: frozenset[int]

    def __post_init__(self):
        if self.dimension not in (0, 1, 2):
            raise ParameterError(f"chain dimension must be 0, 1 or 2, got {self.dimension}")
        object.__setattr__(self, "members", frozenset(self.members))
        for i in self.members:
            if not isinstance(i, int) or i < 0:
                raise ParameterError(f"face indices must be non-negative integers, got {i!r}")

    @classmethod
    def empty(cls, dimension: int) -> "Chain":
        return cls(dimension, frozenset())

    @classmethod
    def of(cls, dimension: int, members: Iterable[int]) -> "Chain":
        return cls(dimension, frozenset(members))

    def __xor__(self, other: "Chain") -> "Chain":
        if self.dimension != other.dimension:
            raise DimensionMismatchError(
                f"cannot add chains of dimensions {self.dimension} and {other.dimension}"
            )
        return Chain(self.dimension, self.members ^ other.members)

    def __len__(self) -> int:
        return len(self.members)

    def to_list(self) -> list[int]:
        """Canonical serialization: sorted index list."""
        return sorted(self.members)


def chain_to_mask(chain: Chain) -> int:
    m = 0
    for i in chain.members:
        m |= 1 << i
    return m


def mask_bits(mask: int) -> list[int]:
    """Set bit positions of a mask, ascending."""
    out = []
    while mask:
        out.append(gf2.low_bit(mask))
        mask &= mask - 1
    return out


def mask_to_chain(dimension: int, mask: int) -> Chain:
    return Chain(dimension, frozenset(mask_bits(mask)))


def _face_count(X: Complex2, dimension: int) -> int:
    return (X.n_vertices, X.n_edges, X.n_triangles)[dimension]


def _check_members(X: Complex2, chain: Chain) -> None:
    count = _face_count(X, chain.dimension)
    for i in chain.members:
        if i >= count:
            raise ParameterError(
                f"face index {i} out of range for dimension {chain.dimension} "
                f"(complex has {count})"
            )


def coboundary_vertices(X: Complex2, S: Chain) -> Chain:
    """Edges with exactly one endpoint in S."""
    if S.dimension != 0:
        raise DimensionMismatchError("coboundary_vertices takes a 0-chain")
    _check_members(X, S)
    mask = 0
    for v in S.members:
        mask ^= X.vertex_edge_masks[v]
    return mask_to_chain(1, mask)


def coboundary_edges(X: Complex2, F: Chain) -> Chain:
    """Triangles containing an odd number of edges of F."""
    if F.dimension != 1:
        raise DimensionMismatchError("coboundary_edges takes a 1-chain")
    _check_members(X, F)
    mask = 0
    for e in F.members:
        mask ^= X.edge_triangle_masks[e]
    return mask_to_chain(2, mask)


def coboundary(X: Complex2, chain: Chain) -> Chain:
    if chain.dimension == 0:
        return coboundary_vertices(X, chain)
    if chain.dimension == 1:
        return coboundary_edges(X, chain)
    raise DimensionMismatchError("coboundary is defined for 0- and 1-chains")


def local_view(X: Complex2, F: Chain, v: int) -> Chain:
    """Edges of F incident to vertex v."""
    if F.dimension != 1:
        raise DimensionMismatchError("local_view takes a 1-chain")
    _check_members(X, F)
    if not (0 <= v < X.n_vertices):
        raise ParameterError(f"vertex {v} out of range")
    mask = chain_to_mask(F) & X.vertex_edge_masks[v]
    return mask_to_chain(1, mask)


class CodeSpace(Record):
    """GF(2) span of a reduced basis of chains of one face dimension."""

    face_dimension: int
    ambient: int
    kind: str  # "Z" (cocycles) or "B" (coboundaries)
    basis: tuple[Chain, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def basis_masks(self) -> tuple[int, ...]:
        return tuple(chain_to_mask(c) for c in self.basis)

    def contains(self, chain: Chain) -> bool:
        if chain.dimension != self.face_dimension:
            raise DimensionMismatchError(
                f"chain dimension {chain.dimension} != code dimension {self.face_dimension}"
            )
        return gf2.in_span(chain_to_mask(chain), self.basis_masks)


def _coboundary_generators(X: Complex2, i: int) -> tuple[int, ...]:
    if i == 0:
        return X.vertex_edge_masks
    if i == 1:
        return X.edge_triangle_masks
    raise ParameterError(f"cochain dimension must be 0 or 1, got {i}")


def cocycle_space(X: Complex2, i: int) -> CodeSpace:
    """Kernel of the dimension-i coboundary map."""
    gens = _coboundary_generators(X, i)
    basis = gf2.kernel_basis(gens)
    chains = tuple(mask_to_chain(i, m) for m in basis)
    return CodeSpace(i, _face_count(X, i), "Z", chains)


def coboundary_space(X: Complex2, i: int) -> CodeSpace:
    """Trivial zeros: image of the map below (B^0 is {empty, all vertices})."""
    if i == 0:
        basis = () if X.n_vertices == 0 else (Chain(0, frozenset(range(X.n_vertices))),)
        return CodeSpace(0, X.n_vertices, "B", basis)
    if i == 1:
        masks = gf2.image_basis(X.vertex_edge_masks)
        return CodeSpace(1, X.n_edges, "B", tuple(mask_to_chain(1, m) for m in masks))
    raise ParameterError(f"cochain dimension must be 0 or 1, got {i}")


def set_distance(S: Chain, T: Chain) -> int:
    """Hamming distance: size of the symmetric difference."""
    if S.dimension != T.dimension:
        raise DimensionMismatchError(
            f"cannot compare chains of dimensions {S.dimension} and {T.dimension}"
        )
    return len(S.members ^ T.members)


def distance_to_space(F: Chain, C: CodeSpace) -> tuple[int, Chain]:
    """Minimum Hamming distance from F to the span of C, with a nearest codeword.

    Enumerates all 2**dim codewords; ties go to the codeword whose sorted
    index list is lexicographically smallest.
    """
    if F.dimension != C.face_dimension:
        raise DimensionMismatchError(
            f"chain dimension {F.dimension} != code dimension {C.face_dimension}"
        )
    if C.dim > DISTANCE_ENUMERATION_LIMIT:
        raise CapacityError(
            f"code dimension {C.dim} exceeds enumeration threshold {DISTANCE_ENUMERATION_LIMIT}"
        )
    fmask = chain_to_mask(F)
    best_dist: Optional[int] = None
    best_mask = 0
    for z in gf2.span_iter(C.basis_masks):
        d = (fmask ^ z).bit_count()
        if best_dist is None or d < best_dist:
            best_dist, best_mask = d, z
        elif d == best_dist and z != best_mask and mask_bits(z) < mask_bits(best_mask):
            best_mask = z
    assert best_dist is not None
    return best_dist, mask_to_chain(F.dimension, best_mask)
