"""Chains, coboundaries, local views and distances, stated from the definitions.

The reference the witness and lemma-loop tests check the library against.
``hdxwalk`` itself works on bit masks throughout: ``hdxwalk.cochain`` gives
the cocycle and coboundary spaces as reduced bases of masks, and distances
are coset-leader weights read off syndrome tables.  Here a chain is a set of
face indices of one dimension (a GF(2) vector; addition is symmetric
difference), and ``distance_to_space`` finds the nearest codeword by
enumerating every one.
"""

from typing import Iterable, Iterator, Sequence

from hdxwalk import gf2
from hdxwalk._record import Record
from hdxwalk.cochain import mask_bits
from hdxwalk.errors import ParameterError


class Chain(Record):
    """Set of face indices of one dimension (0 vertices, 1 edges, 2 triangles)."""

    dimension: int
    members: frozenset[int]

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
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

    @classmethod
    def from_mask(cls, dimension: int, mask: int) -> "Chain":
        return cls(dimension, frozenset(mask_bits(mask)))

    @property
    def mask(self) -> int:
        return sum(1 << i for i in self.members)

    def __xor__(self, other: "Chain") -> "Chain":
        if self.dimension != other.dimension:
            raise ParameterError(
                f"cannot add chains of dimensions {self.dimension} and {other.dimension}"
            )
        return Chain(self.dimension, self.members ^ other.members)

    def __len__(self) -> int:
        return len(self.members)

    def to_list(self) -> list[int]:
        """Canonical serialization: sorted index list."""
        return sorted(self.members)


def coboundary_vertices(X, S: Chain) -> Chain:
    """Edges with exactly one endpoint in S."""
    assert S.dimension == 0, "coboundary_vertices takes a 0-chain"
    mask = 0
    for v in S.members:
        mask ^= X.vertex_edge_masks[v]
    return Chain.from_mask(1, mask)


def coboundary_edges(X, F: Chain) -> Chain:
    """Triangles containing an odd number of edges of F."""
    assert F.dimension == 1, "coboundary_edges takes a 1-chain"
    mask = 0
    for e in F.members:
        mask ^= X.edge_triangle_masks[e]
    return Chain.from_mask(2, mask)


def coboundary(X, chain: Chain) -> Chain:
    return (coboundary_vertices, coboundary_edges)[chain.dimension](X, chain)


def local_view(X, F: Chain, v: int) -> Chain:
    """Edges of F incident to vertex v."""
    assert F.dimension == 1, "local_view takes a 1-chain"
    return Chain.from_mask(1, F.mask & X.vertex_edge_masks[v])


def span_iter(basis: Sequence[int]) -> Iterator[int]:
    """All 2**len(basis) span elements, in Gray-code order starting at 0."""
    x = 0
    yield x
    for i in range(1, 1 << len(basis)):
        x ^= basis[gf2.low_bit(i)]
        yield x


def distance_to_space(F: Chain, basis: Sequence[int]) -> tuple[int, Chain]:
    """Minimum Hamming distance from F to the span of the masks ``basis``, with a
    nearest codeword.

    Enumerates all 2**len(basis) codewords; ties go to the codeword whose
    sorted index list is lexicographically smallest.
    """
    fmask = F.mask
    best_dist, best_mask = None, 0
    for z in span_iter(basis):
        d = (fmask ^ z).bit_count()
        if best_dist is None or d < best_dist:
            best_dist, best_mask = d, z
        elif d == best_dist and z != best_mask and mask_bits(z) < mask_bits(best_mask):
            best_mask = z
    return best_dist, Chain.from_mask(F.dimension, best_mask)
