"""Brute-force reference for one dimension of ``certify_exact``.

For every subset S it scans all Z- and B-codewords for dist(S, Z) and
dist(S, B), keeping the least ratio with the lexicographically first
witness.  The library reads the same quantities off coset tables; tests
require every field of its reports to equal this scan's.
"""

from fractions import Fraction
from typing import Optional

from chains import span_iter
from hdxwalk import gf2
from hdxwalk.cochain import mask_bits
from hdxwalk.errors import DegenerateComplexError
from hdxwalk.expansion import DimensionReport


class _Best:
    """Running minimum of (value, witness mask) with lexicographic tie-break."""

    def __init__(self):
        self.value = None
        self.mask = 0
        self._bits: Optional[list[int]] = None

    def offer(self, value, mask: int) -> None:
        if self.value is None or value < self.value:
            self.value, self.mask, self._bits = value, mask, None
        elif value == self.value and mask != self.mask:
            if self._bits is None:
                self._bits = mask_bits(self.mask)
            candidate = mask_bits(mask)
            if candidate < self._bits:
                self.mask, self._bits = mask, candidate


def scan_certify_dimension(X, i: int, k_i: int) -> DimensionReport:
    if i == 0:
        count = X.n_vertices
        gens = X.vertex_edge_masks
        b_masks = [(1 << count) - 1] if count else []
    else:
        count = X.n_edges
        gens = X.edge_triangle_masks
        b_masks = gf2.row_reduce(X.vertex_edge_masks)
    z_basis = gf2.kernel_basis(gens)
    z_words = list(span_iter(z_basis))
    b_words = list(span_iter(b_masks))
    b_set = set(b_words)

    best_z = _Best()
    best_b = _Best()
    best_mu = _Best()
    cur = 0
    delta = 0
    for idx in range(1, 1 << count):
        bit = gf2.low_bit(idx)
        cur ^= 1 << bit
        delta ^= gens[bit]
        if delta == 0:
            if cur not in b_set:
                best_mu.offer(Fraction(cur.bit_count(), count), cur)
            continue
        dsize = delta.bit_count()
        dist_z = min((cur ^ z).bit_count() for z in z_words)
        dist_b = min((cur ^ z).bit_count() for z in b_words)
        best_z.offer(Fraction(dsize, k_i * dist_z), cur)
        best_b.offer(Fraction(dsize, k_i * dist_b), cur)

    if best_z.value is None:
        raise DegenerateComplexError(
            f"every subset at dimension {i} is a cocycle; expansion ratio undefined"
        )
    return DimensionReport(
        dimension=i,
        epsilon_cosystolic=best_z.value,
        cosystolic_witness=tuple(mask_bits(best_z.mask)),
        epsilon_coboundary=best_b.value,
        coboundary_witness=tuple(mask_bits(best_b.mask)),
        mu=best_mu.value,
        mu_witness=tuple(mask_bits(best_mu.mask)) if best_mu.value is not None else None,
    )
