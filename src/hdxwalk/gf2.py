"""Exact GF(2) linear algebra on bit-mask vectors.

Vectors are Python ints used as bit masks (bit i = coordinate i); addition is
XOR.  Row reduction pivots on the lowest set bit, so a reduced basis has one
row per pivot and no pivot bit appears in any other row.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def low_bit(x: int) -> int:
    """Index of the lowest set bit; x must be nonzero."""
    return (x & -x).bit_length() - 1


def row_reduce(rows: Iterable[int]) -> list[int]:
    """Reduced basis of the span of ``rows``, sorted by pivot position.

    Each row is reduced into an echelon basis keyed by pivot, meeting only the
    rows whose pivots it holds; one back-substitution pass, from the highest
    pivot down, then clears every other pivot bit.  That reduced basis is the
    unique one of the span.
    """
    basis: dict[int, int] = {}
    for r in rows:
        while r:
            p = low_bit(r)
            if p not in basis:
                basis[p] = r
                break
            r ^= basis[p]
    pivots = sorted(basis)
    pivot_mask = sum(1 << p for p in pivots)
    for p in reversed(pivots):
        # Rows above p are reduced already, so each clears one pivot bit and sets none.
        r = basis[p]
        hits = r & pivot_mask & ~(1 << p)
        while hits:
            low = hits & -hits
            r ^= basis[low.bit_length() - 1]
            hits ^= low
        basis[p] = r
    return [basis[p] for p in pivots]


def kernel_basis(generators: Sequence[int]) -> list[int]:
    """Basis of {x : XOR of generators[j] over set bits j of x is 0}.

    The returned masks index into ``generators``; the basis is row reduced.
    """
    pivots: dict[int, tuple[int, int]] = {}
    kernel: list[int] = []
    for j, g in enumerate(generators):
        v, c = g, 1 << j
        while v:
            p = low_bit(v)
            if p not in pivots:
                break
            pv, pc = pivots[p]
            v ^= pv
            c ^= pc
        if v:
            pivots[low_bit(v)] = (v, c)
        else:
            kernel.append(c)
    return row_reduce(kernel)


def syndrome_columns(basis: Sequence[int], length: int) -> list[int]:
    """Per coordinate j < length, its column of a parity-check matrix of span(basis).

    The syndrome of a vector, the XOR of the columns of its set bits, is 0
    exactly on the span, so two vectors share a coset exactly when their
    syndromes agree.  For an independent basis the columns have
    length - len(basis) bits, and every syndrome of that width occurs.
    """
    # The checks are the vectors orthogonal to every basis row, the kernel
    # of the transposed basis.
    transposed = [sum((b >> j & 1) << t for t, b in enumerate(basis)) for j in range(length)]
    checks = kernel_basis(transposed)
    return [sum((h >> j & 1) << r for r, h in enumerate(checks)) for j in range(length)]
