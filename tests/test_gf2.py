"""Bit-mask GF(2) elimination: reduction, span, kernel, and enumeration."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st
from chains import span_iter

from hdxwalk import gf2

masks = st.integers(min_value=0, max_value=(1 << 12) - 1)
mask_lists = st.lists(masks, min_size=0, max_size=8)


def brute_span(rows):
    span = {0}
    for r in rows:
        span |= {x ^ r for x in span}
    return span


def reference_row_reduce(rows):
    """The quadratic reduction: each new row against every basis row, then its
    pivot cleared from every basis row."""
    basis = {}
    for r in rows:
        for p, s in basis.items():
            if r >> p & 1:
                r ^= s
        if r:
            p = gf2.low_bit(r)
            for q in basis:
                if basis[q] >> p & 1:
                    basis[q] ^= r
            basis[p] = r
    return [basis[p] for p in sorted(basis)]


def test_low_bit():
    assert gf2.low_bit(1) == 0
    assert gf2.low_bit(0b1010100) == 2
    assert gf2.low_bit(1 << 63) == 63


@settings(max_examples=200)
@given(mask_lists)
def test_row_reduce_preserves_span(rows):
    reduced = gf2.row_reduce(rows)
    assert brute_span(reduced) == brute_span(rows)


@settings(max_examples=200)
@given(mask_lists)
def test_row_reduce_is_reduced(rows):
    reduced = gf2.row_reduce(rows)
    pivots = [gf2.low_bit(r) for r in reduced]
    assert pivots == sorted(pivots)
    assert len(set(pivots)) == len(pivots)
    for i, r in enumerate(reduced):
        for j, p in enumerate(pivots):
            if i != j:
                assert not r >> p & 1  # pivot bits cleared everywhere else


def test_row_reduce_matches_the_quadratic_reference():
    # The fully reduced basis of a span is unique, so both give the same list.
    rng = random.Random(17)
    for _ in range(500):
        width, density = rng.randrange(1, 80), rng.random()
        rows = [
            sum(1 << b for b in range(width) if rng.random() < density)
            for _ in range(rng.randrange(0, 40))
        ]
        assert gf2.row_reduce(rows) == reference_row_reduce(rows), rows


@settings(max_examples=200)
@given(mask_lists)
def test_rank_equals_log2_span(rows):
    assert 1 << len(gf2.row_reduce(rows)) == len(brute_span(rows))


@settings(max_examples=200)
@given(mask_lists, masks)
def test_reduction_against_the_reduced_basis_decides_membership(rows, probe):
    # Clearing each pivot in turn leaves 0 exactly on the span, as _lex_least relies on.
    residue = probe
    for row in gf2.row_reduce(rows):
        residue ^= (residue >> gf2.low_bit(row) & 1) * row
    assert (residue == 0) == (probe in brute_span(rows))


@settings(max_examples=200)
@given(mask_lists)
def test_kernel_vectors_annihilate(gens):
    kernel = gf2.kernel_basis(gens)
    for combo in kernel:
        acc = 0
        for j in range(len(gens)):
            if combo >> j & 1:
                acc ^= gens[j]
        assert acc == 0


@settings(max_examples=200)
@given(mask_lists)
def test_rank_nullity(gens):
    assert len(gf2.row_reduce(gens)) + len(gf2.kernel_basis(gens)) == len(gens)


@settings(max_examples=100)
@given(st.lists(masks, min_size=0, max_size=6))
def test_span_iter_enumerates_exactly_the_span(rows):
    basis = gf2.row_reduce(rows)
    seen = list(span_iter(basis))
    assert len(seen) == 1 << len(basis)
    assert set(seen) == brute_span(rows)


def test_span_iter_gray_order_single_flip():
    basis = [0b001, 0b010, 0b100]
    seen = list(span_iter(basis))
    for a, b in zip(seen, seen[1:]):
        assert (a ^ b).bit_count() == 1


@settings(max_examples=200)
@given(mask_lists, masks, masks)
def test_syndrome_columns_label_cosets(rows, x, y):
    basis = gf2.row_reduce(rows)
    columns = gf2.syndrome_columns(basis, 12)

    def syndrome(v):
        acc = 0
        for j in range(12):
            if v >> j & 1:
                acc ^= columns[j]
        return acc

    width = 12 - len(basis)
    assert all(c < 1 << width for c in columns)
    assert len(gf2.row_reduce(columns)) == width  # every syndrome of that width occurs
    assert syndrome(0) == 0
    assert (syndrome(x) == syndrome(y)) == ((x ^ y) in brute_span(rows))
