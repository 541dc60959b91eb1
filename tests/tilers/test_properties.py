"""Property-based tests for the tiler algebra (hypothesis)."""

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tilers import (
    Tiler,
    coarsen_paving,
    coverage_counts,
    covers_array,
    duplicate_element_count,
    flat_element_indices,
    gather,
    is_exact,
    is_injective,
    paving_equivalent,
    scatter_into_zeros,
    uncovered_element_count,
)
from repro.tilers.analysis import multiplicity


@st.composite
def row_packet_tilers(draw):
    """Random 2-D arrays tiled by 1-D row packets (the downscaler family)."""
    rows = draw(st.integers(min_value=1, max_value=6))
    packets = draw(st.integers(min_value=1, max_value=4))
    step = draw(st.integers(min_value=1, max_value=6))
    pattern = draw(st.integers(min_value=1, max_value=10))
    cols = packets * step
    origin = (draw(st.integers(min_value=0, max_value=rows - 1)),
              draw(st.integers(min_value=0, max_value=cols - 1)))
    return Tiler(
        origin=origin,
        fitting=((0,), (1,)),
        paving=((1, 0), (0, step)),
        array_shape=(rows, cols),
        pattern_shape=(pattern,),
        repetition_shape=(rows, packets),
    )


@st.composite
def block_tilers(draw):
    """Random exact 2-D block tilings."""
    br = draw(st.integers(min_value=1, max_value=4))
    bc = draw(st.integers(min_value=1, max_value=4))
    nr = draw(st.integers(min_value=1, max_value=4))
    nc = draw(st.integers(min_value=1, max_value=4))
    return Tiler(
        origin=(0, 0),
        fitting=((1, 0), (0, 1)),
        paving=((br, 0), (0, bc)),
        array_shape=(br * nr, bc * nc),
        pattern_shape=(br, bc),
        repetition_shape=(nr, nc),
    )


@given(row_packet_tilers())
@settings(max_examples=60)
def test_elements_always_in_bounds(tiler):
    elems = tiler.all_elements()
    shape = np.asarray(tiler.array_shape)
    assert (elems >= 0).all()
    assert (elems < shape).all()


@given(row_packet_tilers())
@settings(max_examples=60)
def test_gather_agrees_with_pointwise_formula(tiler):
    rng = np.random.default_rng(0)
    arr = rng.integers(0, 100, size=tiler.array_shape)
    tiles = gather(tiler, arr)
    # spot-check the first and last repetition points against the formula
    for rep in [(0, 0), tuple(np.asarray(tiler.repetition_shape) - 1)]:
        for i in (0, tiler.pattern_shape[0] - 1):
            coord = tuple(tiler.element(rep, (i,)))
            assert tiles[rep + (i,)] == arr[coord]


@given(block_tilers())
@settings(max_examples=60)
def test_block_gather_scatter_roundtrip(tiler):
    rng = np.random.default_rng(1)
    arr = rng.integers(0, 1000, size=tiler.array_shape)
    assert duplicate_element_count(tiler) == 0
    recon = scatter_into_zeros(tiler, gather(tiler, arr))
    np.testing.assert_array_equal(recon, arr)


@given(row_packet_tilers())
@settings(max_examples=60)
def test_flat_indices_consistent_with_coordinates(tiler):
    flat = flat_element_indices(tiler)
    coords = tiler.all_elements()
    cols = tiler.array_shape[1]
    np.testing.assert_array_equal(flat, coords[..., 0] * cols + coords[..., 1])


@given(row_packet_tilers())
@settings(max_examples=60)
def test_wrap_mask_consistent_with_geometry(tiler):
    """A repetition wraps iff its raw (pre-modulo) footprint exits the array."""
    mask = tiler.wrapping_repetitions()
    pat = tiler.pattern_shape[0]
    _rows, cols = tiler.array_shape
    for rep0 in range(tiler.repetition_shape[0]):
        for rep1 in range(tiler.repetition_shape[1]):
            # references are reduced modulo the array shape before the
            # pattern offsets are added, so only the column reach matters
            # (the pattern of this family runs along columns only).
            ref_col = (tiler.origin[1] + tiler.paving[1][1] * rep1) % cols
            expected = ref_col + (pat - 1) >= cols
            assert bool(mask[rep0, rep1]) == expected, (rep0, rep1, tiler)


# -- footprint counting against a pointwise Counter reference ------------------------


def _element_counter(tiler: Tiler) -> Counter:
    """How often each array coordinate is addressed, from ``Tiler.element``."""
    return Counter(
        tuple(int(c) for c in tiler.element(rep, pat))
        for rep in np.ndindex(tiler.repetition_shape)
        for pat in np.ndindex(tiler.pattern_shape)
    )


@given(st.one_of(row_packet_tilers(), block_tilers()))
@settings(max_examples=80, deadline=None)
def test_footprint_predicates_match_counter(tiler):
    counts = _element_counter(tiler)
    size = int(np.prod(tiler.array_shape))
    dups = sum(counts.values()) - len(counts)
    uncovered = size - len(counts)
    mult = multiplicity(tiler).reshape(tiler.array_shape)
    assert {c: int(mult[c]) for c in np.ndindex(tiler.array_shape) if mult[c]} == counts
    assert coverage_counts(tiler) == (dups, uncovered)
    assert duplicate_element_count(tiler) == dups
    assert uncovered_element_count(tiler) == uncovered
    assert is_injective(tiler) == (dups == 0)
    assert covers_array(tiler) == (uncovered == 0)
    assert is_exact(tiler) == (dups == 0 and uncovered == 0)


@st.composite
def same_shape_tiler_pairs(draw):
    """A row-packet tiler with a legal coarsening or another tiler of its array.

    The alternatives cover every route of ``paving_equivalent``: exact
    boxes, separable wrapping footprints, and (diagonal fitting couples
    both dims) the dense occupancy comparison.
    """
    base = draw(row_packet_tilers())
    rows, cols = base.array_shape
    packets = base.repetition_shape[1]
    kind = draw(st.sampled_from(["coarsen", "row", "diagonal"]))
    if kind == "coarsen":
        factor = draw(st.sampled_from([f for f in range(1, packets + 1) if packets % f == 0]))
        return base, coarsen_paving(base, 1, factor)
    fitting = ((0,), (1,)) if kind == "row" else ((1,), (1,))
    alt = Tiler(
        origin=(draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))),
        fitting=fitting,
        paving=base.paving,
        array_shape=base.array_shape,
        pattern_shape=(draw(st.integers(1, 10)),),
        repetition_shape=base.repetition_shape,
    )
    return base, alt


@given(same_shape_tiler_pairs())
@settings(max_examples=80, deadline=None)
def test_paving_equivalent_matches_counter(pair):
    base, alt = pair
    same = set(_element_counter(base)) == set(_element_counter(alt))
    assert paving_equivalent(base, alt) == same
    assert paving_equivalent(alt, base) == same
