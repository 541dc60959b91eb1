"""Paving coarsening and the footprint-equivalence oracle."""

import numpy as np
import pytest

from repro.errors import TilerError
from repro.tilers import (
    Tiler,
    coarsen_paving,
    flat_element_indices,
    paving_equivalent,
)


def _row_tiler(cols: int = 32, pattern: int = 8) -> Tiler:
    """A 1-D row scan: one packet of ``pattern`` columns per step."""
    return Tiler(
        origin=(0, 0),
        fitting=((0,), (1,)),
        paving=((1, 0), (0, pattern)),
        array_shape=(4, cols),
        pattern_shape=(pattern,),
        repetition_shape=(4, cols // pattern),
        name="row",
    )


def test_coarsen_factor_one_is_identity():
    t = _row_tiler()
    assert coarsen_paving(t, 1, 1) is t


def test_coarsen_scales_paving_and_divides_repetition():
    t = _row_tiler(cols=32, pattern=8)
    c = coarsen_paving(t, 1, 2)
    assert c.paving == ((1, 0), (0, 16))
    assert c.repetition_shape == (4, 2)
    assert c.pattern_shape == (16,)
    assert c.fitting == t.fitting


def test_coarsen_preserves_element_set():
    t = _row_tiler(cols=32, pattern=8)
    for factor in (2, 4):
        c = coarsen_paving(t, 1, factor)
        assert np.array_equal(
            np.unique(flat_element_indices(t)),
            np.unique(flat_element_indices(c)),
        )
        assert paving_equivalent(t, c)


def test_coarsen_rejects_non_divisible_extent():
    t = _row_tiler(cols=24, pattern=8)  # 3 packets
    with pytest.raises(TilerError):
        coarsen_paving(t, 1, 2)


def test_coarsen_rejects_unmatched_paving_column():
    # paving advances along rows, but the pattern only spans columns:
    # no fitting column to extend
    t = Tiler(
        origin=(0, 0),
        fitting=((0,), (1,)),
        paving=((1, 0), (0, 8)),
        array_shape=(4, 32),
        pattern_shape=(8,),
        repetition_shape=(4, 4),
    )
    with pytest.raises(TilerError):
        coarsen_paving(t, 0, 2)


def test_equivalence_rejects_different_footprints():
    a = _row_tiler(cols=32, pattern=8)
    # skips half the columns: a genuinely different element set
    b = Tiler(
        origin=(0, 0),
        fitting=((0,), (1,)),
        paving=((1, 0), (0, 16)),
        array_shape=(4, 32),
        pattern_shape=(8,),
        repetition_shape=(4, 2),
        name="sparse",
    )
    assert not paving_equivalent(a, b)


def test_equivalence_rejects_shape_mismatch():
    assert not paving_equivalent(_row_tiler(cols=32), _row_tiler(cols=64))


def test_equivalence_handles_wrapping_tilers():
    """Wrap widens the access box to inexact; the dense/separable path
    must still prove a legal coarsening equivalent (the downscaler's
    input tilers are exactly this shape)."""
    wrap = Tiler(
        origin=(0, 0),
        fitting=((0,), (1,)),
        paving=((1, 0), (0, 8)),
        array_shape=(4, 32),
        pattern_shape=(12,),  # overhangs the packet: wraps at the edge
        repetition_shape=(4, 4),
        name="wrap",
    )
    c = coarsen_paving(wrap, 1, 2)
    assert paving_equivalent(wrap, c)


def test_equivalence_rejects_a_diagonal_against_the_full_array():
    """One paving column moving both array dimensions visits the diagonal
    (4 elements), not the 4x4 product its per-dimension ranges span."""
    diag = Tiler(
        origin=(0, 0),
        fitting=((), ()),
        paving=((1,), (1,)),
        array_shape=(4, 4),
        pattern_shape=(),
        repetition_shape=(4,),
        name="diag",
    )
    full = Tiler(
        origin=(0, 0),
        fitting=((), ()),
        paving=((1, 0), (0, 1)),
        array_shape=(4, 4),
        pattern_shape=(),
        repetition_shape=(4, 4),
        name="full",
    )
    assert not paving_equivalent(diag, full)
    assert not paving_equivalent(full, diag)
