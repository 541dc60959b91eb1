"""Unit tests for tiler static analysis (GILR validity)."""

import pytest

from repro.tilers import (
    Tiler,
    covers_array,
    duplicate_element_count,
    is_exact,
    is_injective,
    uncovered_element_count,
)


def exact_block_tiler():
    return Tiler(
        origin=(0, 0),
        fitting=((1, 0), (0, 1)),
        paving=((2, 0), (0, 2)),
        array_shape=(6, 8),
        pattern_shape=(2, 2),
        repetition_shape=(3, 4),
    )


def overlapping_tiler():
    return Tiler(
        origin=(0, 0),
        fitting=((0,), (1,)),
        paving=((1, 0), (0, 8)),
        array_shape=(4, 16),
        pattern_shape=(12,),
        repetition_shape=(4, 2),
    )


def sparse_tiler():
    # only every other column packet
    return Tiler(
        origin=(0, 0),
        fitting=((0,), (1,)),
        paving=((1, 0), (0, 8)),
        array_shape=(4, 16),
        pattern_shape=(4,),
        repetition_shape=(4, 2),
    )


class TestValidity:
    def test_exact_tiling(self):
        t = exact_block_tiler()
        assert is_injective(t)
        assert covers_array(t)
        assert is_exact(t)
        assert duplicate_element_count(t) == 0
        assert uncovered_element_count(t) == 0

    def test_overlapping_tiling_not_injective(self):
        t = overlapping_tiler()
        assert not is_injective(t)
        assert covers_array(t)
        assert not is_exact(t)
        # each row: 2 tiles x 12 elements = 24 addressed, 16 unique -> 8 dups
        assert duplicate_element_count(t) == 4 * 8

    def test_sparse_tiling_not_covering(self):
        t = sparse_tiler()
        assert is_injective(t)
        assert not covers_array(t)
        assert not is_exact(t)
        assert uncovered_element_count(t) == 4 * 8


@pytest.mark.parametrize(
    "pattern,step,exact",
    [(8, 8, True), (12, 8, False), (4, 8, False)],
)
def test_exactness_matrix(pattern, step, exact):
    t = Tiler(
        origin=(0, 0),
        fitting=((0,), (1,)),
        paving=((1, 0), (0, step)),
        array_shape=(4, 16),
        pattern_shape=(pattern,),
        repetition_shape=(4, 16 // step),
    )
    assert is_exact(t) is exact
