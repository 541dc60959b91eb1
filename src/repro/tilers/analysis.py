"""Static analysis of tilers: GILR validity.

ArrayOL requires of the tilers used in a model that output tilers write
each array element at most once (injectivity) and, for exact production,
exactly once (coverage).
"""

from __future__ import annotations

import numpy as np

from repro.tilers.ops import flat_element_indices
from repro.tilers.tiler import Tiler

__all__ = [
    "multiplicity",
    "coverage_counts",
    "is_injective",
    "covers_array",
    "is_exact",
    "duplicate_element_count",
    "uncovered_element_count",
]


def multiplicity(tiler: Tiler) -> np.ndarray:
    """How often the tiling addresses each array element (flat, row-major)."""
    size = int(np.prod(tiler.array_shape))
    return np.bincount(flat_element_indices(tiler).reshape(-1), minlength=size)


def coverage_counts(tiler: Tiler) -> tuple[int, int]:
    """``(duplicate_element_count, uncovered_element_count)`` in one pass."""
    mult = multiplicity(tiler)
    covered = int(np.count_nonzero(mult))
    return int(mult.sum()) - covered, mult.size - covered


def duplicate_element_count(tiler: Tiler) -> int:
    """Number of (rep, pat) points that collide with an earlier one."""
    return coverage_counts(tiler)[0]


def uncovered_element_count(tiler: Tiler) -> int:
    """Number of array elements never addressed by the tiling."""
    return coverage_counts(tiler)[1]


def is_injective(tiler: Tiler) -> bool:
    """True when no array element is addressed twice (safe output tiler)."""
    return duplicate_element_count(tiler) == 0


def covers_array(tiler: Tiler) -> bool:
    """True when every array element is addressed at least once."""
    return uncovered_element_count(tiler) == 0


def is_exact(tiler: Tiler) -> bool:
    """True when the tiling is a partition: injective and covering.

    This is the ArrayOL validity condition for a tiler that *produces* an
    array (every element written exactly once, honouring single assignment).
    """
    return coverage_counts(tiler) == (0, 0)
