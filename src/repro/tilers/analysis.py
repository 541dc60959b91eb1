"""Static analysis of tilers.

Two families of checks:

* **GILR validity** — properties ArrayOL requires of tilers used in a model:
  output tilers must write each array element at most once (injectivity) and,
  for exact production, exactly once (coverage).
* **Access geometry** — linearised strides of the tiling, consumed by the
  GPU simulator's coalescing model: when consecutive work-items (repetition
  points along the fastest-varying dimension) read addresses a fixed stride
  apart, memory transactions coalesce in inverse proportion to the stride.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    "TilerAccessGeometry",
    "access_geometry",
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


@dataclass(frozen=True)
class TilerAccessGeometry:
    """Linearised address strides of a tiling.

    Attributes
    ----------
    repetition_strides:
        Address delta (in elements, row-major) when the repetition index
        advances by one along each repetition dimension: ``P^T @ strides``.
    pattern_strides:
        Address delta when the pattern index advances by one along each
        pattern dimension: ``F^T @ strides``.
    innermost_repetition_stride:
        Stride along the fastest-varying repetition dimension — the quantity
        the coalescing model keys on (consecutive GPU threads enumerate the
        repetition space along its last axis).
    contiguous_pattern:
        Whether one pattern occupies consecutive addresses (unit stride along
        the fastest-varying pattern dimension and pattern rank 1).
    """

    repetition_strides: tuple[int, ...]
    pattern_strides: tuple[int, ...]
    innermost_repetition_stride: int
    contiguous_pattern: bool


def _row_major_strides(shape: tuple[int, ...]) -> np.ndarray:
    strides = np.ones(len(shape), dtype=np.int64)
    for d in range(len(shape) - 2, -1, -1):
        strides[d] = strides[d + 1] * shape[d + 1]
    return strides


def access_geometry(tiler: Tiler) -> TilerAccessGeometry:
    """Compute the linearised strides of a tiler (ignoring the modulo).

    The modulo only affects wrap-around tiles; the bulk of the address
    stream has the affine geometry computed here, which is what determines
    DRAM transaction coalescing.
    """
    strides = _row_major_strides(tiler.array_shape)
    rep = tiler.paving_mat.T @ strides
    pat = tiler.fitting_mat.T @ strides
    inner = int(rep[-1]) if rep.size else 0
    contiguous = tiler.pattern_rank == 1 and pat.size == 1 and abs(int(pat[0])) == 1
    return TilerAccessGeometry(
        repetition_strides=tuple(int(x) for x in rep),
        pattern_strides=tuple(int(x) for x in pat),
        innermost_repetition_stride=inner,
        contiguous_pattern=contiguous,
    )
