"""Vectorised gather/scatter over tilers.

These are the reference implementations of the two tiler roles the paper
uses (Section VI):

* an **input tiler** *gathers* a pattern per repetition point into an
  intermediate array of shape ``repetition_shape + pattern_shape``;
* an **output tiler** *scatters* such an intermediate array back into a
  result array.

Both are implemented with a single fancy-indexing operation over the dense
element enumeration, i.e. no Python-level loops.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TilerError
from repro.tilers.tiler import Tiler

__all__ = ["gather", "scatter", "scatter_into_zeros", "flat_element_indices"]


def flat_element_indices(tiler: Tiler) -> np.ndarray:
    """Row-major flat array index for every (rep, pat) point.

    Shape ``repetition_shape + pattern_shape``.  The index is summed one
    array dimension at a time, ``stride_d * ((ref_d + off_d) mod n_d)``,
    over the tiler's cached references and pattern offsets, so the
    rep x pat x rank coordinates of :meth:`Tiler.all_elements` are never
    built.
    """
    refs, offs = tiler.broadcast_parts()
    flat = np.zeros(tiler.repetition_shape + tiler.pattern_shape, dtype=np.int64)
    stride = 1
    for d in range(tiler.array_rank - 1, -1, -1):
        term = refs[..., d] + offs[..., d]
        np.remainder(term, tiler.array_shape[d], out=term)
        term *= stride
        flat += term
        stride *= tiler.array_shape[d]
    return flat


def gather(tiler: Tiler, array: np.ndarray) -> np.ndarray:
    """Gather patterns from ``array``.

    Returns an array of shape ``repetition_shape + pattern_shape`` whose
    ``[r..., i...]`` element is ``array[e(r, i)]``.
    """
    arr = np.asarray(array)
    if arr.shape != tiler.array_shape:
        raise TilerError(
            f"gather: array shape {arr.shape} does not match tiler array shape "
            f"{tiler.array_shape}"
        )
    flat = flat_element_indices(tiler)
    return arr.reshape(-1)[flat]


def scatter(tiler: Tiler, values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Scatter ``values`` through the tiler into ``out`` (modified in place).

    ``values`` must have shape ``repetition_shape + pattern_shape``.  When
    several (rep, pat) points address the same array element the one with the
    highest row-major (rep, pat) order wins, matching the sequential
    for-loop-nest semantics of the paper's generic output tiler (Figure 6).
    """
    vals = np.asarray(values)
    expected = tiler.repetition_shape + tiler.pattern_shape
    if vals.shape != expected:
        raise TilerError(
            f"scatter: values shape {vals.shape} does not match "
            f"repetition+pattern shape {expected}"
        )
    if out.shape != tiler.array_shape:
        raise TilerError(
            f"scatter: output shape {out.shape} does not match tiler array shape "
            f"{tiler.array_shape}"
        )
    flat = flat_element_indices(tiler).reshape(-1)
    out.reshape(-1)[flat] = vals.reshape(-1)
    return out


def scatter_into_zeros(tiler: Tiler, values: np.ndarray, dtype=None) -> np.ndarray:
    """Scatter into a fresh zero-initialised array of the tiler's array shape."""
    vals = np.asarray(values)
    out = np.zeros(tiler.array_shape, dtype=dtype if dtype is not None else vals.dtype)
    return scatter(tiler, vals, out)
