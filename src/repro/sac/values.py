"""Runtime value model of the SaC interpreter.

SaC values are multidimensional arrays; scalars are rank-0.  We represent
arrays as NumPy arrays (``int32`` / ``float32`` / ``float64`` / ``bool``)
and scalars as Python ``int`` / ``float`` / ``bool``.  An ``int`` is a C
``int``: array arithmetic wraps in int32, and :func:`to_python` cuts a
scalar result to 32 bits, so every intermediate wraps as the compiled
kernels' do.  Selection follows SaC's vector-indexing rule: an index
*vector* of length ``k`` selects along the first ``k`` axes, yielding a
scalar when ``k`` equals the rank and a sub-array otherwise.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SacRuntimeError
from repro.ir.expr import c_int

__all__ = [
    "Value",
    "BASE_DTYPES",
    "is_scalar",
    "shape_of",
    "as_index_vector",
    "select",
    "with_cell_set",
    "to_python",
]

Value = int | float | bool | np.ndarray

#: SaC base type -> NumPy dtype
BASE_DTYPES = {
    "int": np.dtype("int32"),
    "float": np.dtype("float32"),
    "double": np.dtype("float64"),
    "bool": np.dtype("bool"),
}


def is_scalar(v: Value) -> bool:
    return not isinstance(v, np.ndarray)


def shape_of(v: Value) -> tuple[int, ...]:
    return v.shape if isinstance(v, np.ndarray) else ()


def to_python(v: Value) -> Value:
    """Collapse NumPy scalars (rank-0 arrays) to Python scalars; an
    integer is cut to its C ``int`` value."""
    if isinstance(v, np.ndarray) and v.ndim == 0:
        v = v[()]
    if isinstance(v, np.generic):
        if isinstance(v, np.bool_):
            return bool(v)
        if np.issubdtype(type(v), np.integer):
            return int(c_int(v))
        return float(v)
    return v


def as_index_vector(v: Value, what: str = "index") -> tuple[int, ...]:
    """Coerce a value to an integer index vector (scalars become length-1)."""
    if is_scalar(v):
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise SacRuntimeError(f"{what} must be integral, got {v!r}")
        return (int(v),)
    arr = np.asarray(v)
    if arr.ndim != 1:
        raise SacRuntimeError(f"{what} must be a vector, got rank {arr.ndim}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise SacRuntimeError(f"{what} must be integral, got dtype {arr.dtype}")
    return tuple(int(x) for x in arr)


def select(array: Value, index: Value) -> Value:
    """SaC selection ``array[index]``.

    A scalar index selects along the first axis; an index vector of length
    ``k <= rank`` selects along the first ``k`` axes.
    """
    if is_scalar(array):
        raise SacRuntimeError("cannot index a scalar value")
    idx = _scalar_or_vector_index(index)
    if len(idx) > array.ndim:
        raise SacRuntimeError(
            f"index of length {len(idx)} applied to array of rank {array.ndim}"
        )
    for d, (i, ext) in enumerate(zip(idx, array.shape)):
        if not (0 <= i < ext):
            raise SacRuntimeError(
                f"index {list(idx)} out of bounds for shape {array.shape} (axis {d})"
            )
    out = array[idx]
    return to_python(out) if np.ndim(out) == 0 else out


def with_cell_set(array: np.ndarray, index: Value, value: Value) -> np.ndarray:
    """Functional single-cell update: a copy of ``array`` with
    ``array[index] = value`` (the expansion of SaC's indexed assignment)."""
    if is_scalar(array):
        raise SacRuntimeError("cannot index-assign into a scalar")
    idx = _scalar_or_vector_index(index)
    if len(idx) > array.ndim:
        raise SacRuntimeError(
            f"index of length {len(idx)} applied to array of rank {array.ndim}"
        )
    for d, (i, ext) in enumerate(zip(idx, array.shape)):
        if not (0 <= i < ext):
            raise SacRuntimeError(
                f"index {list(idx)} out of bounds for shape {array.shape} (axis {d})"
            )
    out = array.copy()
    cell = out[idx]
    if np.ndim(cell) == 0:
        if isinstance(value, np.ndarray) and value.ndim > 0:
            raise SacRuntimeError("cannot assign an array into a scalar cell")
    else:
        if shape_of(value) != cell.shape:
            raise SacRuntimeError(
                f"cell assignment shape mismatch: cell {cell.shape}, "
                f"value {shape_of(value)}"
            )
    # C integer semantics: stores wrap to the array's element width
    out[idx] = np.asarray(value).astype(out.dtype, casting="unsafe")
    return out


def _scalar_or_vector_index(index: Value) -> tuple[int, ...]:
    if is_scalar(index):
        if isinstance(index, bool) or not isinstance(index, (int, np.integer)):
            raise SacRuntimeError(f"array index must be integral, got {index!r}")
        return (int(index),)
    return as_index_vector(index)
