"""ArrayOL tiler specifications.

A *tiler* (Section IV of the paper) describes how a multidimensional array is
tiled by patterns.  It is defined by three pieces of data:

* the **origin vector** ``o`` — the reference element of the first pattern,
* the **fitting matrix** ``F`` — how a pattern is filled with array elements,
* the **paving matrix** ``P`` — how the array is covered by patterns.

For a repetition index ``r`` (a point of the *repetition space*) and a
pattern index ``i`` (a point of the *pattern space*), the addressed array
element is::

    ref(r) = (o + P @ r) mod shape(array)
    e(r,i) = (ref(r) + F @ i) mod shape(array)

All addressing is modular, so patterns wrap around array edges (toroidal
semantics) — this is the property that makes WITH-loop folding split edge
generators off the bulk in the SaC route.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.errors import TilerError

__all__ = ["Tiler"]


def _as_int_vector(name: str, value) -> np.ndarray:
    arr = np.asarray(value, dtype=np.int64)
    if arr.ndim != 1:
        raise TilerError(f"{name} must be a 1-D integer vector, got shape {arr.shape}")
    return arr


def _as_int_matrix(name: str, value) -> np.ndarray:
    arr = np.asarray(value, dtype=np.int64)
    if arr.ndim != 2:
        raise TilerError(f"{name} must be a 2-D integer matrix, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class Tiler:
    """An ArrayOL tiler binding an array to a (repetition, pattern) space.

    Parameters
    ----------
    origin:
        Origin vector ``o``; length equals the array rank.
    fitting:
        Fitting matrix ``F`` of shape ``(array_rank, pattern_rank)``.
    paving:
        Paving matrix ``P`` of shape ``(array_rank, repetition_rank)``.
    array_shape:
        Shape of the tiled array.
    pattern_shape:
        Shape of one pattern (the sub-array exchanged with the task).
    repetition_shape:
        Shape of the repetition space (how many patterns are taken).
    """

    origin: tuple[int, ...]
    fitting: tuple[tuple[int, ...], ...]
    paving: tuple[tuple[int, ...], ...]
    array_shape: tuple[int, ...]
    pattern_shape: tuple[int, ...]
    repetition_shape: tuple[int, ...]
    name: str = field(default="tiler", compare=False)

    def __post_init__(self) -> None:
        o = _as_int_vector("origin", self.origin)
        f = _as_int_matrix("fitting", self.fitting)
        p = _as_int_matrix("paving", self.paving)
        ashape = _as_int_vector("array_shape", self.array_shape)
        pshape = _as_int_vector("pattern_shape", self.pattern_shape)
        rshape = _as_int_vector("repetition_shape", self.repetition_shape)
        rank = ashape.size
        if np.any(ashape <= 0):
            raise TilerError(f"array_shape must be positive, got {self.array_shape}")
        if np.any(pshape <= 0):
            raise TilerError(f"pattern_shape must be positive, got {self.pattern_shape}")
        if np.any(rshape <= 0):
            raise TilerError(
                f"repetition_shape must be positive, got {self.repetition_shape}"
            )
        if o.size != rank:
            raise TilerError(
                f"origin has length {o.size} but the array has rank {rank}"
            )
        if f.shape != (rank, pshape.size):
            raise TilerError(
                f"fitting must have shape ({rank}, {pshape.size}), got {f.shape}"
            )
        if p.shape != (rank, rshape.size):
            raise TilerError(
                f"paving must have shape ({rank}, {rshape.size}), got {p.shape}"
            )
        # Canonicalise to plain tuples so the dataclass hashes/compares by value.
        object.__setattr__(self, "origin", tuple(int(x) for x in o))
        object.__setattr__(self, "fitting", tuple(tuple(int(x) for x in row) for row in f))
        object.__setattr__(self, "paving", tuple(tuple(int(x) for x in row) for row in p))
        object.__setattr__(self, "array_shape", tuple(int(x) for x in ashape))
        object.__setattr__(self, "pattern_shape", tuple(int(x) for x in pshape))
        object.__setattr__(self, "repetition_shape", tuple(int(x) for x in rshape))

    # -- basic geometry ----------------------------------------------------

    @property
    def array_rank(self) -> int:
        return len(self.array_shape)

    @property
    def pattern_rank(self) -> int:
        return len(self.pattern_shape)

    @property
    def repetition_rank(self) -> int:
        return len(self.repetition_shape)

    @cached_property
    def origin_vec(self) -> np.ndarray:
        return np.asarray(self.origin, dtype=np.int64)

    @cached_property
    def fitting_mat(self) -> np.ndarray:
        return np.asarray(self.fitting, dtype=np.int64)

    @cached_property
    def paving_mat(self) -> np.ndarray:
        return np.asarray(self.paving, dtype=np.int64)

    @cached_property
    def array_shape_vec(self) -> np.ndarray:
        return np.asarray(self.array_shape, dtype=np.int64)

    @property
    def pattern_size(self) -> int:
        return int(np.prod(self.pattern_shape))

    @property
    def repetition_size(self) -> int:
        return int(np.prod(self.repetition_shape))

    # -- addressing --------------------------------------------------------

    def reference(self, rep_index) -> np.ndarray:
        """Array coordinates of the reference element of pattern ``rep_index``."""
        r = _as_int_vector("rep_index", rep_index)
        if r.size != self.repetition_rank:
            raise TilerError(
                f"repetition index {tuple(r)} has rank {r.size}, "
                f"expected {self.repetition_rank}"
            )
        if np.any(r < 0) or np.any(r >= self.repetition_shape):
            raise TilerError(
                f"repetition index {tuple(r)} outside repetition space "
                f"{self.repetition_shape}"
            )
        return (self.origin_vec + self.paving_mat @ r) % self.array_shape_vec

    def element(self, rep_index, pat_index) -> np.ndarray:
        """Array coordinates of element ``pat_index`` of pattern ``rep_index``."""
        i = _as_int_vector("pat_index", pat_index)
        if i.size != self.pattern_rank:
            raise TilerError(
                f"pattern index {tuple(i)} has rank {i.size}, "
                f"expected {self.pattern_rank}"
            )
        if np.any(i < 0) or np.any(i >= self.pattern_shape):
            raise TilerError(
                f"pattern index {tuple(i)} outside pattern space {self.pattern_shape}"
            )
        return (self.reference(rep_index) + self.fitting_mat @ i) % self.array_shape_vec

    @cached_property
    def all_references(self) -> np.ndarray:
        """Reference coordinates for the whole repetition space.

        Shape ``repetition_shape + (array_rank,)``.
        """
        reps = np.indices(self.repetition_shape, dtype=np.int64)
        reps = np.moveaxis(reps, 0, -1)  # rep_shape + (rep_rank,)
        refs = self.origin_vec + reps @ self.paving_mat.T
        return refs % self.array_shape_vec

    @cached_property
    def pattern_offsets(self) -> np.ndarray:
        """Offsets ``F @ i`` for every pattern index, *before* the modulo.

        Shape ``pattern_shape + (array_rank,)``.
        """
        pats = np.indices(self.pattern_shape, dtype=np.int64)
        pats = np.moveaxis(pats, 0, -1)
        return pats @ self.fitting_mat.T

    def broadcast_parts(self) -> tuple[np.ndarray, np.ndarray]:
        """:attr:`all_references` and :attr:`pattern_offsets` reshaped to
        broadcast against each other over ``repetition_shape +
        pattern_shape`` (the coordinate axis last)."""
        rank = (self.array_rank,)
        return (
            self.all_references.reshape(
                self.repetition_shape + (1,) * self.pattern_rank + rank
            ),
            self.pattern_offsets.reshape(
                (1,) * self.repetition_rank + self.pattern_shape + rank
            ),
        )

    def all_elements(self) -> np.ndarray:
        """Array coordinates for every (rep, pat) point.

        Shape ``repetition_shape + pattern_shape + (array_rank,)``: the
        dense enumeration the validators and visualisations read.
        """
        refs, offs = self.broadcast_parts()
        return (refs + offs) % self.array_shape_vec

    # -- wrap analysis -------------------------------------------------------

    def wrapping_repetitions(self) -> np.ndarray:
        """Boolean mask over the repetition space marking patterns that wrap.

        A pattern *wraps* when at least one of its elements leaves the array
        bounds before the modulo is applied, i.e. the modular addressing is
        actually exercised.  Shape ``repetition_shape``.
        """
        refs, offs = self.broadcast_parts()
        raw = refs + offs
        out_of_bounds = (raw < 0) | (raw >= self.array_shape_vec)
        axes = tuple(
            range(self.repetition_rank, self.repetition_rank + self.pattern_rank + 1)
        )
        return out_of_bounds.any(axis=axes)

    def wraps_anywhere(self) -> bool:
        """True when any pattern of the tiling exercises modular addressing."""
        return bool(self.wrapping_repetitions().any())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Tiler({self.name!r}, array={self.array_shape}, "
            f"pattern={self.pattern_shape}, repetition={self.repetition_shape}, "
            f"o={list(self.origin)}, F={[list(r) for r in self.fitting]}, "
            f"P={[list(r) for r in self.paving]})"
        )
