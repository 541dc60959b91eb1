"""Kernels and index spaces.

A :class:`Kernel` is the unit both backends emit: a statement body executed
once per point of an :class:`IndexSpace`.  Following the paper's CUDA
backend, *one kernel corresponds to one WITH-loop generator* (SaC route) or
*one elementary task* (ArrayOL route).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from math import prod

import numpy as np

from repro.errors import IRError
from repro.ir.stmt import BodyFacts, Stmt, body_facts

__all__ = ["IndexSpace", "ArrayParam", "ScalarParam", "Kernel"]

#: the instance-dict key under which :func:`memo_hash` keeps a hash
_HASH = "_hash"


def memo_hash(value) -> int:
    """The hash ``@dataclass(frozen=True)`` gives ``value`` — of its
    compared fields — computed once and kept in the instance ``__dict__``.

    A kernel tree is deep and keys memos (:func:`repro.analysis.regions.
    kernel_walk`) on every lookup, so recomputing its hash each time
    costs more than the lookup.  The memo lies outside
    ``dataclasses.fields``, as :func:`repro.runtime.cache.canonical`'s
    does: ``==``, ``repr``, ``canonical`` and ``replace`` never see it,
    and a replaced value hashes its own fields.
    """
    memo = value.__dict__
    h = memo.get(_HASH)
    if h is None:
        h = memo[_HASH] = hash(tuple(
            getattr(value, f.name)
            for f in fields(value)
            if (f.compare if f.hash is None else f.hash)
        ))
    return h


@dataclass(frozen=True)
class IndexSpace:
    """A dense rectangular grid of logical index values.

    Dimension ``d`` enumerates ``lower[d], lower[d]+step[d], ...`` strictly
    below ``upper[d]``.  This mirrors a SaC generator ``(lower <= iv < upper
    step step)`` with width 1, and an ArrayOL repetition space when ``lower``
    is zero and ``step`` one.
    """

    lower: tuple[int, ...]
    upper: tuple[int, ...]
    step: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        lower = tuple(int(x) for x in self.lower)
        upper = tuple(int(x) for x in self.upper)
        step = tuple(int(x) for x in (self.step or (1,) * len(lower)))
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "step", step)
        if not (len(lower) == len(upper) == len(step)):
            raise IRError(
                f"IndexSpace rank mismatch: lower={lower} upper={upper} step={step}"
            )
        if not lower:
            raise IRError("IndexSpace must have rank >= 1")
        for d, (lo, hi, st) in enumerate(zip(lower, upper, step)):
            if st <= 0:
                raise IRError(f"IndexSpace step must be positive (dim {d}: {st})")
            if hi < lo:
                raise IRError(f"IndexSpace has negative extent (dim {d}: [{lo},{hi}))")

    @property
    def rank(self) -> int:
        return len(self.lower)

    @property
    def extent(self) -> tuple[int, ...]:
        """Number of points per dimension."""
        return tuple(
            max(0, -(-(hi - lo) // st))
            for lo, hi, st in zip(self.lower, self.upper, self.step)
        )

    @property
    def size(self) -> int:
        """Total number of points (work-items launched)."""
        return prod(self.extent)

    def is_empty(self) -> bool:
        return self.size == 0

    def index_values(self) -> list[np.ndarray]:
        """Per-dimension logical index values as open grids.

        Returns ``rank`` int64 arrays; array ``d`` has extent 1 on every
        axis but ``d``, where it enumerates ``iv[d]``.  They broadcast to
        :attr:`extent`, so element ``[p]`` of the broadcast array ``d`` is
        the value of ``iv[d]`` at grid point ``p``, and index arithmetic
        costs one axis's values instead of the whole grid.
        """
        axes = [
            np.arange(lo, hi, st, dtype=np.int64)
            for lo, hi, st in zip(self.lower, self.upper, self.step)
        ]
        return list(np.meshgrid(*axes, indexing="ij", sparse=True))

    def contains(self, point) -> bool:
        """Whether an integer point is enumerated by this space."""
        pt = tuple(int(x) for x in point)
        if len(pt) != self.rank:
            return False
        return all(
            lo <= v < hi and (v - lo) % st == 0
            for v, lo, hi, st in zip(pt, self.lower, self.upper, self.step)
        )


@dataclass(frozen=True)
class ArrayParam:
    """A device-array parameter of a kernel."""

    name: str
    shape: tuple[int, ...]
    dtype: str = "int32"
    intent: str = "in"  # "in" | "out" | "inout"

    def __post_init__(self) -> None:
        object.__setattr__(self, "shape", tuple(int(x) for x in self.shape))
        if self.intent not in ("in", "out", "inout"):
            raise IRError(f"ArrayParam intent must be in/out/inout, got {self.intent!r}")
        if any(s <= 0 for s in self.shape):
            raise IRError(f"ArrayParam {self.name!r} has non-positive shape {self.shape}")

    @property
    def size(self) -> int:
        return prod(self.shape)

    @property
    def nbytes(self) -> int:
        return self.size * np.dtype(self.dtype).itemsize


@dataclass(frozen=True)
class ScalarParam:
    """A scalar parameter of a kernel."""

    name: str
    dtype: str = "int32"


@dataclass(frozen=True)
class Kernel:
    """A GPU kernel: a statement body over an index space.

    Attributes
    ----------
    name:
        Kernel symbol name (also used in emitted CUDA/OpenCL source).
    space:
        The launch index space; one work-item per point.
    arrays:
        Device array parameters, in signature order.
    scalars:
        Scalar parameters, in signature order.
    body:
        Statements executed per work-item.
    provenance:
        Human-readable origin (e.g. ``"with-loop generator 2 of hfilter"``).
    """

    name: str
    space: IndexSpace
    arrays: tuple[ArrayParam, ...]
    scalars: tuple[ScalarParam, ...] = ()
    body: tuple[Stmt, ...] = ()
    provenance: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "arrays", tuple(self.arrays))
        object.__setattr__(self, "scalars", tuple(self.scalars))
        object.__setattr__(self, "body", tuple(self.body))
        names = [a.name for a in self.arrays] + [s.name for s in self.scalars]
        if len(set(names)) != len(names):
            raise IRError(f"kernel {self.name!r} has duplicate parameter names: {names}")

    def __hash__(self) -> int:
        return memo_hash(self)

    # -- lookups -----------------------------------------------------------

    def array(self, name: str) -> ArrayParam:
        for a in self.arrays:
            if a.name == name:
                return a
        raise IRError(f"kernel {self.name!r} has no array parameter {name!r}")

    @property
    def input_arrays(self) -> tuple[ArrayParam, ...]:
        return tuple(a for a in self.arrays if a.intent in ("in", "inout"))

    @property
    def output_arrays(self) -> tuple[ArrayParam, ...]:
        return tuple(a for a in self.arrays if a.intent in ("out", "inout"))

    # -- static summary ------------------------------------------------------

    @cached_property
    def facts(self) -> BodyFacts:
        """:func:`~repro.ir.stmt.body_facts` of the body, walked on first
        read and kept in the instance ``__dict__``, as :func:`memo_hash`
        keeps the hash: ``==``, ``hash``, ``repr``, ``canonical`` and
        ``replace`` never see it."""
        return body_facts(self.body)
