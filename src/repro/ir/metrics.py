"""Access metrics of kernels, consumed by the GPU cost model.

No kernel runs to measure them: :func:`~repro.ir.evalvec.kernel_accesses`
under the interpreter without memory
(:class:`~repro.ir.evalvec.IndexEvaluator`) visits every read and store in
program order, once per ``For`` iteration, and gives each index component
its values over an index space.

Coalescing on Fermi-class GPUs is determined by the address stride between
*adjacent threads of a warp*.  :func:`probe_access_profile` walks two
adjacent points along the fastest-varying index dimension; an access's
stride is its flat-address delta between them, whatever its index
arithmetic.

:func:`unique_access_bytes` estimates the DRAM traffic of a launch: the
number of *distinct* elements the whole grid reads and writes (overlapping
windows within one kernel hit in cache and are not re-fetched, but the same
data re-read by a *different* kernel is — the effect the paper blames for
the SaC slowdown in Section VIII-C).  Every access is marked on a boolean
occupancy grid per (array, read or store), so the count never sorts or
hashes the address stream.

A *no-value* access has an index component with no value without memory
or scalar arguments (a gather through a lookup table, an offset by a scalar
parameter; see :class:`~repro.ir.evalvec.IndexEvaluator`).  It marks its
whole array, as the region oracle's fallback box does, and records no
stride.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import IRError
from repro.ir.evalvec import IndexEvaluator, check_component, check_rank, kernel_accesses
from repro.ir.kernel import IndexSpace, Kernel

__all__ = ["AccessProfile", "probe_access_profile", "unique_access_bytes"]


@dataclass(frozen=True)
class AccessProfile:
    """Per-launch memory access summary.

    Attributes
    ----------
    read_strides:
        One entry per dynamic read performed by a work-item: the address
        stride (in elements) between adjacent threads along the
        fastest-varying grid dimension.
    write_strides:
        Likewise for stores.
    reads_per_item / writes_per_item / flops_per_item:
        Static per-work-item operation counts.
    items:
        Grid size.
    """

    read_strides: tuple[int, ...]
    write_strides: tuple[int, ...]
    reads_per_item: int
    writes_per_item: int
    flops_per_item: int
    items: int


def _probe_space(space: IndexSpace) -> IndexSpace:
    """The first two points along the last dimension (one point when that
    dimension has extent 1)."""
    upper = [lo + 1 for lo in space.lower]
    if space.extent[-1] >= 2:
        upper[-1] += space.step[-1]
    return IndexSpace(space.lower, tuple(upper), space.step)


def _index_values(kernel: Kernel, space: IndexSpace):
    """Yield ``(kind, array, index)`` for every access of ``kernel`` over
    ``space``, in program order and once per ``For`` iteration: ``index``
    holds each component's values, checked in bounds as a launch checks
    them, or is ``None`` for a no-value access."""
    ev = IndexEvaluator(space)
    for _site, kind, array, index in kernel_accesses(kernel.body, ev):
        shape = kernel.array(array).shape
        check_rank(index, shape, array, kind)
        try:
            values = [ev.eval(e) for e in index]
        except IRError:
            yield kind, array, None
            continue
        yield kind, array, tuple(
            check_component(v, d, shape[d], array, kind) for d, v in enumerate(values)
        )


def probe_access_profile(kernel: Kernel) -> AccessProfile:
    """The access strides of ``kernel`` between its first two points along
    the last dimension."""
    strides: dict[str, list[int]] = {"read": [], "store": []}
    for kind, array, idx in _index_values(kernel, _probe_space(kernel.space)):
        if idx is None:
            continue
        flat = np.ravel_multi_index(idx, kernel.array(array).shape).reshape(-1)
        # one address for both points (or one point): a uniform access
        strides[kind].append(int(flat[1] - flat[0]) if flat.size == 2 else 0)
    return AccessProfile(
        read_strides=tuple(strides["read"]),
        write_strides=tuple(strides["store"]),
        reads_per_item=kernel.facts.reads,
        writes_per_item=kernel.facts.writes,
        flops_per_item=kernel.facts.flops,
        items=kernel.space.size,
    )


def unique_access_bytes(kernel: Kernel) -> tuple[int, int]:
    """(unique bytes read, unique bytes written) over the whole launch.

    Marks each accessed element on a per-(array, read or store) occupancy
    grid, a no-value access its whole array, and counts the marked cells.
    Intended for cost modelling; cached by the executor per kernel
    structure.
    """
    grids: dict[tuple[str, str], np.ndarray] = {}
    if not kernel.space.is_empty():
        for kind, array, idx in _index_values(kernel, kernel.space):
            grid = grids.get((kind, array))
            if grid is None:
                grid = grids[kind, array] = np.zeros(kernel.array(array).shape, dtype=bool)
            grid[... if idx is None else idx] = True
    totals = {"read": 0, "store": 0}
    for (kind, array), grid in grids.items():
        totals[kind] += int(np.count_nonzero(grid)) * np.dtype(kernel.array(array).dtype).itemsize
    return totals["read"], totals["store"]
