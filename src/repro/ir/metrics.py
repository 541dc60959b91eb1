"""Static/dynamic access metrics of kernels, consumed by the GPU cost model.

Coalescing on Fermi-class GPUs is determined by the address stride between
*adjacent threads of a warp*.  We measure it by **probing**: the kernel body
is evaluated over a tiny sub-space (two adjacent points along the
fastest-varying index dimension) against zero-filled buffers, while an
observer records the flat address of every read and store.  The address
delta between the two probe points is the per-access stride.  This handles
arbitrary index arithmetic — affine or not — without a symbolic engine.

:func:`unique_access_bytes` estimates the DRAM traffic of a launch: the
number of *distinct* elements the whole grid reads and writes (overlapping
windows within one kernel hit in cache and are not re-fetched, but the same
data re-read by a *different* kernel is — the effect the paper blames for
the SaC slowdown in Section VIII-C).  Every access is marked on a boolean
occupancy grid per (array, read or store), so the count never sorts or
hashes the address stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ir.evalvec import evaluate_kernel
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
    """A sub-space of two adjacent points along the last dimension.

    Falls back to a single point when the last dimension has extent 1.
    """
    lower = list(space.lower)
    step = list(space.step)
    upper = [lo + 1 for lo in lower]
    last = space.rank - 1
    if space.extent[last] >= 2:
        # enumerate exactly the first two points: lower, lower+step
        upper[last] = lower[last] + step[last] + 1
    return IndexSpace(tuple(lower), tuple(upper), tuple(step))


def probe_access_profile(kernel: Kernel) -> AccessProfile:
    """Measure the access strides of ``kernel`` by 2-point probing."""
    shapes = {a.name: a.shape for a in kernel.arrays}
    buffers = {a.name: np.zeros(a.shape, dtype=a.dtype) for a in kernel.arrays}
    scalars = {s.name: 0 for s in kernel.scalars}
    space = _probe_space(kernel.space)
    two_points = space.size == 2

    read_strides: list[int] = []
    write_strides: list[int] = []

    def observer(kind: str, array: str, idx: tuple[np.ndarray, ...]) -> None:
        flat = np.ravel_multi_index(idx, shapes[array]).reshape(-1)
        if two_points and flat.size == 2:
            delta = int(flat[1] - flat[0])
        else:
            delta = 0  # uniform access (same address for all threads)
        (read_strides if kind == "read" else write_strides).append(delta)

    evaluate_kernel(kernel, buffers, scalars, space=space, observer=observer)
    return AccessProfile(
        read_strides=tuple(read_strides),
        write_strides=tuple(write_strides),
        reads_per_item=kernel.reads_per_item(),
        writes_per_item=kernel.writes_per_item(),
        flops_per_item=kernel.flops_per_item(),
        items=kernel.space.size,
    )


def unique_access_bytes(kernel: Kernel) -> tuple[int, int]:
    """(unique bytes read, unique bytes written) over the whole launch.

    Evaluates the kernel over its full index space with an observer that
    marks each accessed element on a per-(array, read or store) occupancy
    grid and counts the marked cells.  Intended for cost modelling; cached
    by the executor per kernel structure.
    """
    buffers = {a.name: np.zeros(a.shape, dtype=a.dtype) for a in kernel.arrays}
    scalars = {s.name: 0 for s in kernel.scalars}
    grids: dict[tuple[str, str], np.ndarray] = {}

    def observer(kind: str, array: str, idx: tuple[np.ndarray, ...]) -> None:
        grid = grids.get((kind, array))
        if grid is None:
            grid = grids[kind, array] = np.zeros(buffers[array].shape, dtype=bool)
        grid[idx] = True

    evaluate_kernel(kernel, buffers, scalars, observer=observer)
    totals = {"read": 0, "store": 0}
    for (kind, array), grid in grids.items():
        totals[kind] += int(np.count_nonzero(grid)) * buffers[array].itemsize
    return totals["read"], totals["store"]
