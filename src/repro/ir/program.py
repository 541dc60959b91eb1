"""Device programs: the unit both backends hand to an executor.

A :class:`DeviceProgram` is a straight-line sequence of operations —
allocations, host↔device transfers, kernel launches and host compute steps —
exactly the artefact the paper's compilers produce per frame:

* SaC → CUDA inserts ``host2device``/``device2host`` around CUDA-WITH-loops
  and one launch per generator (paper Section VII);
* Gaspard2 → OpenCL produces one launch per elementary task plus the
  corresponding async transfers (paper Section VIII-B).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.errors import IRError
from repro.ir.kernel import Kernel

__all__ = [
    "Op",
    "AllocDevice",
    "FreeDevice",
    "HostToDevice",
    "DeviceToHost",
    "LaunchKernel",
    "HostWork",
    "HostCompute",
    "DeviceProgram",
    "region_count",
    "region_slices",
    "transfer_nbytes",
]


def _check_region(region, what: str):
    """Normalise a transfer region to ``((start, stop, step), ...)``.

    A region is a per-dimension slice triple selecting the elements the
    transfer actually moves; ``None`` means the whole buffer.  Bounds
    against the buffer shape are checked by ``validate_program`` (the op
    itself does not know the geometry).
    """
    if region is None:
        return None
    out = []
    for dim in region:
        start, stop, step = (int(x) for x in dim)
        if step < 1:
            raise IRError(f"{what}: region step must be >= 1, got {step}")
        if start < 0 or stop <= start:
            raise IRError(
                f"{what}: region dim must satisfy 0 <= start < stop, "
                f"got ({start}, {stop}, {step})"
            )
        out.append((start, stop, step))
    return tuple(out)


def region_slices(region) -> tuple[slice, ...]:
    """The numpy basic-slice view a transfer region selects."""
    return tuple(slice(start, stop, step) for start, stop, step in region)


def region_count(region) -> int:
    """Number of elements a transfer region moves."""
    n = 1
    for start, stop, step in region:
        n *= (stop - start + step - 1) // step
    return n


def transfer_nbytes(op: HostToDevice | DeviceToHost, alloc: AllocDevice) -> int:
    """Bytes ``op`` moves: its region's when partial, the whole buffer
    ``alloc`` otherwise.  Pricing, the transfer lint, the optimiser's
    byte counts and fleet migrations all read transfer sizes from here."""
    if op.region is None:
        return alloc.nbytes
    return region_count(op.region) * np.dtype(alloc.dtype).itemsize


class Op:
    """Base class of device program operations."""

    __slots__ = ()


@dataclass(frozen=True)
class AllocDevice(Op):
    """Allocate a device buffer."""

    buffer: str
    shape: tuple[int, ...]
    dtype: str = "int32"

    def __post_init__(self) -> None:
        object.__setattr__(self, "shape", tuple(int(x) for x in self.shape))
        if any(s <= 0 for s in self.shape):
            raise IRError(f"AllocDevice {self.buffer!r}: non-positive shape {self.shape}")

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape)) * np.dtype(self.dtype).itemsize


@dataclass(frozen=True)
class FreeDevice(Op):
    """Release a device buffer."""

    buffer: str


@dataclass(frozen=True)
class HostToDevice(Op):
    """Copy a host array into a device buffer (``memcpyHtoDasync`` when
    ``is_async``).

    ``region`` restricts the copy to a strided sub-box of the buffer, one
    ``(start, stop, step)`` slice triple per dimension (``None`` = whole
    buffer) — the static model of ``cudaMemcpy2D``-style tile uploads.
    """

    host: str
    device: str
    is_async: bool = True
    region: tuple[tuple[int, int, int], ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "region", _check_region(self.region, f"H2D into {self.device!r}")
        )


@dataclass(frozen=True)
class DeviceToHost(Op):
    """Copy a device buffer into a host array (``memcpyDtoHasync`` when
    ``is_async``).

    ``region`` restricts the copy to a strided sub-box (see
    :class:`HostToDevice`); the untouched host elements keep their prior
    values.
    """

    device: str
    host: str
    is_async: bool = True
    region: tuple[tuple[int, int, int], ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "region", _check_region(self.region, f"D2H from {self.device!r}")
        )


@dataclass(frozen=True)
class LaunchKernel(Op):
    """Launch ``kernel`` with array parameters bound to device buffers.

    ``array_args`` maps each kernel array-parameter name to a device buffer
    name; ``scalar_args`` binds scalar parameters to values.
    """

    kernel: Kernel
    array_args: tuple[tuple[str, str], ...]
    scalar_args: tuple[tuple[str, int | float], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "array_args", tuple(tuple(p) for p in self.array_args))
        object.__setattr__(self, "scalar_args", tuple(tuple(p) for p in self.scalar_args))
        bound = {p for p, _ in self.array_args}
        declared = {a.name for a in self.kernel.arrays}
        missing = declared - bound
        extra = bound - declared
        if missing:
            raise IRError(
                f"launch of {self.kernel.name!r}: unbound array parameters {sorted(missing)}"
            )
        if extra:
            raise IRError(
                f"launch of {self.kernel.name!r}: unknown array parameters {sorted(extra)}"
            )

    def buffer_for(self, param: str) -> str:
        for p, b in self.array_args:
            if p == param:
                return b
        raise IRError(f"launch of {self.kernel.name!r}: no binding for {param!r}")


@dataclass(frozen=True)
class HostWork:
    """Static cost summary of a host compute step (for the CPU cost model)."""

    items: int
    reads_per_item: int = 1
    writes_per_item: int = 1
    flops_per_item: int = 1

    def __post_init__(self) -> None:
        if self.items < 0:
            raise IRError("HostWork items must be non-negative")


@dataclass(frozen=True)
class HostCompute(Op):
    """A sequential host-side computation over host arrays.

    The paper's *generic* SaC variant executes the output tiler as a
    for-loop nest on the host (Section VIII-A); this op models such steps.
    ``fn`` receives the host environment (a ``dict[str, np.ndarray]``) and
    mutates it; ``work`` is the static summary the CPU cost model charges.
    """

    name: str
    fn: Callable[[dict], None] = field(compare=False)
    reads: tuple[str, ...] = ()
    writes: tuple[str, ...] = ()
    work: HostWork = HostWork(items=0)


@dataclass(frozen=True)
class DeviceProgram:
    """A compiled program: ops plus its host-side interface.

    Attributes
    ----------
    name:
        Program name (used in profiles and reports).
    ops:
        The operation sequence.
    host_inputs:
        Host array names the caller must provide.
    host_outputs:
        Host array names the program produces.
    source_files:
        Mapping of emitted source artefacts (e.g. ``{"kernels.cu": "..."}``)
        so callers can inspect the generated CUDA/OpenCL code.
    pooled:
        Request pooled device allocation: executors serve ``AllocDevice``
        from a free-list of retained blocks so repeated frames reuse slots
        (set by the :mod:`repro.opt` liveness pass).
    """

    name: str
    ops: tuple[Op, ...]
    host_inputs: tuple[str, ...] = ()
    host_outputs: tuple[str, ...] = ()
    source_files: tuple[tuple[str, str], ...] = field(default=(), compare=False)
    pooled: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "ops", tuple(self.ops))
        object.__setattr__(self, "host_inputs", tuple(self.host_inputs))
        object.__setattr__(self, "host_outputs", tuple(self.host_outputs))
        for op in self.ops:
            if not isinstance(op, Op):
                raise IRError(f"DeviceProgram op must be an Op, got {op!r}")

    # -- structural queries used by tests and the report layer --------------

    @property
    def kernels(self) -> tuple[Kernel, ...]:
        return tuple(op.kernel for op in self.ops if isinstance(op, LaunchKernel))

    @property
    def launch_count(self) -> int:
        return sum(1 for op in self.ops if isinstance(op, LaunchKernel))

    @property
    def h2d_count(self) -> int:
        return sum(1 for op in self.ops if isinstance(op, HostToDevice))

    @property
    def d2h_count(self) -> int:
        return sum(1 for op in self.ops if isinstance(op, DeviceToHost))

    @property
    def host_compute_count(self) -> int:
        return sum(1 for op in self.ops if isinstance(op, HostCompute))

    def source(self, filename: str) -> str:
        for name, text in self.source_files:
            if name == filename:
                return text
        raise IRError(f"program {self.name!r} has no source file {filename!r}")
