"""Static validation of kernels and device programs.

The backends run these checks on everything they emit; the test suite also
uses them as invariants for property-based testing.
"""

from __future__ import annotations

import numpy as np

from repro.errors import IRError
from repro.ir.kernel import Kernel
from repro.ir.program import (
    AllocDevice,
    DeviceProgram,
    DeviceToHost,
    FreeDevice,
    HostCompute,
    HostToDevice,
    LaunchKernel,
)

__all__ = ["validate_kernel", "validate_program"]


def validate_kernel(kernel: Kernel) -> None:
    """Raise :class:`IRError` when ``kernel`` is structurally invalid.

    The checks read :attr:`Kernel.facts <repro.ir.kernel.Kernel.facts>`,
    so an instance's body is walked once however often it is validated.
    """
    facts = kernel.facts
    if facts.unbound_locals:
        raise IRError(
            f"kernel {kernel.name!r}: locals used before binding: "
            f"{sorted(facts.unbound_locals)}"
        )

    declared_arrays = {a.name: a for a in kernel.arrays}
    unknown = {array for _, array, _ in facts.accesses} - declared_arrays.keys()
    if unknown:
        raise IRError(
            f"kernel {kernel.name!r}: undeclared arrays referenced: {sorted(unknown)}"
        )
    unknown_scalars = facts.scalars - {s.name for s in kernel.scalars}
    if unknown_scalars:
        raise IRError(
            f"kernel {kernel.name!r}: undeclared scalars referenced: "
            f"{sorted(unknown_scalars)}"
        )

    max_dim = facts.highest_thread_dim
    if max_dim >= kernel.space.rank:
        raise IRError(
            f"kernel {kernel.name!r}: ThreadIdx({max_dim}) exceeds index space "
            f"rank {kernel.space.rank}"
        )

    for kind, array, rank in facts.accesses:
        param = declared_arrays[array]
        if kind == "store" and param.intent == "in":
            raise IRError(f"kernel {kernel.name!r}: store to read-only array {array!r}")
        if rank != len(param.shape):
            access = "store to" if kind == "store" else "read of"
            raise IRError(
                f"kernel {kernel.name!r}: {access} {array!r} with index rank "
                f"{rank}, array rank {len(param.shape)}"
            )


def validate_program(program: DeviceProgram) -> None:
    """Raise :class:`IRError` when ``program`` is inconsistent.

    Checks performed:

    * every device buffer is allocated before use and not used after free;
    * no double allocation / double free;
    * kernel launches bind parameters to live buffers of matching
      shape/dtype, and never alias one buffer to two parameters when any
      of them is written;
    * transfers reference live device buffers, and a host array moved
      through several transfers keeps a consistent shape/dtype (matching
      each device buffer's ``AllocDevice`` declaration);
    * host arrays consumed by transfers or host steps are program inputs or
      were produced earlier;
    * every declared host output is actually produced.
    """
    live: dict[str, AllocDevice] = {}
    freed: set[str] = set()
    host_defined: set[str] = set(program.host_inputs)
    # host array -> (shape, dtype) inferred from the first transfer touching
    # it; host steps may reshape arrays, so their writes clear the record
    host_geometry: dict[str, tuple[tuple[int, ...], np.dtype]] = {}

    def check_host_geometry(host: str, alloc: AllocDevice, what: str) -> None:
        geom = (tuple(alloc.shape), np.dtype(alloc.dtype))
        known = host_geometry.setdefault(host, geom)
        if known[0] != geom[0]:
            raise IRError(
                f"{what}: host array {host!r} has shape {known[0]}, device "
                f"buffer declares {geom[0]}"
            )
        if known[1] != geom[1]:
            raise IRError(
                f"{what}: host array {host!r} has dtype {known[1]}, device "
                f"buffer declares {geom[1]}"
            )

    def require_live(buffer: str, what: str) -> AllocDevice:
        if buffer in live:
            return live[buffer]
        if buffer in freed:
            raise IRError(f"{what}: device buffer {buffer!r} used after free")
        raise IRError(f"{what}: device buffer {buffer!r} is not allocated")

    def check_region(region, alloc: AllocDevice, what: str) -> None:
        if region is None:
            return
        if len(region) != len(alloc.shape):
            raise IRError(
                f"{what}: region has rank {len(region)}, buffer "
                f"{alloc.buffer!r} has rank {len(alloc.shape)}"
            )
        for d, ((start, stop, _step), n) in enumerate(zip(region, alloc.shape)):
            if stop > n:
                raise IRError(
                    f"{what}: region dim {d} reaches {stop}, buffer "
                    f"{alloc.buffer!r} extends only to {n}"
                )

    for op in program.ops:
        if isinstance(op, AllocDevice):
            if op.buffer in live:
                raise IRError(f"double allocation of device buffer {op.buffer!r}")
            freed.discard(op.buffer)
            live[op.buffer] = op
        elif isinstance(op, FreeDevice):
            if op.buffer not in live:
                raise IRError(f"free of unallocated device buffer {op.buffer!r}")
            del live[op.buffer]
            freed.add(op.buffer)
        elif isinstance(op, HostToDevice):
            what = f"H2D {op.host}->{op.device}"
            alloc = require_live(op.device, what)
            if op.host not in host_defined:
                raise IRError(
                    f"H2D transfer reads undefined host array {op.host!r} "
                    f"(not an input and not produced earlier)"
                )
            check_host_geometry(op.host, alloc, what)
            check_region(op.region, alloc, what)
        elif isinstance(op, DeviceToHost):
            what = f"D2H {op.device}->{op.host}"
            alloc = require_live(op.device, what)
            check_region(op.region, alloc, what)
            # the download (re)defines the host array with the buffer's
            # geometry, so earlier records are replaced, not compared
            host_geometry[op.host] = (tuple(alloc.shape), np.dtype(alloc.dtype))
            host_defined.add(op.host)
        elif isinstance(op, LaunchKernel):
            from repro.ir.fused import FusedKernel, validate_fused_kernel

            if isinstance(op.kernel, FusedKernel):
                validate_fused_kernel(op.kernel)
            else:
                validate_kernel(op.kernel)
            bound_to: dict[str, str] = {}
            for param_name, buffer in op.array_args:
                other = bound_to.get(buffer)
                if other is not None:
                    intents = {
                        op.kernel.array(other).intent,
                        op.kernel.array(param_name).intent,
                    }
                    if intents != {"in"}:
                        raise IRError(
                            f"launch {op.kernel.name!r}: buffer {buffer!r} bound "
                            f"to parameters {other!r} and {param_name!r} with "
                            f"write intent (aliasing)"
                        )
                bound_to[buffer] = param_name
            for param_name, buffer in op.array_args:
                alloc = require_live(buffer, f"launch {op.kernel.name!r}")
                param = op.kernel.array(param_name)
                if tuple(alloc.shape) != tuple(param.shape):
                    raise IRError(
                        f"launch {op.kernel.name!r}: buffer {buffer!r} has shape "
                        f"{alloc.shape}, parameter {param_name!r} declares {param.shape}"
                    )
                if np.dtype(alloc.dtype) != np.dtype(param.dtype):
                    raise IRError(
                        f"launch {op.kernel.name!r}: buffer {buffer!r} has dtype "
                        f"{alloc.dtype}, parameter {param_name!r} declares {param.dtype}"
                    )
            scalar_names = {s.name for s in op.kernel.scalars}
            bound = {name for name, _ in op.scalar_args}
            if scalar_names - bound:
                raise IRError(
                    f"launch {op.kernel.name!r}: unbound scalars "
                    f"{sorted(scalar_names - bound)}"
                )
        elif isinstance(op, HostCompute):
            for name in op.reads:
                if name not in host_defined:
                    raise IRError(
                        f"host step {op.name!r} reads undefined host array {name!r}"
                    )
            host_defined.update(op.writes)
            for name in op.writes:
                host_geometry.pop(name, None)  # host code may reshape
        else:
            raise IRError(f"unknown op {op!r}")

    missing_outputs = set(program.host_outputs) - host_defined
    if missing_outputs:
        raise IRError(
            f"program {program.name!r} never produces declared outputs "
            f"{sorted(missing_outputs)}"
        )
