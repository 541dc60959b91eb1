"""Execution of device programs on the simulated GPU.

The executor walks a :class:`~repro.ir.program.DeviceProgram` and, per op:

* performs the **functional** effect (allocations in the
  :class:`~repro.gpu.memory.MemoryManager`, data copies, vectorised kernel
  evaluation, host compute steps), and
* charges the **modelled** duration from the :class:`~repro.gpu.cost.CostModel`.

:meth:`GPUExecutor.price` is the one place an op is priced: a run sums
its prices, :func:`~repro.runtime.schedule.build_schedule` places them on
the engine timeline, and the downscaler lab adds them up run by run into
the paper's Tables I/II.  Per-kernel cost inputs (access-stride probe +
unique-byte measurement) are cached by kernel value, so pricing the same
program again only pays for them once.  ``functional=False`` runs a
program for its timing alone, skipping data movement and kernel
evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import DeviceError
from repro.gpu.cost import CostModel, KernelCostBreakdown
from repro.gpu.device import GTX480, DeviceSpec
from repro.gpu.memory import MemoryManager
from repro.ir.evalvec import evaluate_kernel
from repro.ir.fused import FusedKernel, evaluate_fused
from repro.ir.kernel import Kernel
from repro.ir.metrics import AccessProfile, probe_access_profile, unique_access_bytes
from repro.ir.program import (
    AllocDevice,
    DeviceProgram,
    DeviceToHost,
    FreeDevice,
    HostCompute,
    HostToDevice,
    LaunchKernel,
    region_slices,
    transfer_nbytes,
)
from repro.obs.span import current_tracer

__all__ = ["RunResult", "GPUExecutor"]


@dataclass(frozen=True)
class RunResult:
    """Outcome of one program execution."""

    program: str
    total_us: float
    outputs: dict[str, np.ndarray] = field(compare=False)
    kernel_us: float = 0.0
    h2d_us: float = 0.0
    d2h_us: float = 0.0
    host_us: float = 0.0

    @property
    def gpu_us(self) -> float:
        """Device-side time (kernels + transfers), the tables' denominator."""
        return self.kernel_us + self.h2d_us + self.d2h_us


@dataclass(frozen=True)
class _KernelCostInputs:
    profile: AccessProfile
    unique_read_bytes: int
    unique_write_bytes: int
    itemsize: int


#: process-wide cache of per-kernel probe results — kernels are immutable
#: value objects, so measurements are shared across executors
_GLOBAL_KERNEL_CACHE: dict[Kernel, "_KernelCostInputs"] = {}


class GPUExecutor:
    """Runs device programs functionally while accruing modelled time."""

    def __init__(self, cost_model: CostModel, device: DeviceSpec = GTX480):
        self.cost = cost_model
        self.device = device
        self.memory = MemoryManager(device)
        self._kernel_cache: dict[Kernel, _KernelCostInputs] = _GLOBAL_KERNEL_CACHE

    # -- kernel cost inputs -----------------------------------------------------

    def kernel_cost_inputs(self, kernel: Kernel) -> _KernelCostInputs:
        cached = self._kernel_cache.get(kernel)
        if cached is None:
            profile = probe_access_profile(kernel)
            ur, uw = unique_access_bytes(kernel)
            itemsizes = {np.dtype(a.dtype).itemsize for a in kernel.arrays} or {4}
            cached = _KernelCostInputs(
                profile=profile,
                unique_read_bytes=ur,
                unique_write_bytes=uw,
                itemsize=max(itemsizes),
            )
            self._kernel_cache[kernel] = cached
        return cached

    def kernel_breakdown(self, kernel: Kernel) -> KernelCostBreakdown:
        """Cost decomposition of one launch (for reports/ablations).

        A :class:`~repro.ir.fused.FusedKernel` pays one launch overhead
        for the whole group while its stages' issue and memory phases run
        back to back — never slower than the unfused launches, and the
        intermediate's DRAM traffic is conservatively retained.
        """
        if isinstance(kernel, FusedKernel):
            parts = [self.kernel_breakdown(st.kernel) for st in kernel.stages]
            return KernelCostBreakdown(
                launch_overhead_us=max(p.launch_overhead_us for p in parts),
                issue_time_us=sum(p.issue_time_us for p in parts),
                memory_time_us=sum(p.memory_time_us for p in parts),
            )
        ci = self.kernel_cost_inputs(kernel)
        return self.cost.kernel_cost(
            kernel, ci.profile, ci.unique_read_bytes, ci.unique_write_bytes, ci.itemsize
        )

    def price(self, program: DeviceProgram) -> tuple[float, ...]:
        """Modelled µs of each op of one run of ``program``, in op order.

        Allocations and frees cost nothing.  A transfer moves its region's
        bytes when partial and the whole buffer otherwise; one into a
        buffer no earlier op allocated raises :class:`DeviceError`.
        """
        allocs: dict[str, AllocDevice] = {}
        prices = []
        for op in program.ops:
            if isinstance(op, AllocDevice):
                allocs[op.buffer] = op
                prices.append(0.0)
            elif isinstance(op, FreeDevice):
                prices.append(0.0)
            elif isinstance(op, (HostToDevice, DeviceToHost)):
                upload = isinstance(op, HostToDevice)
                alloc = allocs.get(op.device)
                if alloc is None:
                    raise DeviceError(
                        f"{'H2D into' if upload else 'D2H from'} unallocated "
                        f"buffer {op.device!r} of {program.name!r} (known "
                        f"buffers: {sorted(allocs) or 'none'})"
                    )
                time_us = self.cost.h2d_time_us if upload else self.cost.d2h_time_us
                prices.append(time_us(transfer_nbytes(op, alloc)))
            elif isinstance(op, LaunchKernel):
                prices.append(self.kernel_breakdown(op.kernel).total_us)
            elif isinstance(op, HostCompute):
                prices.append(self.cost.host_work_time_us(op.work))
            else:
                raise DeviceError(f"executor cannot handle op {op!r}")
        return tuple(prices)

    # -- execution ----------------------------------------------------------------

    def run(
        self,
        program: DeviceProgram,
        host_env: dict[str, np.ndarray] | None = None,
        functional: bool = True,
    ) -> RunResult:
        """Execute ``program`` against ``host_env``.

        ``host_env`` must bind every name in ``program.host_inputs``; the
        result's ``outputs`` contains every name in ``program.host_outputs``.
        With ``functional=False`` only time is accrued (allocations are
        still tracked so leaks/OOM remain visible).  The run is recorded
        as one ``execute`` span on the ambient tracer.
        """
        with current_tracer().span(
            f"execute:{program.name}", category="execute", functional=functional
        ) as span:
            result = self._run(program, host_env, functional)
            span.set(total_us=result.total_us)
            return result

    def _run(
        self,
        program: DeviceProgram,
        host_env: dict[str, np.ndarray] | None,
        functional: bool,
    ) -> RunResult:
        env: dict[str, np.ndarray] = dict(host_env or {})
        if program.pooled != self.memory.pooling:
            self.memory.set_pooling(program.pooled)
        if functional:
            missing = [n for n in program.host_inputs if n not in env]
            if missing:
                raise DeviceError(
                    f"program {program.name!r}: missing host inputs {missing}"
                )
        prices = self.price(program)
        kernel_us = h2d_us = d2h_us = host_us = 0.0

        for op, dur in zip(program.ops, prices):
            if isinstance(op, AllocDevice):
                self.memory.alloc(op.buffer, op.shape, op.dtype)
            elif isinstance(op, FreeDevice):
                self.memory.free(op.buffer)
            elif isinstance(op, HostToDevice):
                buf = self.memory.get(op.device)
                if functional:
                    src = env[op.host]
                    if src.shape != buf.shape:
                        raise DeviceError(
                            f"H2D {op.host}->{op.device}: host shape {src.shape} "
                            f"!= device shape {buf.shape}"
                        )
                    if op.region is None:
                        buf.data[...] = src
                    else:
                        sl = region_slices(op.region)
                        buf.data[sl] = src[sl]
                h2d_us += dur
            elif isinstance(op, DeviceToHost):
                buf = self.memory.get(op.device)
                if functional:
                    if op.region is None:
                        env[op.host] = buf.data.copy()
                    else:
                        # untouched host elements keep their prior values
                        prior = env.get(op.host)
                        if prior is not None and prior.shape == buf.shape:
                            out = np.array(prior, dtype=buf.data.dtype)
                        else:
                            out = np.zeros_like(buf.data)
                        sl = region_slices(op.region)
                        out[sl] = buf.data[sl]
                        env[op.host] = out
                d2h_us += dur
            elif isinstance(op, LaunchKernel):
                arrays = {}
                for param_name, buffer in op.array_args:
                    arrays[param_name] = self.memory.get(buffer).data
                if functional:
                    if isinstance(op.kernel, FusedKernel):
                        evaluate_fused(op.kernel, arrays, dict(op.scalar_args))
                    else:
                        evaluate_kernel(op.kernel, arrays, dict(op.scalar_args))
                kernel_us += dur
            elif isinstance(op, HostCompute):
                if functional:
                    op.fn(env)
                host_us += dur

        outputs = {}
        if functional:
            missing_out = [n for n in program.host_outputs if n not in env]
            if missing_out:
                raise DeviceError(
                    f"program {program.name!r} finished without producing "
                    f"outputs {missing_out}"
                )
            outputs = {n: env[n] for n in program.host_outputs}
        return RunResult(
            program=program.name,
            total_us=kernel_us + h2d_us + d2h_us + host_us,
            outputs=outputs,
            kernel_us=kernel_us,
            h2d_us=h2d_us,
            d2h_us=d2h_us,
            host_us=host_us,
        )
