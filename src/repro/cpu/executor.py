"""Sequential host execution of compiled programs.

Runs a ``target="seq"`` :class:`~repro.ir.program.DeviceProgram` — the
SAC-Seq configurations of Figure 9.  All arrays live in one host namespace
(no transfers); WITH-loop "kernels" execute functionally with the
vectorised evaluator while being charged **sequential** cost (items x
per-item operations at the host's scalar rate), and host-compute steps run
under the reference interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import DeviceError
from repro.gpu.cost import CostModel
from repro.ir.evalvec import evaluate_kernel
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

__all__ = ["SeqRunResult", "CPUExecutor"]


@dataclass(frozen=True)
class SeqRunResult:
    """Outcome of one sequential program execution."""

    program: str
    total_us: float
    outputs: dict[str, np.ndarray] = field(compare=False)
    loop_us: float = 0.0
    host_us: float = 0.0


class CPUExecutor:
    """Runs sequential programs, charging the CPU cost model."""

    def __init__(self, cost_model: CostModel):
        self.cost = cost_model
        self._kernel_time_cache: dict[Kernel, float] = {}

    def kernel_time_us(self, kernel: Kernel) -> float:
        cached = self._kernel_time_cache.get(kernel)
        if cached is None:
            cached = self.cost.sequential_time_us(
                items=kernel.space.size,
                reads=kernel.facts.reads,
                writes=kernel.facts.writes,
                flops=kernel.facts.flops,
            )
            self._kernel_time_cache[kernel] = cached
        return cached

    def price(self, program: DeviceProgram) -> tuple[float, ...]:
        """Modelled µs of each op of one sequential run, in op order
        (allocations and frees cost nothing; transfers cannot run here)."""
        prices = []
        for op in program.ops:
            if isinstance(op, (AllocDevice, FreeDevice)):
                prices.append(0.0)
            elif isinstance(op, LaunchKernel):
                prices.append(self.kernel_time_us(op.kernel))
            elif isinstance(op, HostCompute):
                prices.append(self.cost.host_work_time_us(op.work))
            elif isinstance(op, (HostToDevice, DeviceToHost)):
                raise DeviceError(
                    f"sequential program contains a transfer op: {op!r}"
                )
            else:
                raise DeviceError(f"sequential executor cannot handle {op!r}")
        return tuple(prices)

    def run(
        self,
        program: DeviceProgram,
        host_env: dict[str, np.ndarray] | None = None,
        functional: bool = True,
    ) -> SeqRunResult:
        env: dict[str, np.ndarray] = dict(host_env or {})
        if functional:
            missing = [n for n in program.host_inputs if n not in env]
            if missing:
                raise DeviceError(
                    f"program {program.name!r}: missing host inputs {missing}"
                )
        prices = self.price(program)
        loop_us = host_us = 0.0
        for op, dur in zip(program.ops, prices):
            if isinstance(op, AllocDevice):
                if functional:
                    env[op.buffer] = np.zeros(op.shape, dtype=op.dtype)
            elif isinstance(op, FreeDevice):
                env.pop(op.buffer, None)
            elif isinstance(op, LaunchKernel):
                if functional:
                    arrays = {}
                    for param, buffer in op.array_args:
                        try:
                            arrays[param] = np.asarray(env[buffer])
                        except KeyError:
                            raise DeviceError(
                                f"sequential run: array {buffer!r} undefined"
                            ) from None
                    evaluate_kernel(op.kernel, arrays, dict(op.scalar_args))
                loop_us += dur
            elif isinstance(op, HostCompute):
                if functional:
                    op.fn(env)
                host_us += dur

        outputs = {}
        if functional:
            missing_out = [n for n in program.host_outputs if n not in env]
            if missing_out:
                raise DeviceError(
                    f"program {program.name!r} finished without outputs "
                    f"{missing_out}"
                )
            outputs = {n: np.asarray(env[n]) for n in program.host_outputs}
        return SeqRunResult(
            program=program.name,
            total_us=loop_us + host_us,
            outputs=outputs,
            loop_us=loop_us,
            host_us=host_us,
        )
