"""Simulated GPU substrate: device model, memory, cost model, executor.

The paper measured a real GTX480; this package substitutes a calibrated
performance simulator (see DESIGN.md §2) that executes kernel IR
functionally while charging modelled time, so the structural comparisons of
the evaluation — kernel counts, transfer shares, route orderings — are
reproduced without GPU hardware.
"""

from repro.gpu.calibration import GTX480_CALIBRATED, UNCALIBRATED
from repro.gpu.coalescing import access_efficiency, mean_inflation, transactions_per_warp
from repro.gpu.cost import CostModel, CostParams, KernelCostBreakdown
from repro.gpu.device import GTX480, I7_930, DeviceSpec, HostSpec
from repro.gpu.executor import GPUExecutor, RunResult
from repro.gpu.memory import DeviceBuffer, MemoryManager

__all__ = [
    "DeviceSpec", "HostSpec", "GTX480", "I7_930",
    "CostModel", "CostParams", "KernelCostBreakdown",
    "GTX480_CALIBRATED", "UNCALIBRATED",
    "transactions_per_warp", "access_efficiency", "mean_inflation",
    "MemoryManager", "DeviceBuffer",
    "GPUExecutor", "RunResult",
]
