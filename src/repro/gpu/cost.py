"""Analytic cost model of the simulated GPU and host.

The model charges every device-program operation a duration:

* **transfers** — ``latency + bytes / bandwidth``, with separate effective
  H2D and D2H bandwidths (PCIe x16 Gen2 is asymmetric in practice; the
  paper's tables imply ~5.4 GB/s H2D and ~6.3 GB/s D2H);
* **kernel launches** — ``overhead + max(issue_time, memory_time)``:

  - *issue time* models the instruction pipeline: every work-item issues
    its reads, writes and arithmetic ops at an effective rate.  The paper's
    downscaler kernels are issue-bound, which is what makes the per-kernel
    times track per-item operation counts rather than raw traffic;
  - *memory time* models DRAM: the launch's **unique** bytes (re-reads of
    the same data within one kernel hit in cache) inflated by warp
    coalescing from the probed access strides.  Fragmenting one fused
    kernel into many (the SaC route after WLF) increases the *sum of
    unique bytes across launches* — the data-reuse loss the paper blames
    in Section VIII-C;

* **host compute / sequential programs** — items x ops at an effective
  scalar rate (single-core, the SaC sequential backend is single-threaded).

All free parameters live in :class:`CostParams`; the published calibration
against the paper's Tables I/II is in :mod:`repro.gpu.calibration`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.gpu.coalescing import mean_inflation
from repro.gpu.device import GTX480, I7_930, DeviceSpec, HostSpec
from repro.ir.metrics import AccessProfile
from repro.ir.program import HostWork

__all__ = ["CostParams", "KernelCostBreakdown", "CostModel"]


@dataclass(frozen=True)
class CostParams:
    """Free parameters of the cost model (all rates are *effective*)."""

    #: PCIe host-to-device bandwidth, bytes/us.
    h2d_bandwidth: float
    #: PCIe device-to-host bandwidth, bytes/us.
    d2h_bandwidth: float
    #: fixed cost per transfer call, us.
    transfer_latency_us: float
    #: fixed cost per kernel launch, us.
    launch_overhead_us: float
    #: device instruction issue rate, operations/us (across all SMs).
    issue_rate_ops_per_us: float
    #: weight of one array read in issue slots.
    read_issue_weight: float
    #: weight of one array write in issue slots.
    write_issue_weight: float
    #: weight of one arithmetic op in issue slots.
    flop_issue_weight: float
    #: fixed issue slots per work-item (index computation, predicates).
    base_issue_ops: float
    #: effective DRAM bandwidth, bytes/us.
    dram_bandwidth: float
    #: host scalar execution rate, operations/us (single core).
    host_rate_ops_per_us: float
    #: enable the coalescing inflation of memory time.
    model_coalescing: bool = True
    #: enable the memory-time term entirely (else issue-bound only).
    model_memory: bool = True

    def with_overrides(self, **kwargs) -> "CostParams":
        """A copy with the given fields replaced (for ablation benches)."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class KernelCostBreakdown:
    """Per-launch cost decomposition (for reports and ablations)."""

    launch_overhead_us: float
    issue_time_us: float
    memory_time_us: float

    @property
    def total_us(self) -> float:
        return self.launch_overhead_us + max(self.issue_time_us, self.memory_time_us)

    @property
    def bound(self) -> str:
        return "issue" if self.issue_time_us >= self.memory_time_us else "memory"


class CostModel:
    """Charges durations (in microseconds) to simulated operations."""

    def __init__(
        self,
        params: CostParams,
        device: DeviceSpec = GTX480,
        host: HostSpec = I7_930,
    ):
        self.params = params
        self.device = device
        self.host = host

    # -- transfers -----------------------------------------------------------

    def h2d_time_us(self, nbytes: int) -> float:
        if nbytes < 0:
            raise ValueError("transfer size must be non-negative")
        return self.params.transfer_latency_us + nbytes / self.params.h2d_bandwidth

    def d2h_time_us(self, nbytes: int) -> float:
        if nbytes < 0:
            raise ValueError("transfer size must be non-negative")
        return self.params.transfer_latency_us + nbytes / self.params.d2h_bandwidth

    # -- kernels ---------------------------------------------------------------

    def kernel_cost(
        self,
        profile: AccessProfile,
        unique_read_bytes: int,
        unique_write_bytes: int,
        itemsize: int = 4,
    ) -> KernelCostBreakdown:
        p = self.params
        ops_per_item = (
            p.read_issue_weight * profile.reads_per_item
            + p.write_issue_weight * profile.writes_per_item
            + p.flop_issue_weight * profile.flops_per_item
            + p.base_issue_ops
        )
        issue = profile.items * ops_per_item / p.issue_rate_ops_per_us

        memory = 0.0
        if p.model_memory:
            if p.model_coalescing:
                read_inflation = mean_inflation(
                    profile.read_strides, itemsize, self.device
                )
                write_inflation = mean_inflation(
                    profile.write_strides, itemsize, self.device
                )
            else:
                read_inflation = write_inflation = 1.0
            traffic = (
                unique_read_bytes * read_inflation
                + unique_write_bytes * write_inflation
            )
            memory = traffic / p.dram_bandwidth

        return KernelCostBreakdown(
            launch_overhead_us=p.launch_overhead_us,
            issue_time_us=issue,
            memory_time_us=memory,
        )

    # -- host ------------------------------------------------------------------

    def host_work_time_us(self, work: HostWork) -> float:
        ops = work.items * (
            work.reads_per_item + work.writes_per_item + work.flops_per_item
        )
        return ops / self.params.host_rate_ops_per_us

    def sequential_time_us(
        self, items: int, reads: int, writes: int, flops: int
    ) -> float:
        """Time of a sequential host loop over ``items`` elements."""
        if items < 0:
            raise ValueError("items must be non-negative")
        ops = items * (reads + writes + flops)
        return ops / self.params.host_rate_ops_per_us

    # -- convenience -------------------------------------------------------------

    def describe(self) -> dict[str, float | str | bool]:
        """The model's parameters as a flat dict (for EXPERIMENTS.md)."""
        out: dict[str, float | str | bool] = {"device": self.device.name}
        for k, v in vars(self.params).items():
            out[k] = v
        return out
