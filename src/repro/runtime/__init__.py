"""The execution runtime: what turns the reproduction into a server.

The paper's central empirical finding is that the async transfers both
routes issue eat roughly half the total time because the measurements
serialise them (Tables I/II).  This package executes compiled
:class:`~repro.ir.program.DeviceProgram` artefacts the way the hardware's
three engines (H2D copy, compute, D2H copy) actually could:

* :mod:`repro.runtime.schedule` — the dependence scheduler (engine FIFO,
  RAW/WAR/WAW over ``depth``-deep recycled buffer slots, serialise knob),
  the one place overlapped time is computed, and the checker that replays
  every ordering on a built schedule;
* :mod:`repro.runtime.cache` — :class:`CompileCache`, memoised
  compilation for both routes with hit/miss/invalidation statistics;
* :mod:`repro.runtime.pipeline` — :class:`FramePipeline`, the batched
  frame server (compile -> upload -> launch -> download with
  double-buffering and throughput/latency metrics);
* :mod:`repro.runtime.fleet` — the device-fleet topology (K devices,
  shared host lanes and PCIe staging channels) and the frame-placement
  policies (round-robin / least-loaded / cache-affinity) behind
  ``repro pipeline --devices K``.

``repro pipeline`` drives it from the CLI.
"""

from repro.runtime.cache import (
    CacheStats,
    CompileCache,
    canonical,
    gaspard_key,
    sac_key,
)
from repro.runtime.fleet import (
    CacheAffinityPlacement,
    DeviceTopology,
    FleetDevice,
    FrameTicket,
    LeastLoadedPlacement,
    PlacementDecision,
    PlacementPolicy,
    RoundRobinPlacement,
    make_placement,
)
from repro.runtime.pipeline import FramePipeline, PipelineJob, PipelineReport
from repro.runtime.schedule import (
    PipelineSchedule,
    ScheduledNode,
    build_schedule,
    schedule_violations,
)

__all__ = [
    "build_schedule", "schedule_violations", "PipelineSchedule", "ScheduledNode",
    "CompileCache", "CacheStats", "sac_key", "gaspard_key", "canonical",
    "FramePipeline", "PipelineJob", "PipelineReport",
    "DeviceTopology", "FleetDevice", "FrameTicket", "PlacementDecision",
    "PlacementPolicy", "RoundRobinPlacement", "LeastLoadedPlacement",
    "CacheAffinityPlacement", "make_placement",
]
