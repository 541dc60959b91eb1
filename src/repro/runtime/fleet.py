"""Device topology and frame-placement policies.

The paper's cost model prices one GTX480; the ROADMAP's "millions of
users" target needs many.  Every schedule runs on a
:class:`DeviceTopology`, and the paper's single GPU is a topology of one:

* :class:`DeviceTopology` — K devices, each with its own three engines
  (H2D / compute / D2H), its own :class:`~repro.gpu.memory.MemoryManager`
  and its own :class:`~repro.runtime.cache.CompileCache` (device code is
  per-context, as in CUDA module loading).  The devices share the host:
  host driver work runs on at most ``host.cores`` lanes, and every PCIe
  transfer crosses a bounded pool of host staging channels — the
  saturation point the fleet benchmark sweeps for.  A fleet namespaces
  each device's names (``d1:h2d``, ``d1/d_x@s0``, lanes ``hl0:host``);
  a topology of one keeps the single GPU's (``h2d``, ``d_x@s0``, ``host``).
* **placement policies** — who serves the next frame of a fleet.
  Round-robin is the baseline; least-loaded balances an EWMA-smoothed
  estimate of each device's queued modelled microseconds; cache-affinity
  keeps a frame on a device that has already compiled its configuration
  (warm compile cache, resident working set), spreading to cold devices
  only under load imbalance and never paying more compile misses than
  round-robin would (the *miss budget* invariant, property-tested).
* **host-staged migration pricing** — moving a frame's working set
  between devices has no peer-to-peer path in the paper's PCIe model, so
  it is priced as a D2H on the source plus an H2D on the target through
  :class:`~repro.gpu.cost.CostModel`, and materialised as real transfer
  nodes in the schedule.

Everything here is pure placement state; the timing consequences are
computed by :func:`repro.runtime.schedule.build_schedule`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterator

from repro.errors import ReproError
from repro.gpu.calibration import GTX480_CALIBRATED
from repro.gpu.cost import CostModel, CostParams
from repro.gpu.device import GTX480, I7_930, DeviceSpec, HostSpec
from repro.gpu.executor import GPUExecutor
from repro.ir.program import AllocDevice, DeviceProgram, HostToDevice, transfer_nbytes
from repro.runtime.cache import CompileCache

__all__ = [
    "ENGINE_KINDS",
    "FleetDevice",
    "DeviceTopology",
    "FrameTicket",
    "PlacementDecision",
    "PlacementPolicy",
    "RoundRobinPlacement",
    "LeastLoadedPlacement",
    "CacheAffinityPlacement",
    "make_placement",
    "upload_nbytes",
]

#: engine kinds every device owns (host is a shared-lane kind)
ENGINE_KINDS = ("h2d", "compute", "d2h", "host")

#: host staging channels shared by every device's PCIe transfers: the
#: i7-930's triple-channel DDR3 sustains ~25.6 GB/s against ~4-5 GB/s of
#: effective PCIe x16 Gen2 per direction, so about six concurrent wire
#: transfers saturate the host side — the knee the K-sweep looks for
HOST_CHANNELS = 6

#: default per-policy EWMA smoothing for modelled service times
EWMA_ALPHA = 0.3


def upload_nbytes(program: DeviceProgram) -> int:
    """Bytes one run of ``program`` uploads host-to-device.

    This is the working set a migration must re-stage on a new device
    (the inputs; device-resident intermediates are recomputed there), so
    it is what the host-staged D2H+H2D migration path prices.
    """
    allocs: dict[str, AllocDevice] = {}
    total = 0
    for op in program.ops:
        if isinstance(op, AllocDevice):
            allocs[op.buffer] = op
        elif isinstance(op, HostToDevice):
            if op.device not in allocs:
                raise ReproError(
                    f"fleet upload accounting of {program.name!r}: H2D into "
                    f"unallocated buffer {op.device!r}"
                )
            total += transfer_nbytes(op, allocs[op.device])
    return total


@dataclass
class FleetDevice:
    """One device of the fleet: engines + memory + compile cache."""

    index: int
    executor: GPUExecutor
    cache: CompileCache
    #: prefix of its engine and slot names: its name in a fleet, else empty
    namespace: str = field(default="", repr=False)

    @property
    def name(self) -> str:
        return f"d{self.index}"

    @property
    def memory(self):
        return self.executor.memory

    def engine(self, kind: str) -> str:
        if kind not in ENGINE_KINDS:
            raise ReproError(f"unknown engine kind {kind!r}")
        return f"{self.namespace}:{kind}" if self.namespace else kind

    def slot(self, buffer: str, slot: int) -> str:
        """The resource name of physical ``slot`` of device ``buffer``."""
        return f"{self.namespace}/{buffer}@s{slot}" if self.namespace else f"{buffer}@s{slot}"


class DeviceTopology:
    """K modelled devices behind one host, sharing the PCIe staging path."""

    def __init__(
        self,
        devices: list[FleetDevice],
        host: HostSpec = I7_930,
        host_channels: int = HOST_CHANNELS,
    ):
        if not devices:
            raise ReproError("a topology needs at least one device")
        if host_channels < 1:
            raise ReproError("host_channels must be >= 1")
        self.devices = list(devices)
        self.host = host
        self.host_channels = host_channels
        # a lone device keeps the single GPU's names (bare engine kinds,
        # un-prefixed slots, one "host" lane); a fleet namespaces each one
        self.namespaced = len(self.devices) > 1
        for d in self.devices:
            d.namespace = d.name if self.namespaced else ""

    @classmethod
    def build(
        cls,
        count: int,
        params: CostParams = GTX480_CALIBRATED,
        device: DeviceSpec = GTX480,
        host: HostSpec = I7_930,
        host_channels: int = HOST_CHANNELS,
    ) -> "DeviceTopology":
        """A homogeneous fleet of ``count`` copies of the paper's device."""
        if count < 1:
            raise ReproError("device count must be >= 1")
        devices = [
            FleetDevice(
                index=k,
                executor=GPUExecutor(CostModel(params), device=device),
                cache=CompileCache(),
            )
            for k in range(count)
        ]
        return cls(devices, host=host, host_channels=host_channels)

    @classmethod
    def around(cls, executor: GPUExecutor) -> "DeviceTopology":
        """One device around ``executor``, with a fresh compile cache."""
        return cls([FleetDevice(index=0, executor=executor, cache=CompileCache())])

    def __len__(self) -> int:
        return len(self.devices)

    def __iter__(self) -> Iterator[FleetDevice]:
        return iter(self.devices)

    def device(self, k: int) -> FleetDevice:
        return self.devices[k]

    @property
    def host_lanes(self) -> int:
        """Host driver lanes: one per device, bounded by the host's cores."""
        return min(len(self.devices), self.host.cores)

    def host_lane(self, k: int) -> str:
        """The host engine serving device ``k``'s stream (lanes wrap when
        K exceeds the host's core count)."""
        return f"hl{k % self.host_lanes}:host" if self.namespaced else "host"

    def engines(self) -> tuple[str, ...]:
        """Every engine of the topology in track order (device-major)."""
        names = [d.engine(k) for d in self.devices for k in ("h2d", "compute", "d2h")]
        return (*names, *(self.host_lane(lane) for lane in range(self.host_lanes)))

    def migration_us(self, nbytes: int) -> tuple[float, float]:
        """Host-staged cross-device move: (D2H on source, H2D on target)."""
        cost = self.devices[0].executor.cost
        return cost.d2h_time_us(nbytes), cost.h2d_time_us(nbytes)

    def reset_stats(self) -> None:
        """Zero every device's memory counters (between pipeline batches)."""
        for d in self.devices:
            d.memory.reset_stats()


@dataclass(frozen=True)
class FrameTicket:
    """What a placement policy knows about a frame before placing it."""

    frame: int
    #: compile-cache identity of the frame's configuration (same key =
    #: same compiled program; the affinity policy's warmth signal)
    cache_key: Hashable
    #: modelled service estimate in µs (``None`` until the policy has
    #: observed real batches; policies then fall back to their EWMA)
    cost_us: float | None = None
    #: bytes of device-resident working set a migration would re-stage
    staged_nbytes: int = 0


@dataclass(frozen=True)
class PlacementDecision:
    """Where one frame runs, and whether it migrated to get there."""

    frame: int
    device: int
    #: source device of a host-staged migration (``None`` = no move)
    migrate_from: int | None = None


class PlacementPolicy:
    """Base: assigns each :class:`FrameTicket` to a device index."""

    name = "policy"

    def __init__(self, devices: int):
        if devices < 1:
            raise ReproError("placement needs at least one device")
        self.devices = devices

    def place(self, ticket: FrameTicket) -> PlacementDecision:
        raise NotImplementedError

    def observe(self, device: int, actual_us: float) -> None:
        """Feedback: a placed frame's modelled service time."""

    def new_batch(self) -> None:
        """A batch boundary: queued work has drained; learned state
        (EWMA estimates, cache warmth) persists."""


class RoundRobinPlacement(PlacementPolicy):
    """Frames cycle d0, d1, ..., dK-1, d0, ... — the oblivious baseline."""

    name = "round-robin"

    def __init__(self, devices: int):
        super().__init__(devices)
        self._next = 0

    def place(self, ticket: FrameTicket) -> PlacementDecision:
        device = self._next
        self._next = (self._next + 1) % self.devices
        return PlacementDecision(frame=ticket.frame, device=device)


class LeastLoadedPlacement(PlacementPolicy):
    """Greedy argmin over queued modelled µs, EWMA-smoothed estimates.

    Each placement charges the chosen device the ticket's cost estimate
    (its ``cost_us`` when known, else the EWMA of observed service
    times); :meth:`observe` refines the EWMA as real batches finish.
    Ties break on the lowest device index, so a uniform stream with a
    uniform estimate degenerates to round-robin — the right baseline.
    """

    name = "least-loaded"

    def __init__(self, devices: int, alpha: float = EWMA_ALPHA):
        super().__init__(devices)
        if not 0.0 < alpha <= 1.0:
            raise ReproError("alpha must be in (0, 1]")
        self.alpha = alpha
        self.queued_us = [0.0] * devices
        self._ewma_us: float | None = None

    def estimate_us(self, ticket: FrameTicket) -> float:
        if ticket.cost_us is not None:
            return ticket.cost_us
        return self._ewma_us if self._ewma_us is not None else 1.0

    def argmin(self) -> int:
        return min(range(self.devices), key=lambda k: (self.queued_us[k], k))

    def place(self, ticket: FrameTicket) -> PlacementDecision:
        device = self.argmin()
        self.queued_us[device] += self.estimate_us(ticket)
        return PlacementDecision(frame=ticket.frame, device=device)

    def observe(self, device: int, actual_us: float) -> None:
        if self._ewma_us is None:
            self._ewma_us = actual_us
        else:
            self._ewma_us += self.alpha * (actual_us - self._ewma_us)

    def new_batch(self) -> None:
        self.queued_us = [0.0] * self.devices


class CacheAffinityPlacement(PlacementPolicy):
    """Stick frames to devices that are warm for their compile-cache key.

    A device is *warm* for a key once a frame with that key ran there
    (compiled program in the device cache, working set recently
    resident).  Placement picks the least-loaded warm device; a frame
    expands to a cold device only when the warm side is overloaded —
    warm load exceeding the coldest device by ``spread_factor`` service
    estimates — **and** the key's miss budget allows it.

    The miss budget is what makes the policy's cache behaviour provable:
    a key may be warmed on at most as many devices as round-robin would
    have hit with the same stream prefix (the set of ``position mod K``
    slots its occurrences landed on).  Cold placements are the only
    source of compile misses, so for *any* stream the policy's miss
    count is bounded by round-robin's, key by key — the property the
    hypothesis suite checks.

    With ``migrate=True`` an expansion also re-stages the key's working
    set from the busiest warm device through host memory (D2H + H2D,
    priced by the PCIe model and materialised as schedule nodes); the
    compile itself still happens on the new device, as device code is
    per-context.
    """

    name = "cache-affinity"

    def __init__(
        self,
        devices: int,
        alpha: float = EWMA_ALPHA,
        spread_factor: float = 1.0,
        migrate: bool = False,
    ):
        super().__init__(devices)
        if spread_factor < 0:
            raise ReproError("spread_factor must be >= 0")
        self.spread_factor = spread_factor
        self.migrate = migrate
        self._load = LeastLoadedPlacement(devices, alpha=alpha)
        #: key -> device indices warm for it
        self._warm: dict[Hashable, set[int]] = {}
        #: key -> round-robin slots its occurrences have hit (miss budget)
        self._rr_slots: dict[Hashable, set[int]] = {}
        self._position = 0
        self.expansions = 0
        self.migrations = 0

    def _argmin(self, candidates) -> int:
        return min(candidates, key=lambda k: (self._load.queued_us[k], k))

    def place(self, ticket: FrameTicket) -> PlacementDecision:
        key = ticket.cache_key
        slots = self._rr_slots.setdefault(key, set())
        slots.add(self._position % self.devices)
        self._position += 1

        warm = self._warm.setdefault(key, set())
        est = self._load.estimate_us(ticket)
        migrate_from: int | None = None
        if not warm:
            # first sighting: the one unavoidable cold start
            device = self._load.argmin()
            warm.add(device)
        else:
            device = self._argmin(warm)
            cold = [k for k in range(self.devices) if k not in warm]
            if cold and len(warm) < len(slots):
                coldest = self._argmin(cold)
                overloaded = (
                    self._load.queued_us[device]
                    > self._load.queued_us[coldest] + self.spread_factor * est
                )
                if overloaded:
                    # busiest warm device donates the working set
                    source = max(
                        warm, key=lambda k: (self._load.queued_us[k], -k)
                    )
                    device = coldest
                    warm.add(device)
                    self.expansions += 1
                    if self.migrate:
                        migrate_from = source
                        self.migrations += 1
        self._load.queued_us[device] += est
        return PlacementDecision(
            frame=ticket.frame, device=device, migrate_from=migrate_from
        )

    def observe(self, device: int, actual_us: float) -> None:
        self._load.observe(device, actual_us)

    def new_batch(self) -> None:
        self._load.new_batch()


_POLICIES = {
    p.name: p
    for p in (RoundRobinPlacement, LeastLoadedPlacement, CacheAffinityPlacement)
}


def make_placement(
    policy: str | PlacementPolicy, devices: int
) -> PlacementPolicy:
    """Resolve a policy name (or pass an instance through)."""
    if isinstance(policy, PlacementPolicy):
        if policy.devices != devices:
            raise ReproError(
                f"placement {policy.name!r} was built for {policy.devices} "
                f"device(s), topology has {devices}"
            )
        return policy
    cls = _POLICIES.get(policy)
    if cls is None:
        raise ReproError(
            f"unknown placement policy {policy!r} "
            f"(choose from {sorted(_POLICIES)})"
        )
    return cls(devices)
