"""FramePipeline: the batched frame-pipeline server.

Drives a frame source through the full serving loop — compile (through
the :class:`~repro.runtime.cache.CompileCache`), upload, launch, download
— with double-buffering across frames: frame *n+1*'s H2D streams on the
copy engine while frame *n*'s kernels occupy the SMs, the overlap the
paper's async transfer calls set up but its measurements serialise.  A
frame is a *batch* of program runs (the three RGB channel runs of the SaC
route; one three-channel run for the Gaspard2 route), and the report
carries per-stage throughput/latency metrics: modelled frames/s, p50/p95
frame latency, per-engine busy time and occupancy, serial-vs-overlapped
totals and the compile-cache counters.

A :class:`PipelineJob` adapts a workload to the pipeline; the downscaler
jobs live in :mod:`repro.apps.downscaler.serving`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ReproError
from repro.gpu.calibration import GTX480_CALIBRATED
from repro.gpu.cost import CostModel, CostParams
from repro.gpu.executor import GPUExecutor
from repro.ir.program import DeviceProgram
from repro.obs.span import Tracer, current_tracer, use_tracer
from repro.runtime.cache import CacheStats, CompileCache
from repro.runtime.fleet import DeviceTopology, FrameTicket, make_placement
from repro.runtime.schedule import PipelineSchedule, build_schedule

__all__ = ["PipelineJob", "PipelineReport", "FramePipeline"]


class PipelineJob:
    """What a workload must provide to be served by the pipeline.

    Subclasses implement:

    * :attr:`name` — job label for reports;
    * :attr:`instances_per_frame` — program runs per frame (the channel
      batch size);
    * :meth:`compile` — produce the :class:`DeviceProgram` *through the
      given cache* (called once per frame, so the cache's hit counters
      reflect the per-frame compile stage);
    * :meth:`env` — the host environment of one (frame, instance) run;
    * :meth:`golden` — the expected outputs of one run (or ``None`` to
      skip validation of that run).
    """

    name: str = "job"
    instances_per_frame: int = 1

    def compile(self, cache: CompileCache) -> DeviceProgram:
        """The job's program, produced through ``cache``.

        The pipeline calls this once per frame, so a job should build its
        compile inputs (source text, model, options) once and hold them:
        a warm call is then one cache lookup, and an immutable held input
        serialises its key from :func:`~repro.runtime.cache.canonical`'s
        memo instead of recursing.
        """
        raise NotImplementedError

    def env(self, frame: int, instance: int) -> dict[str, np.ndarray]:
        raise NotImplementedError

    def golden(
        self, frame: int, instance: int, program: DeviceProgram
    ) -> dict[str, np.ndarray] | None:
        return None


@dataclass(frozen=True)
class PipelineReport:
    """Everything one pipeline run measured."""

    job: str
    program: str
    frames: int
    instances: int
    depth: int
    serialize: bool
    serial_us: float
    overlapped_us: float
    frames_per_second: float
    latency_p50_us: float
    latency_p95_us: float
    engine_busy_us: dict[str, float]
    engine_occupancy: dict[str, float]
    #: serial share of transfer time (the paper's ~50 % claim)
    transfer_share_serial: float
    cache: CacheStats
    validated_instances: int
    schedule: PipelineSchedule = field(compare=False, default=None)
    #: fleet shape (defaults describe the single-device pipeline)
    devices: int = 1
    placement: str = ""
    per_device: dict = field(default_factory=dict)
    migrations: int = 0
    migration_us: float = 0.0

    @property
    def speedup(self) -> float:
        return self.serial_us / self.overlapped_us if self.overlapped_us else 1.0

    def as_dict(self) -> dict:
        """JSON-ready representation (stable key order)."""
        return {
            "job": self.job,
            "program": self.program,
            "frames": self.frames,
            "instances": self.instances,
            "depth": self.depth,
            "serialize": self.serialize,
            "serial_us": round(self.serial_us, 3),
            "overlapped_us": round(self.overlapped_us, 3),
            "speedup": round(self.speedup, 4),
            "frames_per_second": round(self.frames_per_second, 3),
            "latency_p50_us": round(self.latency_p50_us, 3),
            "latency_p95_us": round(self.latency_p95_us, 3),
            "engine_busy_us": {k: round(v, 3) for k, v in self.engine_busy_us.items()},
            "engine_occupancy": {
                k: round(v, 4) for k, v in self.engine_occupancy.items()
            },
            "transfer_share_serial": round(self.transfer_share_serial, 4),
            "cache": self.cache.as_dict(),
            "validated_instances": self.validated_instances,
        } | (
            {
                "devices": self.devices,
                "placement": self.placement,
                "per_device": self.per_device,
                "migrations": self.migrations,
                "migration_us": round(self.migration_us, 3),
            }
            if self.devices > 1
            else {}
        )


class FramePipeline:
    """Serves a frame job over the stream-overlapped execution engine."""

    def __init__(
        self,
        params: CostParams = GTX480_CALIBRATED,
        depth: int | None = 2,
        serialize: bool = False,
        cache: CompileCache | None = None,
        validate: str = "first",
        tracer: Tracer | None = None,
        devices: int = 1,
        placement: str = "round-robin",
        topology: DeviceTopology | None = None,
    ):
        if validate not in ("first", "all", "none"):
            raise ValueError(f"validate must be first/all/none, not {validate!r}")
        if devices < 1:
            raise ValueError("devices must be >= 1")
        if topology is not None:
            self.topology = topology
        elif devices > 1:
            self.topology = DeviceTopology.build(devices, params)
        else:
            self.topology = None
        if self.topology is not None:
            if cache is not None:
                raise ValueError(
                    "a fleet pipeline compiles through per-device caches; "
                    "an external cache cannot be shared across devices"
                )
            # device 0 fronts the fleet for single-executor consumers
            self.executor = self.topology.device(0).executor
            self.cache = self.topology.device(0).cache
            self.placement_policy = make_placement(
                placement, len(self.topology)
            )
        else:
            self.executor = GPUExecutor(CostModel(params))
            self.cache = cache if cache is not None else CompileCache()
            self.placement_policy = None
        self.depth = depth
        self.serialize = serialize
        self.validate = validate
        #: spans of every stage land here; ``None`` defers to the ambient
        #: tracer installed around :meth:`run` (disabled by default)
        self.tracer = tracer

    @property
    def devices(self) -> int:
        return 1 if self.topology is None else len(self.topology)

    def _validate(self, job: PipelineJob, program: DeviceProgram, frame: int,
                  instance: int, executor: GPUExecutor | None = None) -> bool:
        expected = job.golden(frame, instance, program)
        if expected is None:
            return False
        runner = executor if executor is not None else self.executor
        result = runner.run(program, job.env(frame, instance))
        for name, want in expected.items():
            got = result.outputs.get(name)
            if got is None or not np.array_equal(got, want):
                raise ReproError(
                    f"pipeline {job.name}: output {name!r} of frame {frame} "
                    f"instance {instance} is not bit-exact against the golden "
                    f"reference"
                )
        return True

    def run(self, job: PipelineJob, frames: int) -> PipelineReport:
        """Serve ``frames`` frames of ``job``; returns the metrics report.

        When a :class:`~repro.obs.span.Tracer` was passed to the
        constructor it is installed as the ambient tracer for the whole
        run, so the compile/opt/schedule/execute spans of every stage —
        including those recorded deep inside the backends — land in one
        tree.  Tracing never perturbs the report: all durations are
        modelled, not measured.
        """
        tracer = self.tracer if self.tracer is not None else current_tracer()
        with use_tracer(tracer):
            return self._run(job, frames, tracer)

    def _run(self, job: PipelineJob, frames: int, tracer: Tracer) -> PipelineReport:
        if frames < 0:
            raise ValueError("frames must be >= 0")
        if frames == 0:
            # a zero-frame job (an empty broker flush, a drained queue) is
            # not an error: report cleanly with nothing compiled or served
            return PipelineReport(
                job=job.name, program="", frames=0, instances=0,
                depth=self.depth if self.depth is not None else 0,
                serialize=self.serialize, serial_us=0.0, overlapped_us=0.0,
                frames_per_second=0.0, latency_p50_us=0.0, latency_p95_us=0.0,
                engine_busy_us={}, engine_occupancy={},
                transfer_share_serial=0.0, cache=CacheStats(),
                validated_instances=0, devices=self.devices,
            )
        if self.topology is not None:
            return self._run_fleet(job, frames, tracer)
        # re-base the allocator counters, as a fleet batch does, so the
        # executor's peak-bytes/alloc numbers never bleed across runs
        self.executor.memory.reset_stats()
        before = self.cache.stats.snapshot()

        with tracer.span(
            f"pipeline:{job.name}", category="pipeline", frames=frames
        ) as pipe_span:
            # compile stage: once per frame through the cache (a real server
            # compiles on frame arrival; the cache makes every frame after
            # the first a hit)
            with tracer.span("compile-stage", category="pipeline-stage") as sp:
                program = None
                for f in range(frames):
                    program = job.compile(self.cache)
                cache_delta = self.cache.stats.since(before)
                sp.set(hits=cache_delta.hits, misses=cache_delta.misses)

            # functional stage: bit-exact validation against the job's golden
            with tracer.span("validate-stage", category="pipeline-stage") as sp:
                validated = 0
                if self.validate == "first":
                    validated += int(self._validate(job, program, 0, 0))
                elif self.validate == "all":
                    for f in range(frames):
                        for i in range(job.instances_per_frame):
                            validated += int(self._validate(job, program, f, i))
                sp.set(validated=validated)

            # temporal stage: schedule every run across the three engines
            with tracer.span("schedule-stage", category="pipeline-stage"):
                runs = frames * job.instances_per_frame
                schedule = build_schedule(
                    program, self.executor, runs=runs, depth=self.depth,
                    serialize=self.serialize,
                )
            pipe_span.set(program=program.name, runs=runs)
        latencies = schedule.latencies_us(batch=job.instances_per_frame)
        makespan = schedule.makespan_us
        busy = {e: schedule.engine_busy_us(e) for e in schedule.engines}
        transfer_serial = busy.get("h2d", 0.0) + busy.get("d2h", 0.0)

        return PipelineReport(
            job=job.name,
            program=program.name,
            frames=frames,
            instances=runs,
            depth=schedule.depth,
            serialize=self.serialize,
            serial_us=schedule.serial_us,
            overlapped_us=makespan,
            frames_per_second=frames / (makespan / 1e6) if makespan else 0.0,
            latency_p50_us=float(np.percentile(latencies, 50)) if latencies else 0.0,
            latency_p95_us=float(np.percentile(latencies, 95)) if latencies else 0.0,
            engine_busy_us=busy,
            engine_occupancy=schedule.engine_occupancy(),
            transfer_share_serial=(
                transfer_serial / schedule.serial_us if schedule.serial_us else 0.0
            ),
            cache=cache_delta,
            validated_instances=validated,
            schedule=schedule,
        )

    @staticmethod
    def _ticket_key(job: PipelineJob):
        """Compile-cache identity of a job's frames for placement."""
        size = getattr(getattr(job, "size", None), "name", "")
        return (job.name, size)

    def _run_fleet(
        self, job: PipelineJob, frames: int, tracer: Tracer
    ) -> PipelineReport:
        """Shard the frame stream over the device topology.

        Stage order matters: frames are *placed* before they are
        compiled, because the placed device's compile cache is what the
        frame compiles through — the per-device miss pattern is exactly
        what the cache-affinity policy optimises.
        """
        topo = self.topology
        policy = self.placement_policy
        policy.new_batch()
        # a batch boundary also re-bases every device's memory counters,
        # so fleet peak-bytes/occupancy numbers never bleed across runs
        topo.reset_stats()
        before = [d.cache.stats.snapshot() for d in topo]
        ipf = job.instances_per_frame

        with tracer.span(
            f"pipeline:{job.name}", category="pipeline", frames=frames,
            devices=len(topo),
        ) as pipe_span:
            with tracer.span("placement-stage", category="pipeline-stage") as sp:
                ticket_key = self._ticket_key(job)
                decisions = [
                    policy.place(FrameTicket(frame=f, cache_key=ticket_key))
                    for f in range(frames)
                ]
                sp.set(policy=policy.name, devices=len(topo))

            # compile stage: once per frame through its placed device's
            # cache (device code is per-context: a fleet of K cold
            # devices pays up to K misses where one device pays one)
            with tracer.span("compile-stage", category="pipeline-stage") as sp:
                program = None
                for dec in decisions:
                    program = job.compile(topo.device(dec.device).cache)
                deltas = [
                    d.cache.stats.since(b) for d, b in zip(topo, before)
                ]
                cache_delta = CacheStats(
                    hits=sum(d.hits for d in deltas),
                    misses=sum(d.misses for d in deltas),
                    invalidations=sum(d.invalidations for d in deltas),
                )
                sp.set(hits=cache_delta.hits, misses=cache_delta.misses)

            # functional stage: validate on the executor of the device
            # the frame was placed on — bit-exactness must hold wherever
            # the placement sent the frame
            with tracer.span("validate-stage", category="pipeline-stage") as sp:
                validated = 0
                if self.validate == "first":
                    validated += int(self._validate(
                        job, program, 0, 0,
                        executor=topo.device(decisions[0].device).executor,
                    ))
                elif self.validate == "all":
                    for f, dec in enumerate(decisions):
                        executor = topo.device(dec.device).executor
                        for i in range(ipf):
                            validated += int(self._validate(
                                job, program, f, i, executor=executor,
                            ))
                sp.set(validated=validated)

            with tracer.span("schedule-stage", category="pipeline-stage"):
                runs = frames * ipf
                schedule = build_schedule(
                    program, self.executor, runs=runs, depth=self.depth,
                    serialize=self.serialize, topology=topo,
                    placements=decisions, frame_batch=ipf,
                )
            pipe_span.set(program=program.name, runs=runs)

        # feedback: refine the policy's service-time estimate so later
        # batches balance on observed per-frame cost, not the prior
        serial_per_frame = schedule.serial_us / frames
        for dec in decisions:
            policy.observe(dec.device, serial_per_frame)

        latencies = schedule.latencies_us(batch=ipf)
        makespan = schedule.makespan_us
        engines = topo.engines()
        busy = {e: schedule.engine_busy_us(e) for e in engines}
        occupancy = schedule.engine_occupancy(engines=engines)
        # migration nodes ride the copy engines but, like serial_us, the
        # program's transfer time leaves them out
        transfer_serial = sum(
            busy[d.engine(kind)] for d in topo for kind in ("h2d", "d2h")
        ) - schedule.migration_us
        per_device: dict[str, dict] = {}
        for k, d in enumerate(topo):
            kinds = {
                kind: busy[d.engine(kind)] for kind in ("h2d", "compute", "d2h")
            }
            per_device[d.name] = {
                "frames": sum(1 for dec in decisions if dec.device == k),
                "busy_us": {k2: round(v, 3) for k2, v in kinds.items()},
                "occupancy": {
                    kind: round(occupancy[d.engine(kind)], 4)
                    for kind in ("h2d", "compute", "d2h")
                },
                "peak_bytes": d.memory.peak_bytes,
                "cache": deltas[k].as_dict(),
            }

        return PipelineReport(
            job=job.name,
            program=program.name,
            frames=frames,
            instances=runs,
            depth=schedule.depth,
            serialize=self.serialize,
            serial_us=schedule.serial_us,
            overlapped_us=makespan,
            frames_per_second=frames / (makespan / 1e6) if makespan else 0.0,
            latency_p50_us=float(np.percentile(latencies, 50)) if latencies else 0.0,
            latency_p95_us=float(np.percentile(latencies, 95)) if latencies else 0.0,
            engine_busy_us=busy,
            engine_occupancy=occupancy,
            transfer_share_serial=(
                transfer_serial / schedule.serial_us if schedule.serial_us else 0.0
            ),
            cache=cache_delta,
            validated_instances=validated,
            schedule=schedule,
            devices=len(topo),
            placement=policy.name,
            per_device=per_device,
            migrations=schedule.migrations,
            migration_us=schedule.migration_us,
        )
