"""The asyncio request broker: the serving tier's front door.

Clients ``await broker.submit(tenant, frame, deadline_us=...)``; the
broker answers every submit with exactly one :class:`~repro.serve.types.
Response`.  Internally one service loop owns the simulated device fleet
(``ServeConfig.devices``, default one) and dispatches each flushed batch
to the device that vacates first:

1. **arrival** — quota (:mod:`repro.serve.quota`) and admission
   (:mod:`repro.serve.admission`) gates run synchronously; rejected
   requests never hold a queue slot;
2. **batching** — admitted requests queue in the
   :class:`~repro.serve.batcher.DynamicBatcher`, which flushes on
   max-batch-size or deadline slack, whichever first;
3. **service** — a flushed batch compiles through the shared
   :class:`~repro.runtime.cache.CompileCache`, is scheduled across the
   three engines by :func:`~repro.runtime.schedule.build_schedule`
   (modelled makespan = service time; per-request completion offsets
   come from the schedule, so early frames in a batch finish early), and
   optionally executes bit-exact against the golden reference;
4. **degradation** — the :class:`~repro.serve.degrade.DegradeController`
   re-evaluates at every flush; in DEGRADED state batches are served
   through the degraded job (CIF-size frames) until load recedes.

All waiting happens on the :class:`~repro.serve.clock.VirtualClock`:
the flush timer, device occupancy and each request's completion are
virtual sleeps, and virtual time moves only when the event loop has
nothing left to run.  A run is therefore deterministic and takes wall
time proportional to the work (batching, scheduling, execution), not to
the simulated timeline.  Request lifecycle stages land on the ambient
tracer; counters/gauges/histograms land in a
:class:`~repro.obs.metrics.MetricsRegistry`.
"""

from __future__ import annotations

import asyncio
import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ReproError
from repro.gpu.calibration import GTX480_CALIBRATED
from repro.gpu.cost import CostModel, CostParams
from repro.gpu.executor import GPUExecutor
from repro.obs.metrics import MetricsRegistry
from repro.obs.span import Tracer, current_tracer, use_tracer
from repro.runtime.cache import CompileCache
from repro.runtime.pipeline import PipelineJob
from repro.runtime.schedule import build_schedule
from repro.serve.admission import AdmissionController
from repro.serve.batcher import DynamicBatcher, PendingEntry
from repro.serve.clock import VirtualClock
from repro.serve.degrade import DegradeController
from repro.serve.quota import QuotaManager
from repro.serve.types import (
    REJECT_QUOTA,
    STATUS_MISSED,
    STATUS_OK,
    STATUS_REJECTED,
    Request,
    Response,
    ServeConfig,
    latency_buckets,
)

__all__ = ["ServeBroker", "ServingReport"]


@dataclass
class _BatchRecord:
    batch_id: int
    size: int
    degraded: bool
    start_us: float
    makespan_us: float
    program: str
    device: int = 0


@dataclass(frozen=True)
class ServingReport:
    """Aggregate outcome of one broker lifetime."""

    job: str
    config: ServeConfig = field(compare=False)
    offered: int
    completed_ok: int
    completed_missed: int
    rejected: int
    rejected_by_reason: dict[str, int]
    degraded_served: int
    validated: int
    batches: int
    batch_size_mean: float
    batch_size_max: int
    latency_p50_us: float
    latency_p95_us: float
    latency_p99_us: float
    duration_us: float
    #: ok responses per second of virtual time — the number the paper's
    #: throughput story becomes once there is a front door
    goodput_rps: float
    offered_rps: float
    queue_depth_high_water: int
    degrade_transitions: int
    per_tenant: dict[str, dict[str, int]]
    admission: dict
    quota: dict
    degrade: dict
    cache: dict
    devices: int = 1
    #: per-device dispatch totals ("d0": {batches, frames, busy_us, utilisation})
    per_device: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "job": self.job,
            "max_batch": self.config.max_batch,
            "slo_us": self.config.slo_us,
            "offered": self.offered,
            "completed_ok": self.completed_ok,
            "completed_missed": self.completed_missed,
            "rejected": self.rejected,
            "rejected_by_reason": dict(sorted(self.rejected_by_reason.items())),
            "degraded_served": self.degraded_served,
            "validated": self.validated,
            "batches": self.batches,
            "batch_size_mean": round(self.batch_size_mean, 3),
            "batch_size_max": self.batch_size_max,
            "latency_p50_us": round(self.latency_p50_us, 3),
            "latency_p95_us": round(self.latency_p95_us, 3),
            "latency_p99_us": round(self.latency_p99_us, 3),
            "duration_us": round(self.duration_us, 3),
            "goodput_rps": round(self.goodput_rps, 3),
            "offered_rps": round(self.offered_rps, 3),
            "queue_depth_high_water": self.queue_depth_high_water,
            "degrade_transitions": self.degrade_transitions,
            "per_tenant": self.per_tenant,
            "admission": self.admission,
            "quota": self.quota,
            "degrade": self.degrade,
            "cache": self.cache,
        } | (
            {"devices": self.devices, "per_device": self.per_device}
            if self.devices > 1 else {}
        )

    def render(self) -> str:
        slo_ms = self.config.slo_us / 1000.0
        lines = [
            f"=== serve {self.job}: {self.offered} request(s), "
            f"max-batch {self.config.max_batch}, SLO {slo_ms:g} ms ===",
            f"  completed:  {self.completed_ok} ok, "
            f"{self.completed_missed} missed deadline",
            f"  rejected:   {self.rejected} "
            f"({', '.join(f'{k}={v}' for k, v in sorted(self.rejected_by_reason.items())) or 'none'})",
            f"  degraded:   {self.degraded_served} served at degraded quality "
            f"({self.degrade_transitions} state transition(s))",
            f"  batches:    {self.batches} "
            f"(mean size {self.batch_size_mean:.2f}, max {self.batch_size_max})",
            f"  latency:    p50 {self.latency_p50_us / 1000:.2f} ms, "
            f"p95 {self.latency_p95_us / 1000:.2f} ms, "
            f"p99 {self.latency_p99_us / 1000:.2f} ms (SLO {slo_ms:g} ms)",
            f"  goodput:    {self.goodput_rps:.1f} rps of {self.offered_rps:.1f} rps "
            f"offered over {self.duration_us / 1e6:.3f} s",
            f"  queue:      high water {self.queue_depth_high_water}",
            f"  validated:  {self.validated} response(s) bit-exact vs golden",
        ]
        if self.devices > 1:
            shares = ", ".join(
                f"{name} {stats['batches']}b/{stats['frames']}f"
                for name, stats in sorted(self.per_device.items())
            )
            lines.insert(1, f"  fleet:      {self.devices} device(s): {shares}")
        return "\n".join(lines)


@dataclass
class _BatchOutcome:
    makespan_us: float
    #: per-request completion offsets from batch start, schedule-derived
    offsets_us: list[float]
    outputs: list[dict[str, np.ndarray] | None]
    validated: list[bool]
    program: str
    size_name: str


class ServeBroker:
    """Async multi-tenant front door over the modelled device runtime."""

    def __init__(
        self,
        job: PipelineJob,
        config: ServeConfig = ServeConfig(),
        degraded_job: PipelineJob | None = None,
        clock: VirtualClock | None = None,
        params: CostParams = GTX480_CALIBRATED,
        cache: CompileCache | None = None,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ):
        self.job = job
        self.config = config
        self.degraded_job = degraded_job
        self.clock = clock if clock is not None else VirtualClock()
        self.cache = cache if cache is not None else CompileCache()
        self.executor = GPUExecutor(CostModel(params))
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else current_tracer()

        self.quota = QuotaManager(config.quota_capacity, config.quota_refill_per_s)
        self.admission = AdmissionController(
            queue_budget=config.queue_budget,
            max_batch=config.max_batch,
            reject_infeasible=config.reject_infeasible,
        )
        self.batcher = DynamicBatcher(
            max_batch=config.max_batch, max_wait_us=config.batch_wait_us
        )
        self.degrade = DegradeController(
            slo_us=config.slo_us,
            enter_breaches=config.degrade_enter,
            exit_clears=config.degrade_exit,
            recover_ratio=config.degrade_recover_ratio,
            window=config.latency_window,
        )

        self._rid = itertools.count()
        self._batch_id = itertools.count()
        #: virtual time each fleet device vacates; one entry per device —
        #: a batch is a unit of dispatch and occupies exactly one device
        self._device_free_us = [0.0] * config.devices
        self._responses: list[Response] = []
        self._batches: list[_BatchRecord] = []
        self._schedules: dict[tuple, object] = {}
        #: batch popped from the batcher but not yet handed to completion
        #: tasks — must still be failed if the service loop dies mid-batch
        self._inflight: list[PendingEntry] = []
        self._completions: set[asyncio.Task] = set()
        self._loop_task: asyncio.Task | None = None
        self._arrival: asyncio.Event | None = None
        self._stopping = False
        self._stopped = False

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> "ServeBroker":
        """Spawn the service loop (idempotent)."""
        if self._loop_task is None:
            self._arrival = asyncio.Event()
            self._loop_task = asyncio.ensure_future(self._loop())
        return self

    async def stop(self) -> ServingReport:
        """Drain the queue, stop the loop, and return the report."""
        if self._loop_task is not None and not self._stopped:
            self._stopping = True
            self._arrival.set()
            await self._loop_task
            if self._completions:
                await asyncio.gather(*list(self._completions))
        self._stopped = True
        return self.report()

    # -- client API ------------------------------------------------------------

    async def submit(
        self, tenant: str, frame: int, deadline_us: float | None = None
    ) -> Response:
        """Submit one frame; resolves when the request leaves the system.

        ``deadline_us`` is relative to arrival (virtual time).  Rejected
        requests resolve immediately — rejection is the broker answering
        *early*, not an exception.
        """
        if self._loop_task is None:
            raise ReproError("broker not started: call start() first")
        if self._stopped:
            raise ReproError("broker is stopped")
        now = self.clock.now_us
        request = Request(
            rid=next(self._rid),
            tenant=tenant,
            frame=frame,
            arrival_us=now,
            deadline_us=None if deadline_us is None else now + deadline_us,
        )
        self.tracer.event(
            f"request:{request.rid}", category="serve",
            stage="arrive", tenant=tenant, frame=frame,
        )
        if not self.quota.try_take(tenant, now):
            return self._reject(request, REJECT_QUOTA)
        backlog_us = max(0.0, min(self._device_free_us) - now)
        reason = self.admission.admit(request, len(self.batcher), backlog_us)
        if reason is not None:
            return self._reject(request, reason)
        future = asyncio.get_running_loop().create_future()
        self.batcher.push(PendingEntry(request, future))
        self._set_queue_gauge()
        self.tracer.event(
            f"request:{request.rid}", category="serve", stage="enqueue",
            depth=len(self.batcher),
        )
        self._arrival.set()
        return await future

    # -- service loop ----------------------------------------------------------

    async def _loop(self) -> None:
        try:
            await self._serve_forever()
        except BaseException as err:
            # fail every waiting client instead of stalling the clock
            stranded = list(self._inflight)
            self._inflight = []
            while len(self.batcher):
                stranded.extend(self.batcher.take())
            for entry in stranded:
                if not entry.future.done():
                    entry.future.set_exception(
                        ReproError(f"serve loop failed: {err}")
                    )
            raise

    async def _serve_forever(self) -> None:
        cfg = self.config
        while True:
            if not len(self.batcher):
                if self._stopping:
                    break
                self._arrival.clear()
                await self._arrival.wait()
                continue
            now = self.clock.now_us
            est = self.admission.batch_estimate_us(
                min(len(self.batcher), cfg.max_batch)
            )
            flush_at = self.batcher.next_flush_at_us(est)
            if min(self._device_free_us) <= now:
                # some device is idle: holding requests back cannot help —
                # coalescing only wins while every device is occupied by a
                # previous batch (the continuous-batching argument, applied
                # fleet-wide)
                flush_at = float("-inf")
            if flush_at > now and not self._stopping:
                # race the flush timer against new arrivals (which may
                # fill the batch and flush early)
                self._arrival.clear()
                sleeper = asyncio.ensure_future(self.clock.sleep_until(flush_at))
                waker = asyncio.ensure_future(self._arrival.wait())
                _, pending = await asyncio.wait(
                    {sleeper, waker}, return_when=asyncio.FIRST_COMPLETED
                )
                for p in pending:
                    p.cancel()
                continue
            now = self.clock.now_us
            for entry in self.batcher.expire(now):
                self._finish_unserved(entry, now)
            batch = self.batcher.take()
            self._inflight = batch
            self._set_queue_gauge()
            if not batch:
                continue
            self.degrade.evaluate(
                now,
                [e.request.arrival_us for e in batch]
                + self.batcher.queued_arrivals_us(),
                est,
            )
            degraded = self.degrade.degraded and self.degraded_job is not None
            # dispatch to the device that vacates first (ties -> lowest
            # index): the fleet analogue of the single serial resource
            device = min(
                range(len(self._device_free_us)),
                key=self._device_free_us.__getitem__,
            )
            start_us = max(now, self._device_free_us[device])
            outcome = self._execute_batch(batch, degraded)
            self._device_free_us[device] = start_us + outcome.makespan_us
            self.admission.observe_batch(len(batch), outcome.makespan_us)
            bid = next(self._batch_id)
            self._batches.append(_BatchRecord(
                batch_id=bid, size=len(batch), degraded=degraded,
                start_us=start_us, makespan_us=outcome.makespan_us,
                program=outcome.program, device=device,
            ))
            self.registry.histogram(
                "repro_serve_batch_size", buckets=(1, 2, 4, 8, 16, 32)
            ).observe(len(batch))
            for i, entry in enumerate(batch):
                response = Response(
                    request=entry.request,
                    status=STATUS_OK,  # finalised at completion time
                    degraded=degraded,
                    served_size=outcome.size_name,
                    batch_id=bid,
                    batch_size=len(batch),
                    start_us=start_us,
                    outputs=outcome.outputs[i],
                    validated=outcome.validated[i],
                )
                task = asyncio.ensure_future(
                    self._complete(entry, response, start_us + outcome.offsets_us[i])
                )
                self._completions.add(task)
                task.add_done_callback(self._completions.discard)
            self._inflight = []
            # each device is a serial resource: the next batch cannot start
            # (and should not flush) before the earliest one vacates
            await self.clock.sleep_until(min(self._device_free_us))

    def _execute_batch(self, batch: list[PendingEntry], degraded: bool) -> _BatchOutcome:
        job = self.degraded_job if degraded else self.job
        with use_tracer(self.tracer):
            with self.tracer.span(
                f"serve-batch:{job.name}", category="serve",
                size=len(batch), degraded=degraded,
            ) as span:
                program = job.compile(self.cache)
                ipf = job.instances_per_frame
                runs = len(batch) * ipf
                key = (job.name, id(program), runs)
                schedule = self._schedules.get(key)
                if schedule is None:
                    schedule = self._schedules[key] = build_schedule(
                        program, self.executor, runs=runs,
                        depth=self.config.depth, serialize=self.config.serialize,
                    )
                ends = [0.0] * len(batch)
                for run, (_, end) in schedule.run_spans_us.items():
                    i = run // ipf
                    ends[i] = max(ends[i], end)
                outputs: list[dict | None] = [None] * len(batch)
                validated = [False] * len(batch)
                if self.config.execute == "all":
                    for i, entry in enumerate(batch):
                        outputs[i], validated[i] = self._run_request(
                            job, program, entry.request
                        )
                span.set(makespan_us=schedule.makespan_us, runs=runs)
                return _BatchOutcome(
                    makespan_us=schedule.makespan_us,
                    offsets_us=ends,
                    outputs=outputs,
                    validated=validated,
                    program=program.name,
                    size_name=getattr(getattr(job, "size", None), "name", "") or "",
                )

    def _run_request(self, job: PipelineJob, program, request: Request):
        """Functionally execute one request; bit-exact against the golden."""
        merged: dict[str, np.ndarray] = {}
        validated = True
        for instance in range(job.instances_per_frame):
            result = self.executor.run(program, job.env(request.frame, instance))
            expected = job.golden(request.frame, instance, program)
            if expected is None:
                validated = False
                merged.update(result.outputs)
                continue
            for name, want in expected.items():
                got = result.outputs.get(name)
                if got is None or not np.array_equal(got, want):
                    raise ReproError(
                        f"serve {job.name}: output {name!r} of request "
                        f"{request.rid} (frame {request.frame}, instance "
                        f"{instance}) is not bit-exact against the golden "
                        f"reference"
                    )
                # one output per instance on the SaC route: key by instance
                merged[name if job.instances_per_frame == 1 else f"{name}[{instance}]"] = got
        return merged, validated

    async def _complete(self, entry: PendingEntry, response: Response, at_us: float):
        await self.clock.sleep_until(at_us)
        response.finish_us = self.clock.now_us
        deadline = entry.request.deadline_us
        if deadline is not None and response.finish_us > deadline:
            response.status = STATUS_MISSED
        self.degrade.record_latency(response.latency_us)
        self._record(response)
        self.tracer.event(
            f"request:{entry.request.rid}", category="serve",
            stage="complete", status=response.status,
            latency_us=round(response.latency_us, 3),
        )
        entry.future.set_result(response)

    # -- bookkeeping -----------------------------------------------------------

    def _reject(self, request: Request, reason: str) -> Response:
        response = Response(request=request, status=STATUS_REJECTED, reason=reason)
        self._record(response)
        self.tracer.event(
            f"request:{request.rid}", category="serve",
            stage="reject", reason=reason,
        )
        return response

    def _finish_unserved(self, entry: PendingEntry, now_us: float) -> None:
        """A queued request whose deadline lapsed: missed, never served."""
        response = Response(
            request=entry.request, status=STATUS_MISSED,
            start_us=now_us, finish_us=now_us,
        )
        self.degrade.record_latency(response.latency_us)
        self._record(response)
        entry.future.set_result(response)

    def _record(self, response: Response) -> None:
        self._responses.append(response)
        self.registry.counter(
            "repro_serve_requests_total",
            tenant=response.request.tenant, status=response.status,
        ).inc()
        if not response.rejected:
            self.registry.histogram(
                "repro_serve_latency_us",
                buckets=latency_buckets(self.config.slo_us),
            ).observe(response.latency_us)
        if response.degraded:
            self.registry.counter("repro_serve_degraded_total").inc()

    def _set_queue_gauge(self) -> None:
        self.registry.gauge("repro_serve_queue_depth").set(len(self.batcher))

    # -- reporting -------------------------------------------------------------

    @property
    def responses(self) -> list[Response]:
        return list(self._responses)

    def report(self) -> ServingReport:
        responses = sorted(self._responses, key=lambda r: r.request.rid)
        served = [r for r in responses if not r.rejected]
        rejected = [r for r in responses if r.rejected]
        latencies = [r.latency_us for r in served]
        by_reason: dict[str, int] = {}
        for r in rejected:
            by_reason[r.reason] = by_reason.get(r.reason, 0) + 1
        per_tenant: dict[str, dict[str, int]] = {}
        for r in responses:
            t = per_tenant.setdefault(
                r.request.tenant, {"ok": 0, "missed": 0, "rejected": 0}
            )
            t[r.status] += 1
        duration_us = max(
            [self.clock.now_us] + [r.finish_us for r in served]
        )
        ok = sum(1 for r in served if r.ok)
        sizes = [b.size for b in self._batches]
        devices = self.config.devices
        per_device: dict[str, dict] = {}
        for k in range(devices):
            mine = [b for b in self._batches if b.device == k]
            busy = sum(b.makespan_us for b in mine)
            per_device[f"d{k}"] = {
                "batches": len(mine),
                "frames": sum(b.size for b in mine),
                "busy_us": round(busy, 3),
                "utilisation": round(busy / duration_us, 4) if duration_us else 0.0,
            }
        return ServingReport(
            job=self.job.name,
            config=self.config,
            offered=len(responses),
            completed_ok=ok,
            completed_missed=sum(1 for r in served if r.status == STATUS_MISSED),
            rejected=len(rejected),
            rejected_by_reason=by_reason,
            degraded_served=sum(1 for r in served if r.degraded),
            validated=sum(1 for r in served if r.validated),
            batches=len(self._batches),
            batch_size_mean=float(np.mean(sizes)) if sizes else 0.0,
            batch_size_max=max(sizes, default=0),
            latency_p50_us=float(np.percentile(latencies, 50)) if latencies else 0.0,
            latency_p95_us=float(np.percentile(latencies, 95)) if latencies else 0.0,
            latency_p99_us=float(np.percentile(latencies, 99)) if latencies else 0.0,
            duration_us=duration_us,
            goodput_rps=ok / (duration_us / 1e6) if duration_us > 0 else 0.0,
            offered_rps=(
                len(responses) / (duration_us / 1e6) if duration_us > 0 else 0.0
            ),
            queue_depth_high_water=self.batcher.depth_high_water,
            degrade_transitions=len(self.degrade.transitions),
            per_tenant=per_tenant,
            admission=self.admission.as_dict(),
            quota=self.quota.as_dict(),
            degrade=self.degrade.as_dict(),
            cache=self.cache.stats.as_dict(),
            devices=devices,
            per_device=per_device,
        )
