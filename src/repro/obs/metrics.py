"""Metrics registry: one snapshot/diff interface over the runtime counters.

The runtime grew ad-hoc counters in three places — compile-cache
hit/miss/invalidation (:class:`~repro.runtime.cache.CacheStats`), device
allocator traffic (:class:`~repro.gpu.memory.MemoryManager`), and
schedule engine busy/occupancy (:class:`~repro.runtime.schedule.
PipelineSchedule`).  :class:`MetricsRegistry` absorbs them behind one
labelled counter/gauge/histogram model with

* :meth:`~MetricsRegistry.as_dict` — JSON-ready, stable key order;
* :meth:`~MetricsRegistry.render_text` — Prometheus-style exposition;
* :meth:`~MetricsRegistry.snapshot` / :meth:`~MetricsRegistry.since` —
  point-in-time capture and monotonic-series deltas.

The ``collect_*`` helpers map each runtime object onto stable series
names; ``repro metrics`` drives them from the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "collect_cache",
    "collect_memory",
    "collect_schedule",
    "collect_pipeline_report",
    "collect_serving_report",
]


@dataclass
class Counter:
    """A monotonically increasing total."""

    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only increase")
        self.value += amount

    def set(self, value: float) -> None:
        """Absorb an externally tracked total (collector use)."""
        self.value = float(value)


@dataclass
class Gauge:
    """A point-in-time value."""

    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


@dataclass
class Histogram:
    """A distribution summary: count/sum/min/max plus bucket counts."""

    buckets: tuple[float, ...] = ()
    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")
    bucket_counts: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.buckets = tuple(sorted(self.buckets))
        if not self.bucket_counts:
            self.bucket_counts = [0] * len(self.buckets)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[i] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        out = {
            "count": self.count,
            "sum": round(self.total, 6),
            "min": round(self.min, 6) if self.count else None,
            "max": round(self.max, 6) if self.count else None,
            "mean": round(self.mean, 6),
        }
        if self.buckets:
            out["buckets"] = {
                f"le_{b:g}": c for b, c in zip(self.buckets, self.bucket_counts)
            }
        return out


def _series(name: str, labels: dict) -> str:
    if not labels:
        return name
    inner = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Keeps labelled metric series; creation is get-or-create."""

    def __init__(self) -> None:
        #: (name, sorted-label-items) -> metric object
        self._metrics: dict[tuple[str, tuple[tuple[str, str], ...]], object] = {}
        self._kinds: dict[str, str] = {}

    def _get(self, kind: str, name: str, labels: dict, factory):
        known = self._kinds.setdefault(name, kind)
        if known != kind:
            raise ValueError(
                f"metric {name!r} already registered as a {known}, not a {kind}"
            )
        key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = factory()
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get("counter", name, labels, Counter)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get("gauge", name, labels, Gauge)

    def histogram(self, name: str, buckets: tuple[float, ...] = (), **labels) -> Histogram:
        return self._get(
            "histogram", name, labels, lambda: Histogram(buckets=buckets)
        )

    def __len__(self) -> int:
        return len(self._metrics)

    def _sorted_items(self):
        return sorted(self._metrics.items(), key=lambda kv: (kv[0][0], kv[0][1]))

    def as_dict(self) -> dict:
        """``{series: value}`` with histogram series expanded to dicts."""
        out: dict = {}
        for (name, labels), metric in self._sorted_items():
            series = _series(name, dict(labels))
            if isinstance(metric, Histogram):
                out[series] = metric.as_dict()
            else:
                out[series] = metric.value
        return out

    def render_text(self) -> str:
        """Prometheus-style text exposition."""
        lines: list[str] = []
        last_name = None
        for (name, labels), metric in self._sorted_items():
            kind = self._kinds[name]
            if name != last_name:
                lines.append(f"# TYPE {name} {kind}")
                last_name = name
            series = _series(name, dict(labels))
            if isinstance(metric, Histogram):
                base, braces = name, series[len(name):]
                for i, bound in enumerate(metric.buckets):
                    blabels = dict(labels)
                    blabels["le"] = f"{bound:g}"
                    lines.append(
                        f"{_series(base + '_bucket', blabels)} "
                        f"{metric.bucket_counts[i]}"
                    )
                lines.append(f"{base}_count{braces} {metric.count}")
                lines.append(f"{base}_sum{braces} {metric.total:g}")
            else:
                lines.append(f"{series} {metric.value:g}")
        return "\n".join(lines) + ("\n" if lines else "")

    # -- snapshot / diff ------------------------------------------------------

    def snapshot(self) -> dict:
        """A deep point-in-time capture (the :meth:`as_dict` document)."""
        return self.as_dict()

    def since(self, earlier: dict) -> dict:
        """Deltas of monotonic series (counters, histogram count/sum)
        relative to an earlier :meth:`snapshot`; gauges report their
        current value unchanged."""
        now = self.as_dict()
        out: dict = {}
        kinds = {
            _series(name, dict(labels)): self._kinds[name]
            for (name, labels) in self._metrics
        }
        for series, value in now.items():
            kind = kinds.get(series, "gauge")
            prev = earlier.get(series)
            if kind == "counter" and isinstance(prev, (int, float)):
                out[series] = value - prev
            elif kind == "histogram" and isinstance(prev, dict):
                out[series] = {
                    "count": value["count"] - prev.get("count", 0),
                    "sum": round(value["sum"] - prev.get("sum", 0.0), 6),
                }
            else:
                out[series] = value
        return out


# -- collectors: absorb the runtime's existing counters -----------------------


def collect_cache(reg: MetricsRegistry, stats, **labels) -> None:
    """Absorb a :class:`~repro.runtime.cache.CacheStats`."""
    reg.counter("repro_compile_cache_hits_total", **labels).set(stats.hits)
    reg.counter("repro_compile_cache_misses_total", **labels).set(stats.misses)
    reg.counter(
        "repro_compile_cache_invalidations_total", **labels
    ).set(stats.invalidations)
    reg.gauge("repro_compile_cache_hit_rate", **labels).set(stats.hit_rate)


def collect_memory(reg: MetricsRegistry, memory, **labels) -> None:
    """Absorb a :class:`~repro.gpu.memory.MemoryManager`'s accounting."""
    reg.counter("repro_device_allocs_total", **labels).set(memory.alloc_count)
    reg.counter("repro_device_frees_total", **labels).set(memory.free_count)
    reg.counter("repro_device_pool_hits_total", **labels).set(memory.pool_hits)
    reg.gauge("repro_device_bytes_in_use", **labels).set(memory.bytes_in_use)
    reg.gauge("repro_device_peak_bytes", **labels).set(memory.peak_bytes)
    reg.gauge("repro_device_pool_bytes", **labels).set(memory.pool_bytes)


def collect_schedule(reg: MetricsRegistry, schedule, **labels) -> None:
    """Absorb a :class:`~repro.runtime.schedule.PipelineSchedule`."""
    reg.gauge("repro_schedule_makespan_us", **labels).set(schedule.makespan_us)
    reg.gauge("repro_schedule_serial_us", **labels).set(schedule.serial_us)
    reg.gauge("repro_schedule_nodes", **labels).set(schedule.node_count)
    occupancy = schedule.engine_occupancy()
    for engine in schedule.engines:
        reg.gauge(
            "repro_engine_busy_us", engine=engine, **labels
        ).set(schedule.engine_busy_us(engine))
        reg.gauge(
            "repro_engine_occupancy", engine=engine, **labels
        ).set(occupancy[engine])


def collect_pipeline_report(reg: MetricsRegistry, report, **labels) -> None:
    """Absorb a :class:`~repro.runtime.pipeline.PipelineReport` — the
    per-phase totals behind the paper's Figure 9 phase breakdown."""
    reg.gauge("repro_pipeline_frames_per_second", **labels).set(
        report.frames_per_second
    )
    reg.gauge("repro_pipeline_latency_p50_us", **labels).set(report.latency_p50_us)
    reg.gauge("repro_pipeline_latency_p95_us", **labels).set(report.latency_p95_us)
    reg.gauge("repro_pipeline_serial_us", **labels).set(report.serial_us)
    reg.gauge("repro_pipeline_overlapped_us", **labels).set(report.overlapped_us)
    reg.gauge("repro_pipeline_transfer_share_serial", **labels).set(
        report.transfer_share_serial
    )
    reg.counter("repro_pipeline_frames_total", **labels).set(report.frames)
    reg.counter("repro_pipeline_instances_total", **labels).set(report.instances)
    reg.counter("repro_pipeline_validated_total", **labels).set(
        report.validated_instances
    )
    collect_cache(reg, report.cache, **labels)
    if report.schedule is not None:
        collect_schedule(reg, report.schedule, **labels)


def collect_serving_report(reg: MetricsRegistry, report, **labels) -> None:
    """Absorb a :class:`~repro.serve.broker.ServingReport`'s aggregates.

    The broker already streams per-request counters/histograms into its
    own registry as it serves; this collector covers the *end-of-life*
    aggregates (percentiles, goodput, state-machine totals) so a scrape
    of a finished run needs only one registry.
    """
    reg.gauge("repro_serving_goodput_rps", **labels).set(report.goodput_rps)
    reg.gauge("repro_serving_offered_rps", **labels).set(report.offered_rps)
    reg.gauge("repro_serving_latency_p50_us", **labels).set(report.latency_p50_us)
    reg.gauge("repro_serving_latency_p95_us", **labels).set(report.latency_p95_us)
    reg.gauge("repro_serving_latency_p99_us", **labels).set(report.latency_p99_us)
    reg.gauge("repro_serving_batch_size_mean", **labels).set(report.batch_size_mean)
    reg.gauge(
        "repro_serving_queue_depth_high_water", **labels
    ).set(report.queue_depth_high_water)
    reg.counter("repro_serving_offered_total", **labels).set(report.offered)
    reg.counter("repro_serving_ok_total", **labels).set(report.completed_ok)
    reg.counter("repro_serving_missed_total", **labels).set(report.completed_missed)
    reg.counter("repro_serving_rejected_total", **labels).set(report.rejected)
    for reason, count in sorted(report.rejected_by_reason.items()):
        reg.counter(
            "repro_serving_rejected_by_reason_total", reason=reason, **labels
        ).set(count)
    reg.counter("repro_serving_degraded_total", **labels).set(report.degraded_served)
    reg.counter("repro_serving_batches_total", **labels).set(report.batches)
    for device, stats in sorted(getattr(report, "per_device", {}).items()):
        reg.gauge(
            "repro_serving_device_busy_us", device=device, **labels
        ).set(stats["busy_us"])
        reg.gauge(
            "repro_serving_device_utilisation", device=device, **labels
        ).set(stats["utilisation"])
        reg.counter(
            "repro_serving_device_batches_total", device=device, **labels
        ).set(stats["batches"])
        reg.counter(
            "repro_serving_device_frames_total", device=device, **labels
        ).set(stats["frames"])
    reg.counter(
        "repro_serving_degrade_transitions_total", **labels
    ).set(report.degrade_transitions)
    reg.counter("repro_serving_validated_total", **labels).set(report.validated)
