"""Per-layer attribution of a traced run: span tree -> layer self times.

Every span of a traced worker maps to exactly one layer.  The benchmark's
own spans (category ``"bench"``) are named after their layer; the spans
the program already emits are mapped by name and category (``compile:*``
cache misses, ``opt-pass:*``, ``build_schedule:*``, ``execute:*``, the
``FramePipeline`` stages, ``serve-batch:*``).  A layer's self time is the
duration of its spans minus the part of each interval that child spans
cover, so the layer times of one run add up to its traced wall time.

This module imports nothing from ``repro``: it works on any objects with
the :class:`repro.obs.span.Span` attributes, and ``run.py`` imports it
for the layer catalogue without loading the program.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

#: the Gaspard2 OpenCL chain, in ``standard_chain()`` order
ARRAYOL_PASSES = (
    "validate", "flatten_hierarchy", "schedule", "bind_buffers",
    "map_ndranges", "generate_kernels", "emit_program", "emit_sources",
)
#: ``repro.opt`` passes with an ``opt-pass:*`` span
OPT_PASSES = (
    "dce", "transfer-elimination", "fusion", "sibling-fusion", "pooling", "certify",
)

#: layers whose span contains other layers: reported as ``.self_s``
_NESTING_LAYERS = ("runtime.pipeline", "serve.broker", "tune.search")
#: layers that are benchmark glue, not program work
GLUE_LAYERS = ("bench.setup", "other")


@dataclass(frozen=True)
class Layer:
    """One row of the layer catalogue."""

    metric: str
    unit: str
    better: str
    #: the public call whose span carries this layer
    timed: str
    #: the end-to-end metric a change to this layer should move
    moves: str
    #: workloads the metric is measured on ("all" = every workload)
    on: str
    #: emitted on every workload's traced run (listed in BENCHMARK.json)
    everywhere: bool = True


def _s(metric, timed, moves, on="all", everywhere=True):
    return Layer(metric, "s", "lower", timed, moves, on, everywhere)


def _n(metric, timed, moves, better="lower", on="all", everywhere=True, unit="count"):
    return Layer(metric, unit, better, timed, moves, on, everywhere)


_COLD = "setup_s"
_ONLY_TUNE = "tune-cif"
_ONLY_SERVE = "serve-cif"

CATALOGUE: tuple[Layer, ...] = (
    _s("sac.parse.s", "repro.sac.parse", _COLD),
    _s("sac.check.s", "check_program + typecheck_program", _COLD),
    _s("sac.opt.s", "repro.sac.opt.optimize_program",
       f"{_COLD}; sac.ops_per_s on tune-cif"),
    _s("sac.backend.s", "compile_function(optimize=False, check=False)",
       f"{_COLD}; sac.ops_per_s on tune-cif"),
    _n("sac.backend.kernels", "CompiledFunction.kernel_count", "sac.checked_ms"),
    _n("sac.backend.host_steps", "CompiledFunction.host_step_count", "sac.checked_ms"),
    _s("ir.validate.s", "repro.ir.validate.validate_program", _COLD),
    _s("arrayol.model.s", "downscaler_model + downscaler_allocation", _COLD),
    *(
        _s(f"arrayol.transform.{p}.s", f"ModelPass({p!r}).apply",
           f"{_COLD}; gaspard.ops_per_s on tune-cif")
        for p in ARRAYOL_PASSES
    ),
    _s("gpu.probe.s", "GPUExecutor.kernel_cost_inputs, per distinct kernel, cold", _COLD),
    _n("gpu.probe.kernels", "distinct kernels probed", _COLD),
    _s("runtime.cache.s", "job.compile(cache): keying, lookups, hit path",
       "gaspard.ops_per_s on paper-hd and serve-cif"),
    _s("runtime.cache.lookup_s",
       "one job.compile(cache) on a warm cache (median, summed over routes)",
       "gaspard.ops_per_s on paper-hd and serve-cif"),
    _n("runtime.cache.hits", "CompileCache hit events", "-", better="higher"),
    _n("runtime.cache.misses", "CompileCache miss spans", _COLD),
    _n("runtime.cache.hit_rate", "hits / (hits + misses)", "-", better="higher", unit="ratio"),
    _s("runtime.schedule.s", "repro.runtime.build_schedule",
       "*.ops_per_s on paper-hd and tune-cif"),
    _n("runtime.schedule.nodes", "PipelineSchedule nodes built", "*.ops_per_s"),
    _s("gpu.execute.s", "GPUExecutor.run, functional", "*.checked_ms"),
    _n("gpu.execute.runs", "GPUExecutor.run calls", "*.checked_ms"),
    _s("runtime.pipeline.self_s", "FramePipeline.run minus its child layers",
       "*.ops_per_s and *.checked_ms on paper-hd"),
    _s("bench.oracle.s", "reference.downscale_frame (golden prewarm)", "none: benchmark side"),
    _s("bench.inputs.s", "synthetic_frame + channel split (input prewarm)",
       "none: benchmark side"),
    _n("trace.overhead_ratio", "traced / untraced wall time of the measured phases",
       "-", unit="ratio"),
    _n("trace.coverage", "layer self time / traced wall time", "-", better="higher",
       unit="ratio"),
    # layers that only one workload exercises: reported in the table and
    # the --json report, not in the result line
    *(
        _s(f"opt.{p}.s", f"opt-pass:{p} span under tune()", "*.ops_per_s on tune-cif",
           on=_ONLY_TUNE, everywhere=False)
        for p in OPT_PASSES
    ),
    _s("opt.pipeline.s", "optimize_program minus its passes", "*.ops_per_s on tune-cif",
       on=_ONLY_TUNE, everywhere=False),
    _s("tune.search.self_s", "repro.tune.tune minus its child layers",
       "*.ops_per_s on tune-cif", on=_ONLY_TUNE, everywhere=False),
    _n("tune.search.candidates", "TuneResult.candidates", "-", better="higher",
       on=_ONLY_TUNE, everywhere=False),
    _n("tune.search.evaluations", "TuneResult.evaluations", "*.ops_per_s on tune-cif",
       on=_ONLY_TUNE, everywhere=False),
    _n("tune.search.rejected", "TuneResult.rejected", "*.ops_per_s on tune-cif",
       on=_ONLY_TUNE, everywhere=False),
    _n("tune.search.waste_ratio", "rejected / evaluations", "*.ops_per_s on tune-cif",
       on=_ONLY_TUNE, everywhere=False, unit="ratio"),
    _s("serve.broker.self_s", "run_open_loop minus serve-batch:* spans",
       "*.ops_per_s on serve-cif", on=_ONLY_SERVE, everywhere=False),
    _s("serve.batch.s", "serve-batch:* spans minus their children (cache hit, offsets)",
       "gaspard.ops_per_s on serve-cif", on=_ONLY_SERVE, everywhere=False),
    _n("serve.broker.batches", "serve-batch:* spans", "*.ops_per_s on serve-cif",
       on=_ONLY_SERVE, everywhere=False),
    _n("serve.broker.batch_size_mean", "mean serve-batch size", "*.ops_per_s on serve-cif",
       better="higher", on=_ONLY_SERVE, everywhere=False, unit="requests"),
)

EVERYWHERE = tuple(layer for layer in CATALOGUE if layer.everywhere)


def layer_of(span) -> str:
    """The layer one span's self time is charged to."""
    name, cat = span.name, span.category
    if cat == "bench":
        return name
    if name.startswith("opt-pass:"):
        return "opt." + name.split(":", 1)[1]
    if cat == "opt":
        return "opt.pipeline"
    # compile-stage is the pipeline's per-frame job.compile(cache) loop
    if cat == "compile" or name == "compile-stage":
        return "runtime.cache"
    if cat == "schedule":
        return "runtime.schedule"
    if cat == "execute":
        return "gpu.execute"
    if cat in ("pipeline", "pipeline-stage"):
        return "runtime.pipeline"
    if cat == "serve":
        return "serve.batch"
    return "other"


def _covered_us(start: float, end: float, children) -> float:
    """Length of [start, end] covered by the union of child intervals."""
    covered, cursor = 0.0, start
    for c_start, c_end in sorted(children):
        lo, hi = max(c_start, cursor), min(c_end, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def self_times(spans) -> dict[str, float]:
    """Seconds of self time per layer over a list of finished spans."""
    children = defaultdict(list)
    for s in spans:
        if s.parent_id is not None:
            children[s.parent_id].append((s.start_us, s.end_us))
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        if s.end_us <= s.start_us:
            continue  # instants (cache hits, request events) take no time
        own = (s.end_us - s.start_us) - _covered_us(s.start_us, s.end_us, children[s.id])
        out[layer_of(s)] += own / 1e6
    return dict(out)


def root_wall_s(spans) -> float:
    """Traced wall time: the summed duration of the root spans."""
    return sum(s.end_us - s.start_us for s in spans if s.parent_id is None) / 1e6


def span_counts(spans) -> dict[str, float]:
    """The per-layer counts that spans carry (attributes or span counts)."""
    counts: dict[str, float] = defaultdict(float)
    for s in spans:
        layer = layer_of(s)
        if s.category == "compile":
            counts["runtime.cache.hits" if s.attrs.get("cache") == "hit"
                   else "runtime.cache.misses"] += 1
        elif layer == "gpu.probe":
            counts["gpu.probe.kernels"] += 1
        elif layer == "sac.backend":
            counts["sac.backend.kernels"] += s.attrs.get("kernels", 0)
            counts["sac.backend.host_steps"] += s.attrs.get("host_steps", 0)
        elif layer == "runtime.schedule":
            counts["runtime.schedule.nodes"] += s.attrs.get("nodes", 0)
        elif layer == "gpu.execute":
            counts["gpu.execute.runs"] += 1
        elif s.name.startswith("serve-batch:"):
            counts["serve.broker.batches"] += 1
            # summed over routes by run.py, which divides by batches
            counts["serve.broker.batch_requests"] += s.attrs.get("size", 0)
    return dict(counts)


def time_metric(layer: str) -> str:
    """Metric name of a layer's self time."""
    return f"{layer}.self_s" if layer in _NESTING_LAYERS else f"{layer}.s"
