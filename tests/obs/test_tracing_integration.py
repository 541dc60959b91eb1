"""Tracing threaded through the runtime: span coverage, zero perturbation."""

import pytest

from repro.apps.downscaler import CIF
from repro.apps.downscaler.serving import downscaler_job
from repro.obs import Tracer
from repro.opt import OptOptions
from repro.runtime import FramePipeline


def _report_key(report):
    d = report.as_dict()
    d.pop("cache", None)  # identical anyway, but keep the key minimal
    return d


def test_tracing_does_not_perturb_the_report():
    """Acceptance: fps/p50/p95 and every other reported number are
    identical with tracing on and off — all durations are modelled, the
    tracer only measures host wall clock alongside."""
    plain = FramePipeline(validate="none").run(
        downscaler_job("sac", size=CIF), frames=3
    )
    traced_pipe = FramePipeline(validate="none", tracer=Tracer())
    traced = traced_pipe.run(downscaler_job("sac", size=CIF), frames=3)
    assert _report_key(traced) == _report_key(plain)
    assert traced.frames_per_second == plain.frames_per_second
    assert traced.latency_p95_us == plain.latency_p95_us


def test_pipeline_run_records_every_stage():
    tracer = Tracer()
    pipe = FramePipeline(tracer=tracer)
    pipe.run(downscaler_job("gaspard", size=CIF), frames=2)

    (root,) = tracer.roots()
    assert root.name == "pipeline:gaspard"
    stages = [s.name for s in tracer.children(root)]
    assert stages == ["compile-stage", "validate-stage", "schedule-stage"]

    (compile_stage,) = tracer.find("compile-stage")
    assert compile_stage.attrs == {"hits": 1, "misses": 1}
    # the cache recorded the miss as a compile span, the hit as an instant
    compile_spans = tracer.find("compile:gaspard")
    assert [s.attrs["cache"] for s in compile_spans] == ["miss", "hit"]
    assert compile_spans[0].parent_id == compile_stage.id

    # validation executed the program under the executor's span
    (execute,) = tracer.find("execute:Downscaler_opencl")
    assert execute.attrs["functional"] is True
    assert execute.attrs["total_us"] > 0

    # the scheduler recorded its node count and makespan
    (sched,) = tracer.find("build_schedule:Downscaler_opencl")
    assert sched.attrs["runs"] == 2
    assert sched.attrs["nodes"] > 0
    assert sched.attrs["makespan_us"] > 0


def test_opt_passes_record_spans():
    tracer = Tracer()
    pipe = FramePipeline(validate="none", tracer=tracer)
    pipe.run(
        downscaler_job("sac", size=CIF, opt=OptOptions()), frames=1
    )
    (opt_span,) = tracer.find("opt:downscale_cuda")
    passes = [s.name for s in tracer.children(opt_span)]
    # passes iterate to fixpoint, so names repeat; coverage and the
    # bookend order (dce first, certification last) are what matter
    assert set(passes) == {
        "opt-pass:dce",
        "opt-pass:transfer-elimination",
        "opt-pass:fusion",
        "opt-pass:sibling-fusion",
        "opt-pass:pooling",
        "opt-pass:certify",
    }
    assert passes[0] == "opt-pass:dce"
    assert passes[-1] == "opt-pass:certify"
    assert opt_span.attrs["ops_after"] <= opt_span.attrs["ops_before"]
    # all of it happened inside the cache's compile-miss span
    (miss,) = [s for s in tracer.find("compile:sac")
               if s.attrs.get("cache") == "miss"]
    assert opt_span.start_us >= miss.start_us
    assert opt_span.end_us <= miss.end_us


def test_ambient_tracer_reaches_pipeline_without_constructor_arg():
    with Tracer() as tracer:
        FramePipeline(validate="none").run(
            downscaler_job("gaspard", size=CIF), frames=1
        )
    assert tracer.find("pipeline:gaspard")
    assert tracer.find("build_schedule:Downscaler_opencl")


def test_unbounded_schedule_records_span():
    """``depth=None`` (the overlap experiment's private buffers per run)
    is recorded as one slot per run."""
    from repro.apps.downscaler import NONGENERIC, downscaler_program_source
    from repro.gpu import GTX480_CALIBRATED, CostModel, GPUExecutor
    from repro.runtime import build_schedule
    from repro.sac.backend import CompileOptions, compile_function
    from repro.sac.parser import parse

    cf = compile_function(
        parse(downscaler_program_source(CIF, NONGENERIC)), "downscale",
        CompileOptions(target="cuda"),
    )
    ex = GPUExecutor(CostModel(GTX480_CALIBRATED))
    with Tracer() as tracer:
        schedule = build_schedule(cf.program, ex, runs=2, depth=None)
    (span,) = tracer.find("build_schedule:downscale_cuda")
    assert span.attrs["runs"] == span.attrs["depth"] == 2
    assert span.attrs["makespan_us"] == schedule.makespan_us > 0
