"""FramePipeline: the batched frame server and its metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.downscaler import CIF
from repro.apps.downscaler.serving import (
    GaspardDownscalerJob,
    SacDownscalerJob,
    downscaler_job,
)
from repro.errors import ReproError
from repro.runtime import FramePipeline, PipelineJob, schedule_violations


def test_sac_job_serves_channel_batches():
    pipe = FramePipeline()
    report = pipe.run(downscaler_job("sac", size=CIF), frames=5)
    assert report.frames == 5
    assert report.instances == 15  # three RGB channel runs per frame
    assert report.validated_instances == 1
    # compile stage: one real compilation, then a hit per frame
    assert report.cache.misses == 1
    assert report.cache.hits == 4
    assert report.overlapped_us < report.serial_us
    assert report.frames_per_second > 0
    assert 0 < report.latency_p50_us <= report.latency_p95_us
    assert report.transfer_share_serial > 0
    assert set(report.engine_occupancy) >= {"h2d", "compute", "d2h"}


def test_gaspard_job_serves_frames():
    pipe = FramePipeline()
    report = pipe.run(downscaler_job("gaspard", size=CIF), frames=4)
    assert report.instances == 4
    assert (report.cache.misses, report.cache.hits) == (1, 3)
    assert report.overlapped_us < report.serial_us


def test_shared_cache_spans_pipelines():
    cache_owner = FramePipeline()
    again = FramePipeline(cache=cache_owner.cache)
    cache_owner.run(downscaler_job("gaspard", size=CIF), frames=2)
    report = again.run(downscaler_job("gaspard", size=CIF), frames=2)
    # the second pipeline never compiles: every frame is a hit
    assert (report.cache.misses, report.cache.hits) == (0, 2)


def test_serialize_ablation_restores_serial_total():
    pipe = FramePipeline(serialize=True, validate="none")
    report = pipe.run(downscaler_job("sac", size=CIF), frames=3)
    assert report.overlapped_us == pytest.approx(report.serial_us, abs=1e-6)


def test_validation_failure_is_loud():
    class LyingJob(SacDownscalerJob):
        def golden(self, frame, instance, program):
            good = super().golden(frame, instance, program)
            return {k: v + 1 for k, v in good.items()}

    with pytest.raises(ReproError, match="not bit-exact"):
        FramePipeline().run(LyingJob(size=CIF), frames=1)


def test_validate_all_checks_every_instance():
    pipe = FramePipeline(validate="all")
    report = pipe.run(downscaler_job("gaspard", size=CIF), frames=2)
    assert report.validated_instances == 2


def test_as_dict_is_json_ready():
    import json

    report = FramePipeline(validate="none").run(downscaler_job("sac", size=CIF), 2)
    doc = json.loads(json.dumps(report.as_dict()))
    assert doc["job"] == "sac-nongeneric"
    assert doc["cache"]["misses"] == 1
    assert doc["speedup"] >= 1.0


# -- transfer accounting (regression) ------------------------------------------


class ProgramJob(PipelineJob):
    """Serves one fixed hand-built program (no golden: nothing validates)."""

    def __init__(self, program):
        self.program = program
        self.name = program.name

    def compile(self, cache):
        return self.program


def _transfer_us(report) -> float:
    return report.transfer_share_serial * report.serial_us


def test_transfer_accounting_over_an_opt_fused_program():
    """Regression: the pipeline once priced transfers by duck-typing on
    ``hasattr(op, "nbytes")``, which silently miscounted once the
    optimiser started rewriting programs.  The transfer time now comes
    off the schedule, so it agrees with the executor on fused/pooled
    programs."""
    from repro.opt import OptOptions

    pipe = FramePipeline(validate="none")
    job = downscaler_job("sac", size=CIF, opt=OptOptions())
    report = pipe.run(job, frames=2)
    program = job.compile(pipe.cache)

    once = pipe.executor.run(program, functional=False)
    want = (once.h2d_us + once.d2h_us) * report.instances
    assert _transfer_us(report) == pytest.approx(want, rel=1e-9)


def test_transfer_accounting_ignores_lookalike_ops():
    """An op that merely *carries* buffer/nbytes attributes (the old
    duck-typing trigger) must not redefine a buffer's size."""
    from repro.ir import (
        AllocDevice,
        DeviceProgram,
        DeviceToHost,
        FreeDevice,
        HostToDevice,
    )

    class AnnotatedFree(FreeDevice):
        """A free annotated with the size it releases."""

        @property
        def nbytes(self) -> int:
            return 8  # the wrong size, if anyone trusted it

    program = DeviceProgram(
        "lookalike",
        ops=(
            AllocDevice("d", (64,)),
            HostToDevice("h_in", "d"),
            DeviceToHost("d", "h_out"),
            AnnotatedFree("d"),
        ),
        host_inputs=("h_in",),
        host_outputs=("h_out",),
    )
    pipe = FramePipeline()
    report = pipe.run(ProgramJob(program), frames=1)
    cost = pipe.executor.cost
    nbytes = AllocDevice("d", (64,)).nbytes
    want = cost.h2d_time_us(nbytes) + cost.d2h_time_us(nbytes)
    assert _transfer_us(report) == pytest.approx(want)


def test_partial_upload_counts_its_region_bytes():
    """Regression: the pipeline priced every transfer at its whole buffer
    size, while the scheduler and the executor price a ``region=`` upload
    at the region's bytes."""
    from repro.ir import AllocDevice, DeviceProgram, DeviceToHost, HostToDevice

    shape = (8, 8)
    program = DeviceProgram(
        "partial_up",
        ops=(
            AllocDevice("d", shape),
            HostToDevice("h_in", "d", region=((0, 2, 1), (0, shape[1], 1))),
            DeviceToHost("d", "h_out"),
        ),
        host_inputs=("h_in",),
        host_outputs=("h_out",),
    )
    pipe = FramePipeline()
    report = pipe.run(ProgramJob(program), frames=3)
    cost = pipe.executor.cost
    region = 2 * shape[1] * np.dtype(np.int32).itemsize
    whole = AllocDevice("d", shape).nbytes
    want = 3 * (cost.h2d_time_us(region) + cost.d2h_time_us(whole))
    assert _transfer_us(report) == pytest.approx(want, rel=1e-9)
    # the executor prices the same program the same way
    once = pipe.executor.run(program, functional=False)
    assert want == pytest.approx(3 * (once.h2d_us + once.d2h_us), rel=1e-9)


def test_transfer_on_unknown_buffer_is_diagnosed():
    from repro.ir import AllocDevice, DeviceProgram, DeviceToHost, HostToDevice

    program = DeviceProgram(
        "phantom",
        ops=(
            AllocDevice("d", (8,)),
            HostToDevice("h_in", "ghost"),
            DeviceToHost("d", "h_out"),
        ),
        host_inputs=("h_in",),
        host_outputs=("h_out",),
    )
    with pytest.raises(
        ReproError, match="H2D into unallocated buffer 'ghost'.*'d'"
    ):
        FramePipeline().run(ProgramJob(program), frames=1)


@pytest.fixture(scope="module")
def warm_jobs():
    """Jobs pre-compiled through a shared cache so the property test only
    pays for scheduling."""
    cache_pipe = FramePipeline(validate="none")
    jobs = {
        "sac": SacDownscalerJob(size=CIF),
        "gaspard": GaspardDownscalerJob(size=CIF),
    }
    for job in jobs.values():
        job.compile(cache_pipe.cache)
    return jobs, cache_pipe.cache


@settings(max_examples=25, deadline=None)
@given(
    route=st.sampled_from(["sac", "gaspard"]),
    frames=st.integers(1, 6),
    depth=st.one_of(st.none(), st.integers(1, 4)),
    serialize=st.booleans(),
)
def test_double_buffered_schedule_respects_all_dependences(
    warm_jobs, route, frames, depth, serialize
):
    """Property: whatever the frame count, buffering depth and serialise
    knob, the pipeline's schedule violates no engine-FIFO, RAW, WAW or WAR
    (slot recycling) constraint, and never beats the dependence-free lower
    bound."""
    jobs, cache = warm_jobs
    pipe = FramePipeline(depth=depth, serialize=serialize, cache=cache,
                         validate="none")
    report = pipe.run(jobs[route], frames=frames)
    schedule = report.schedule
    assert schedule_violations(schedule) == []
    assert report.overlapped_us <= report.serial_us + 1e-6
    # lower bound: the busiest engine can never idle below its busy time
    busiest = max(schedule.engine_busy_us(e) for e in schedule.engines)
    assert report.overlapped_us >= busiest - 1e-6
