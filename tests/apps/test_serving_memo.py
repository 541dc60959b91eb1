"""Per-frame and per-program memoisation in the downscaler pipeline jobs.

``env()`` and ``golden()`` are called independently per (frame, instance);
before memoisation every call re-synthesised and re-split the frame, so a
three-channel SaC frame paid for six syntheses.  The jobs now memoise per
frame behind a small LRU: exactly one synthesis per distinct frame, an
LRU bound on memory, and frozen arrays so a mutating consumer faults.

``compile()`` runs once per frame too; a job builds its compile inputs
(SaC source text, Gaspard2 model) on the first call and holds them, and
holds no reference cycle, so dropping a job frees it at once.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.apps.downscaler import serving
from repro.apps.downscaler.config import FrameSize
from repro.apps.downscaler.serving import GaspardDownscalerJob, SacDownscalerJob
from repro.runtime.cache import CompileCache
from repro.runtime.pipeline import FramePipeline

TINY = FrameSize(18, 16, "tiny")


@pytest.fixture
def synth_calls(monkeypatch):
    """Count calls into ``synthetic_frame`` as the serving jobs see it."""
    calls: list[int] = []
    real = serving.synthetic_frame

    def counting(size, t):
        calls.append(t)
        return real(size, t)

    monkeypatch.setattr(serving, "synthetic_frame", counting)
    return calls


def test_sac_job_synthesises_each_frame_once(synth_calls):
    job = SacDownscalerJob(TINY)
    program = job.compile(FramePipeline().cache)
    for frame in range(3):
        for instance in range(3):
            job.env(frame, instance)
            job.golden(frame, instance, program)
    # 3 frames x 3 instances x (env + golden) = 18 consumer calls,
    # but each distinct frame is synthesised exactly once
    assert sorted(synth_calls) == [0, 1, 2]


def test_gaspard_pipeline_run_synthesises_each_frame_once(synth_calls):
    pipe = FramePipeline(validate="all")
    report = pipe.run(GaspardDownscalerJob(TINY), frames=4)
    assert report.validated_instances == 4
    assert sorted(synth_calls) == [0, 1, 2, 3]


def test_lru_bound_evicts_oldest_frame(synth_calls):
    job = GaspardDownscalerJob(TINY, frame_cache=2)
    job.env(0, 0)
    job.env(1, 0)
    job.env(2, 0)  # evicts frame 0
    job.env(0, 0)  # re-synthesised
    assert synth_calls == [0, 1, 2, 0]


def test_memoised_arrays_are_frozen():
    job = GaspardDownscalerJob(TINY)
    env = job.env(0, 0)
    with pytest.raises(ValueError):
        env["in_r"][0, 0] = 99
    golden = job.golden(0, 0, None)
    with pytest.raises(ValueError):
        golden["out_r"][0, 0] = 99
    # the cache still serves intact values afterwards
    assert np.array_equal(env["in_r"], job.env(0, 0)["in_r"])


@pytest.fixture
def input_builds(monkeypatch):
    """Count calls into the compile-input builders as the jobs see them."""
    calls = {"downscaler_model": 0, "downscaler_program_source": 0}
    for name in calls:
        real = getattr(serving, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(serving, name, counting)
    return calls


@pytest.mark.parametrize(
    "job_class, builder",
    [
        (SacDownscalerJob, "downscaler_program_source"),
        (GaspardDownscalerJob, "downscaler_model"),
    ],
    ids=["sac", "gaspard"],
)
def test_compile_inputs_are_built_once_per_job(input_builds, job_class, builder):
    job = job_class(TINY)
    report = FramePipeline(validate="none").run(job, 20)
    assert input_builds[builder] == 1
    # every frame still asks the cache: one miss, then hits
    assert (report.cache.hits, report.cache.misses) == (19, 1)
    FramePipeline(validate="none").run(job, 2)
    assert input_builds[builder] == 1
    job_class(TINY).compile(CompileCache())
    assert input_builds[builder] == 2  # a new job builds its own


@pytest.mark.parametrize(
    "job_class", [SacDownscalerJob, GaspardDownscalerJob], ids=["sac", "gaspard"]
)
def test_dropped_job_is_freed_without_the_cyclic_collector(job_class):
    job = job_class(TINY)
    program = job.compile(CompileCache())
    job.env(0, 0)
    job.golden(0, 0, program)
    ref = weakref.ref(job)
    gc.disable()
    try:
        del job
        assert ref() is None
    finally:
        gc.enable()
