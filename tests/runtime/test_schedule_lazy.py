"""The report, serving and tuning paths never make a schedule's nodes.

A built :class:`~repro.runtime.schedule.PipelineSchedule` keeps its
timeline as columns and makes its ``nodes`` on first read, keeping them
in the instance ``__dict__``.  These paths read only totals off the
columns, so after each of them the nodes must still be absent there: a
regression to eager nodes fails here, not only in the wall benchmark.
"""

import pytest

from repro.apps.downscaler.config import FrameSize
from repro.apps.downscaler.serving import downscaler_job
from repro.obs import Tracer
from repro.obs.metrics import MetricsRegistry, collect_pipeline_report
from repro.runtime import CompileCache, FramePipeline, build_schedule
from repro.serve import ServeBroker, ServeConfig, run_open_loop
from repro.tune import ConvolutionSubject, tune

#: the smallest frame the downscaler's tilers accept
TINY = FrameSize(18, 16, "tiny")


def made(schedule) -> bool:
    return "nodes" in schedule.__dict__


@pytest.fixture
def builds(monkeypatch):
    """``builds(module)``: the schedules ``module`` builds from now on."""

    def record(module) -> list:
        schedules = []

        def build(*args, **kwargs):
            schedules.append(build_schedule(*args, **kwargs))
            return schedules[-1]

        monkeypatch.setattr(module, "build_schedule", build)
        return schedules

    return record


@pytest.mark.parametrize("devices", [1, 2])
@pytest.mark.parametrize("route", ["sac", "gaspard"])
def test_frame_pipeline_reports_without_nodes(route, devices):
    tracer = Tracer()
    with tracer:
        report = FramePipeline(devices=devices).run(
            downscaler_job(route, size=TINY), 3
        )
    collect_pipeline_report(MetricsRegistry(), report)
    schedule = report.schedule
    assert report.overlapped_us > 0 and report.engine_busy_us
    assert not made(schedule)
    # the traced node count is the column length, which the nodes match
    (span,) = [s for s in tracer.spans if s.category == "schedule"]
    assert span.attrs["nodes"] == schedule.node_count == len(schedule.nodes)
    assert made(schedule)


def test_serve_batches_schedule_without_nodes(builds):
    import repro.serve.broker

    schedules = builds(repro.serve.broker)
    broker = ServeBroker(
        downscaler_job("gaspard", size=TINY), ServeConfig(execute="none"),
        cache=CompileCache(),
    )
    responses, _ = run_open_loop(broker, rate_rps=1000.0, requests=4, tenants=1)
    assert all(r.ok for r in responses)
    assert schedules and not any(made(s) for s in schedules)


def test_tuner_costs_candidates_without_nodes(builds):
    import repro.tune.search

    schedules = builds(repro.tune.search)
    result = tune(ConvolutionSubject("gaspard"), budget=4, seed=0, validate=False)
    assert result.candidates == 4
    assert schedules and not any(made(s) for s in schedules)
