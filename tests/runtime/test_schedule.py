"""The three-engine scheduler: pipelining, knobs and dependence safety."""

import numpy as np
import pytest

from repro.apps.downscaler import GENERIC, NONGENERIC
from repro.gpu import UNCALIBRATED, CostModel, GPUExecutor
from repro.ir import (
    AllocDevice,
    ArrayParam,
    BinOp,
    Const,
    DeviceProgram,
    DeviceToHost,
    FreeDevice,
    HostCompute,
    HostToDevice,
    HostWork,
    IndexSpace,
    Kernel,
    LaunchKernel,
    Read,
    Store,
    ThreadIdx,
)
from repro.runtime import build_schedule, schedule_violations

ENGINES = ("h2d", "compute", "d2h")


def pipeline_program(n=64):
    """Upload -> one kernel -> download: the pure streaming shape."""
    k = Kernel(
        name="work",
        space=IndexSpace((0,), (n,)),
        arrays=(
            ArrayParam("src", (n,), intent="in"),
            ArrayParam("dst", (n,), intent="out"),
        ),
        body=(
            Store("dst", (ThreadIdx(0),), BinOp("+", Read("src", (ThreadIdx(0),)), Const(1))),
        ),
    )
    return DeviceProgram(
        name="pipe",
        ops=(
            AllocDevice("d_in", (n,)),
            AllocDevice("d_out", (n,)),
            HostToDevice("h_in", "d_in"),
            LaunchKernel(k, (("src", "d_in"), ("dst", "d_out"))),
            DeviceToHost("d_out", "h_out"),
            FreeDevice("d_in"),
            FreeDevice("d_out"),
        ),
        host_inputs=("h_in",),
        host_outputs=("h_out",),
    )


@pytest.fixture()
def pipe_executor():
    ex = GPUExecutor(CostModel(UNCALIBRATED))
    ex.run(pipeline_program(), {"h_in": np.zeros(64, np.int32)})
    return ex


def unbounded(program, executor, runs):
    """``runs`` back-to-back runs with private buffers per run."""
    return build_schedule(program, executor, runs=runs, depth=None)


class TestPipelining:
    def test_single_run_cannot_overlap(self, pipe_executor):
        s = unbounded(pipeline_program(), pipe_executor, 1)
        assert s.makespan_us == pytest.approx(s.serial_us)
        assert s.speedup == pytest.approx(1.0)

    def test_many_runs_pipeline(self, pipe_executor):
        s = unbounded(pipeline_program(), pipe_executor, 50)
        assert s.makespan_us < s.serial_us
        # steady state is bounded below by the busiest engine
        busiest = max(s.engine_busy_us(e) for e in ENGINES)
        assert s.makespan_us >= busiest
        assert s.makespan_us < busiest * 1.5  # most of the rest is hidden

    def test_serial_total_matches_executor(self, pipe_executor):
        prog = pipeline_program()
        res = pipe_executor.run(prog, functional=False)
        s = unbounded(prog, pipe_executor, 3)
        assert s.serial_us == pytest.approx(res.total_us * 3)

    def test_dependences_respected(self, pipe_executor):
        s = unbounded(pipeline_program(), pipe_executor, 3)
        for run in range(3):
            by_name = {n.name: n for n in s.run_nodes(run)}
            h2d, kernel, d2h = (
                by_name["h2d:d_in"], by_name["work"], by_name["d2h:d_out"]
            )
            assert kernel.start_us >= h2d.end_us
            assert d2h.start_us >= kernel.end_us
        assert schedule_violations(s) == []

    def test_host_step_blocks_pipeline(self, pipe_executor):
        """A per-run host step (the generic output tiler) serialises."""
        base = pipeline_program()

        def sink(env):
            pass

        ops = list(base.ops[:-2])  # keep allocs/copies/launch
        ops.append(
            HostCompute("host:ot", sink, reads=("h_out",), writes=("done",),
                        work=HostWork(items=1000, flops_per_item=1,
                                      reads_per_item=0, writes_per_item=0))
        )
        prog = DeviceProgram(
            name="pipe_host",
            ops=tuple(ops),
            host_inputs=("h_in",),
            host_outputs=("h_out",),
        )
        pipe_executor.run(prog, {"h_in": np.zeros(64, np.int32)})
        s = unbounded(prog, pipe_executor, 20)
        # the host step forces every next run to wait: no pipelining win
        assert s.speedup == pytest.approx(1.0, abs=0.05)


def test_nongeneric_pipelines_generic_does_not():
    """Streaming hides the transfers only for the fully-fused variant;
    the generic variant's host output tiler blocks every frame."""
    from repro.apps.downscaler import downscaler_program_source
    from repro.apps.downscaler.config import FrameSize
    from repro.apps.downscaler.video import synthetic_frame
    from repro.gpu import GTX480_CALIBRATED
    from repro.sac.backend import CompileOptions, compile_function
    from repro.sac.parser import parse

    size = FrameSize(rows=18, cols=16, name="tiny")
    frame = synthetic_frame(size, 0)[..., 0]
    # transfer-heavy parameters make the pipelining headroom visible at
    # this tiny test size (at HD the calibrated model gives ~1.9x for
    # the non-generic variant — see EXPERIMENTS.md)
    params = GTX480_CALIBRATED.with_overrides(
        launch_overhead_us=5.0,
        h2d_bandwidth=10.0,
        d2h_bandwidth=10.0,
        transfer_latency_us=50.0,
    )
    speedups = {}
    for variant in (NONGENERIC, GENERIC):
        prog = parse(downscaler_program_source(size, variant))
        cf = compile_function(prog, "downscale", CompileOptions(target="cuda"))
        ex = GPUExecutor(CostModel(params))
        ex.run(cf.program, {"frame": frame})
        speedups[variant] = unbounded(cf.program, ex, 30).speedup
    assert speedups[NONGENERIC] > 1.3
    assert speedups[GENERIC] == pytest.approx(1.0, abs=0.05)


def test_serialize_knob_restores_serial_total(sac_programs, executor):
    program = sac_programs[NONGENERIC]
    schedule = build_schedule(program, executor, runs=3, serialize=True)
    assert schedule.makespan_us == pytest.approx(schedule.serial_us, abs=1e-6)
    assert schedule.serialize


def test_overlap_never_exceeds_serial(sac_programs, gaspard_program, executor):
    for program in (*sac_programs.values(), gaspard_program):
        for depth in (1, 2, None):
            s = build_schedule(program, executor, runs=4, depth=depth)
            assert s.makespan_us <= s.serial_us + 1e-6
            assert schedule_violations(s) == []


def test_deeper_buffering_never_slower(toy_program, executor):
    """More slots can only relax WAR constraints: makespan is monotonically
    non-increasing in depth (on the host-step-free streaming program)."""
    spans = [
        build_schedule(toy_program, executor, runs=6, depth=d).makespan_us
        for d in (1, 2, 3, None)
    ]
    assert spans == sorted(spans, reverse=True)
    assert spans[0] > spans[-1]  # depth actually binds on this program


def test_recycled_slots_shared_across_runs(toy_program, executor):
    s = build_schedule(toy_program, executor, runs=4, depth=2)
    assert s.depth == 2
    slots = {r for n in s.nodes for _, r in n.writes if "@s" in r}
    assert all(r.rsplit("@s", 1)[1] in ("0", "1") for r in slots)


def test_engine_metrics(sac_programs, executor):
    s = build_schedule(sac_programs[NONGENERIC], executor, runs=3)
    occ = s.engine_occupancy()
    for engine in ("h2d", "compute", "d2h"):
        assert 0.0 < occ[engine] <= 1.0 + 1e-9
        assert s.engine_busy_us(engine) > 0.0
    lat = s.latencies_us(batch=1)
    assert len(lat) == 3
    assert all(v > 0 for v in lat)


def _schedule_of(nodes):
    from repro.runtime.schedule import PipelineSchedule

    return PipelineSchedule(
        program="hand-built", runs=1, depth=1, serialize=False,
        serial_us=sum(n.end_us - n.start_us for n in nodes), nodes=tuple(nodes),
    )


def _node(id, engine, start, end):
    from repro.runtime.schedule import ScheduledNode

    return ScheduledNode(
        id=id, run=0, op_index=id, name=f"{engine}{id}", engine=engine,
        start_us=start, end_us=end,
    )


def test_host_barrier_violations_still_detected():
    """Regression guard for the single-pass host check: a node issued
    after a host step but starting before it ends, and a host step
    overlapping an earlier one, are both reported."""
    bad = _schedule_of([
        _node(0, "host", 0.0, 10.0),
        _node(1, "compute", 5.0, 8.0),   # issued after host 0, starts inside it
        _node(2, "host", 8.0, 12.0),     # starts before host 0 ends
    ])
    problems = schedule_violations(bad)
    assert any(p.startswith("host barrier: node 1") for p in problems)
    assert any(p.startswith("host: node 2") for p in problems)

    good = _schedule_of([
        _node(0, "host", 0.0, 10.0),
        _node(1, "compute", 10.0, 12.0),
        _node(2, "host", 12.0, 13.0),
        _node(3, "d2h", 13.0, 14.0),
    ])
    assert schedule_violations(good) == []


def test_host_barrier_tracks_latest_ending_host_step():
    """The barrier is the latest-*ending* host step issued so far, not
    merely the last one issued."""
    bad = _schedule_of([
        _node(0, "host", 0.0, 20.0),
        _node(1, "host", 20.0, 21.0),
        _node(2, "compute", 20.5, 22.0),  # clears host 0, not host 1
    ])
    assert any("node 2" in p for p in schedule_violations(bad))
    ok = _schedule_of([
        _node(0, "host", 0.0, 20.0),
        _node(1, "host", 20.0, 21.0),
        _node(2, "compute", 21.0, 22.0),
    ])
    assert schedule_violations(ok) == []


def test_rejects_bad_arguments(sac_programs, executor):
    with pytest.raises(ValueError):
        build_schedule(sac_programs[NONGENERIC], executor, runs=0)
    with pytest.raises(ValueError):
        build_schedule(sac_programs[NONGENERIC], executor, runs=1, depth=-1)
