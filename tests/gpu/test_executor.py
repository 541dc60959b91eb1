"""Unit tests for the profiler and the GPU executor."""

import numpy as np
import pytest

from repro.apps.downscaler import CIF, HD, NONGENERIC, reference
from repro.apps.downscaler.sac_sources import downscaler_program_source
from repro.apps.downscaler.video import channels_of, synthetic_frame
from repro.errors import DeviceError
from repro.gpu import GTX480_CALIBRATED, CostModel, GPUExecutor, Profiler, UNCALIBRATED
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
from repro.sac.backend import CompileOptions, compile_function
from repro.sac.parser import parse


def add_one_program(shape=(4, 8)):
    k = Kernel(
        name="add_one",
        space=IndexSpace((0, 0), shape),
        arrays=(
            ArrayParam("src", shape, intent="in"),
            ArrayParam("dst", shape, intent="out"),
        ),
        body=(
            Store(
                "dst",
                (ThreadIdx(0), ThreadIdx(1)),
                BinOp("+", Read("src", (ThreadIdx(0), ThreadIdx(1))), Const(1)),
            ),
        ),
    )
    return DeviceProgram(
        name="p",
        ops=(
            AllocDevice("d_in", shape),
            AllocDevice("d_out", shape),
            HostToDevice("h_in", "d_in"),
            LaunchKernel(k, (("src", "d_in"), ("dst", "d_out"))),
            DeviceToHost("d_out", "h_out"),
            FreeDevice("d_in"),
            FreeDevice("d_out"),
        ),
        host_inputs=("h_in",),
        host_outputs=("h_out",),
    )


def executor():
    return GPUExecutor(CostModel(UNCALIBRATED))


class TestProfiler:
    def test_rows_aggregate_and_percentages(self):
        p = Profiler()
        p.record("k1", "kernel", 30.0)
        p.record("k1", "kernel", 30.0)
        p.record("memcpyHtoDasync", "h2d", 40.0)
        rows = p.rows()
        assert [r.operation for r in rows] == ["k1", "memcpyHtoDasync"]
        assert rows[0].calls == 2
        assert rows[0].gpu_time_us == pytest.approx(60.0)
        assert rows[0].gpu_time_pct == pytest.approx(60.0)
        assert rows[1].gpu_time_pct == pytest.approx(40.0)

    def test_grouping(self):
        p = Profiler()
        p.record("hf_k0", "kernel", 10.0)
        p.record("hf_k1", "kernel", 10.0)
        p.record("vf_k0", "kernel", 20.0)
        rows = p.rows({"hf_k0": "H. Filter", "hf_k1": "H. Filter", "vf_k0": "V. Filter"})
        assert [r.operation for r in rows] == ["H. Filter", "V. Filter"]
        assert rows[0].calls == 2
        assert rows[0].gpu_time_us == pytest.approx(20.0)

    def test_category_totals(self):
        p = Profiler()
        p.record("a", "kernel", 1.0)
        p.record("b", "h2d", 2.0)
        p.record("c", "h2d", 3.0)
        assert p.total_by_category() == {"kernel": 1.0, "h2d": 5.0}
        assert p.calls_by_category() == {"kernel": 1, "h2d": 2}
        assert p.total_us == pytest.approx(6.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Profiler().record("x", "kernel", -1.0)


class TestExecutor:
    def test_functional_result(self):
        ex = executor()
        src = np.arange(32, dtype=np.int32).reshape(4, 8)
        res = ex.run(add_one_program(), {"h_in": src})
        np.testing.assert_array_equal(res.outputs["h_out"], src + 1)
        ex.memory.assert_no_leaks()

    def test_timing_components(self):
        ex = executor()
        src = np.zeros((4, 8), dtype=np.int32)
        res = ex.run(add_one_program(), {"h_in": src})
        assert res.h2d_us > 0
        assert res.d2h_us > 0
        assert res.kernel_us > 0
        assert res.total_us == pytest.approx(res.kernel_us + res.h2d_us + res.d2h_us)
        assert res.gpu_us == pytest.approx(res.total_us)  # no host ops

    def test_profiler_events_recorded(self):
        ex = executor()
        ex.run(add_one_program(), {"h_in": np.zeros((4, 8), np.int32)})
        assert ex.profiler.calls_of("memcpyHtoDasync") == 1
        assert ex.profiler.calls_of("memcpyDtoHasync") == 1
        assert ex.profiler.calls_of("add_one") == 1

    def test_missing_input_rejected(self):
        with pytest.raises(DeviceError, match="missing host inputs"):
            executor().run(add_one_program(), {})

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DeviceError, match="shape"):
            executor().run(add_one_program(), {"h_in": np.zeros((5, 8), np.int32)})

    def test_non_functional_replay_accrues_time_only(self):
        ex = executor()
        res = ex.run(add_one_program(), {"h_in": np.zeros((4, 8), np.int32)}, functional=False)
        assert res.total_us > 0
        assert res.outputs == {}

    def test_run_repeated_matches_single_run_timing(self):
        ex = executor()
        envs = [{"h_in": np.zeros((4, 8), np.int32)} for _ in range(3)]
        results = ex.run_repeated(add_one_program(), envs)
        assert len(results) == 3
        assert results[0].outputs  # functional
        assert results[1].outputs == {}  # replay
        assert results[0].total_us == pytest.approx(results[1].total_us)

    def test_kernel_cost_cache_reused(self):
        ex = executor()
        p = add_one_program()
        ex.run(p, {"h_in": np.zeros((4, 8), np.int32)})
        size = len(ex._kernel_cache)  # process-wide cache, shared
        ex.run(p, {"h_in": np.zeros((4, 8), np.int32)})
        assert len(ex._kernel_cache) == size  # identical kernel: no regrowth

    def test_host_compute_step(self):
        def fn(env):
            env["h_out"] = env["h_in"] * 2

        prog = DeviceProgram(
            name="host_only",
            ops=(
                HostCompute("double", fn, reads=("h_in",), writes=("h_out",),
                            work=HostWork(items=32)),
            ),
            host_inputs=("h_in",),
            host_outputs=("h_out",),
        )
        ex = executor()
        src = np.arange(4, dtype=np.int32)
        res = ex.run(prog, {"h_in": src})
        np.testing.assert_array_equal(res.outputs["h_out"], src * 2)
        assert res.host_us > 0
        assert res.gpu_us == 0.0

    def test_missing_output_detected(self):
        prog = DeviceProgram(name="empty", ops=(), host_outputs=("never",))
        with pytest.raises(DeviceError, match="without producing"):
            executor().run(prog, {})

    def test_breakdown_exposed(self):
        ex = executor()
        p = add_one_program()
        launch = [op for op in p.ops if isinstance(op, LaunchKernel)][0]
        b = ex.kernel_breakdown(launch.kernel)
        assert b.total_us > 0
        assert b.bound in ("issue", "memory")


@pytest.mark.parametrize("size", [CIF, HD])
def test_matches_numpy_golden(size):
    """The compiled SaC downscaler runs bit-exact against the NumPy
    reference, at the paper's HD frame size too."""
    program = compile_function(
        parse(downscaler_program_source(size, NONGENERIC)),
        "downscale",
        CompileOptions(target="cuda"),
    ).program
    channel = channels_of(synthetic_frame(size, 0))["g"]
    golden = reference.downscale_frame(channel, size)
    result = GPUExecutor(CostModel(GTX480_CALIBRATED)).run(
        program, {"frame": channel}
    )
    np.testing.assert_array_equal(result.outputs[program.host_outputs[0]], golden)
