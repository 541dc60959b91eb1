"""Unit tests for the GPU executor and its per-op prices."""

import numpy as np
import pytest

from repro.apps.downscaler import CIF, HD, NONGENERIC, reference
from repro.apps.downscaler.sac_sources import downscaler_program_source
from repro.apps.downscaler.video import channels_of, synthetic_frame
from repro.errors import DeviceError
from repro.gpu import GTX480_CALIBRATED, CostModel, GPUExecutor, UNCALIBRATED
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

    def test_price_lists_each_op_duration_in_op_order(self):
        ex = executor()
        program = add_one_program()
        res = ex.run(program, {"h_in": np.zeros((4, 8), np.int32)})
        # alloc, alloc, H2D, launch, D2H, free, free
        assert ex.price(program) == (
            0.0, 0.0, res.h2d_us, res.kernel_us, res.d2h_us, 0.0, 0.0
        )

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

    def test_timing_only_run_costs_exactly_the_functional_run(self):
        # what lets Tables I/II price one run and add it up per frame
        ex = executor()
        program = add_one_program()
        functional = ex.run(program, {"h_in": np.zeros((4, 8), np.int32)})
        replay = ex.run(program, functional=False)
        assert functional.outputs and replay.outputs == {}
        assert replay == functional  # every duration field, compared with ==

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
