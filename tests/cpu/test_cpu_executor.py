"""Unit tests for the sequential executor."""

import numpy as np
import pytest

from repro.cpu import CPUExecutor
from repro.errors import DeviceError
from repro.gpu import CostModel, UNCALIBRATED
from repro.ir import (
    AllocDevice,
    ArrayParam,
    BinOp,
    Const,
    DeviceProgram,
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


def double_kernel(n=8):
    return Kernel(
        name="double",
        space=IndexSpace((0,), (n,)),
        arrays=(
            ArrayParam("x", (n,), intent="in"),
            ArrayParam("y", (n,), intent="out"),
        ),
        body=(
            Store("y", (ThreadIdx(0),), BinOp("*", Read("x", (ThreadIdx(0),)), Const(2))),
        ),
    )


def seq_program():
    k = double_kernel()
    return DeviceProgram(
        name="p_seq",
        ops=(
            AllocDevice("y", (8,)),
            LaunchKernel(k, (("x", "x"), ("y", "y"))),
        ),
        host_inputs=("x",),
        host_outputs=("y",),
    )


def executor():
    return CPUExecutor(CostModel(UNCALIBRATED))


class TestRun:
    def test_functional(self):
        x = np.arange(8, dtype=np.int32)
        res = executor().run(seq_program(), {"x": x})
        np.testing.assert_array_equal(res.outputs["y"], x * 2)

    def test_sequential_cost_charged(self):
        res = executor().run(seq_program(), {"x": np.zeros(8, np.int32)})
        # 8 items x (1 read + 1 write + 1 flop) / 100 ops/us
        assert res.loop_us == pytest.approx(8 * 3 / 100.0)
        assert res.total_us == res.loop_us + res.host_us

    def test_price_lists_each_op_duration_in_op_order(self):
        ex = executor()
        res = ex.run(seq_program(), {"x": np.zeros(8, np.int32)})
        assert ex.price(seq_program()) == (0.0, res.loop_us)

    def test_kernel_time_cached(self):
        ex = executor()
        k = double_kernel()
        assert ex.kernel_time_us(k) == ex.kernel_time_us(k)
        assert len(ex._kernel_time_cache) == 1

    def test_host_compute(self):
        def fn(env):
            env["out"] = env["x"] + 1

        prog = DeviceProgram(
            name="p",
            ops=(
                HostCompute("step", fn, reads=("x",), writes=("out",),
                            work=HostWork(items=8)),
            ),
            host_inputs=("x",),
            host_outputs=("out",),
        )
        res = executor().run(prog, {"x": np.arange(8)})
        np.testing.assert_array_equal(res.outputs["out"], np.arange(8) + 1)
        assert res.host_us > 0

    def test_free_removes_buffer(self):
        k = double_kernel()
        prog = DeviceProgram(
            name="p",
            ops=(
                AllocDevice("y", (8,)),
                LaunchKernel(k, (("x", "x"), ("y", "y"))),
                FreeDevice("y"),
            ),
            host_inputs=("x",),
            host_outputs=(),
        )
        res = executor().run(prog, {"x": np.zeros(8, np.int32)})
        assert res.outputs == {}

    def test_missing_input(self):
        with pytest.raises(DeviceError, match="missing host inputs"):
            executor().run(seq_program(), {})

    def test_transfer_ops_rejected(self):
        prog = DeviceProgram(
            name="p", ops=(AllocDevice("d", (4,)), HostToDevice("x", "d")),
            host_inputs=("x",),
        )
        with pytest.raises(DeviceError, match="transfer"):
            executor().run(prog, {"x": np.zeros(4, np.int32)})

    def test_timing_only_replay(self):
        ex = executor()
        ex.run(seq_program(), {"x": np.zeros(8, np.int32)})
        res = ex.run(seq_program(), functional=False)
        assert res.outputs == {}
        assert res.total_us > 0

    def test_missing_output_detected(self):
        prog = DeviceProgram(name="p", ops=(), host_outputs=("ghost",))
        with pytest.raises(DeviceError, match="without outputs"):
            executor().run(prog, {})
