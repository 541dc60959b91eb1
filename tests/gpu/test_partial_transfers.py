"""Executor semantics and pricing of region-restricted transfers."""

import numpy as np

from repro.gpu import GTX480_CALIBRATED, CostModel, GPUExecutor
from repro.ir import (
    AllocDevice,
    ArrayParam,
    BinOp,
    Const,
    DeviceProgram,
    DeviceToHost,
    HostToDevice,
    IndexSpace,
    Kernel,
    LaunchKernel,
    Read,
    Store,
    ThreadIdx,
)

SHAPE = (8, 8)
H_IN = np.arange(64, dtype=np.int32).reshape(SHAPE)


def _plus_one() -> Kernel:
    return Kernel(
        name="plus_one",
        space=IndexSpace((0, 0), SHAPE),
        arrays=(
            ArrayParam("src", SHAPE, intent="in"),
            ArrayParam("dst", SHAPE, intent="out"),
        ),
        body=(
            Store(
                "dst",
                (ThreadIdx(0), ThreadIdx(1)),
                BinOp("+", Read("src", (ThreadIdx(0), ThreadIdx(1))), Const(1)),
            ),
        ),
    )


def _rows(lo, hi):
    return ((lo, hi, 1), (0, SHAPE[1], 1))


def _executor():
    return GPUExecutor(CostModel(GTX480_CALIBRATED))


class TestPartialUpload:
    def test_partial_upload_touches_only_the_region(self):
        # zero the buffer, then upload only rows [0, 4): the bottom half
        # must keep the zeros, not pick up host data
        prog = DeviceProgram(
            "partial_up",
            ops=(
                AllocDevice("d", SHAPE),
                HostToDevice("h_zero", "d"),
                HostToDevice("h_in", "d", region=_rows(0, 4)),
                DeviceToHost("d", "h_out"),
            ),
            host_inputs=("h_zero", "h_in"),
            host_outputs=("h_out",),
        )
        env = {"h_zero": np.zeros(SHAPE, dtype=np.int32), "h_in": H_IN}
        out = _executor().run(prog, env).outputs["h_out"]
        want = np.zeros(SHAPE, dtype=np.int32)
        want[0:4] = H_IN[0:4]
        assert np.array_equal(out, want)

    def test_partial_upload_priced_at_region_bytes(self):
        prog = DeviceProgram(
            "partial_up_cost",
            ops=(
                AllocDevice("d", SHAPE),
                HostToDevice("h_in", "d", region=_rows(0, 2)),
            ),
            host_inputs=("h_in",),
            host_outputs=(),
        )
        ex = _executor()
        res = ex.run(prog, {"h_in": H_IN})
        region_us = ex.cost.h2d_time_us(2 * SHAPE[1] * H_IN.itemsize)
        assert region_us < ex.cost.h2d_time_us(H_IN.nbytes)
        assert ex.price(prog) == (0.0, region_us)
        assert res.h2d_us == region_us


class TestPartialDownload:
    def test_partial_download_merges_over_prior_host_values(self):
        # h_out already exists (from the earlier full download); the
        # partial download must only refresh rows [0, 4)
        prog = DeviceProgram(
            "partial_down",
            ops=(
                AllocDevice("d_a", SHAPE),
                AllocDevice("d_b", SHAPE),
                HostToDevice("h_in", "d_a"),
                DeviceToHost("d_a", "h_out"),
                LaunchKernel(_plus_one(), (("src", "d_a"), ("dst", "d_b"))),
                DeviceToHost("d_b", "h_out", region=_rows(0, 4)),
            ),
            host_inputs=("h_in",),
            host_outputs=("h_out",),
        )
        out = _executor().run(prog, {"h_in": H_IN}).outputs["h_out"]
        want = H_IN.copy()
        want[0:4] = H_IN[0:4] + 1
        assert np.array_equal(out, want)

    def test_partial_download_without_prior_host_array_zero_fills(self):
        prog = DeviceProgram(
            "partial_down_fresh",
            ops=(
                AllocDevice("d", SHAPE),
                HostToDevice("h_in", "d"),
                DeviceToHost("d", "h_out", region=_rows(4, 8)),
            ),
            host_inputs=("h_in",),
            host_outputs=("h_out",),
        )
        out = _executor().run(prog, {"h_in": H_IN}).outputs["h_out"]
        want = np.zeros(SHAPE, dtype=np.int32)
        want[4:8] = H_IN[4:8]
        assert np.array_equal(out, want)

    def test_partial_download_priced_at_region_bytes(self):
        prog = DeviceProgram(
            "partial_down_cost",
            ops=(
                AllocDevice("d", SHAPE),
                HostToDevice("h_in", "d"),
                DeviceToHost("d", "h_out", region=_rows(0, 1)),
            ),
            host_inputs=("h_in",),
            host_outputs=("h_out",),
        )
        ex = _executor()
        res = ex.run(prog, {"h_in": H_IN})
        region_us = ex.cost.d2h_time_us(SHAPE[1] * H_IN.itemsize)
        assert region_us < ex.cost.d2h_time_us(H_IN.nbytes)
        assert ex.price(prog) == (0.0, ex.cost.h2d_time_us(H_IN.nbytes), region_us)
        assert res.d2h_us == region_us
