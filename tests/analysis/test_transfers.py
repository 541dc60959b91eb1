"""Unit tests for the transfer-waste lint (XFER001/002/003)."""

from repro.analysis import find_transfer_waste
from repro.gpu import GTX480_CALIBRATED, CostModel, GPUExecutor
from repro.ir import (
    AllocDevice,
    ArrayParam,
    BinOp,
    Const,
    DeviceProgram,
    DeviceToHost,
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
from repro.opt import ProgramStats
from repro.runtime.fleet import upload_nbytes


def add_one_kernel(shape=(4, 8)):
    return Kernel(
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


def program(ops, inputs=("h_in",), outputs=("h_out",)):
    return DeviceProgram("p", ops=tuple(ops), host_inputs=inputs, host_outputs=outputs)


def by_code(diags, code):
    return [d for d in diags if d.code == code]


def test_clean_pipeline_has_no_waste():
    k = add_one_kernel()
    p = program(
        [
            AllocDevice("d_in", (4, 8)),
            AllocDevice("d_out", (4, 8)),
            HostToDevice("h_in", "d_in"),
            LaunchKernel(k, (("src", "d_in"), ("dst", "d_out"))),
            DeviceToHost("d_out", "h_out"),
        ]
    )
    assert find_transfer_waste(p) == []


def test_redundant_reupload_flagged():
    k = add_one_kernel()
    p = program(
        [
            AllocDevice("d_in", (4, 8)),
            AllocDevice("d_out", (4, 8)),
            HostToDevice("h_in", "d_in"),
            HostToDevice("h_in", "d_in"),  # identical copy already resident
            LaunchKernel(k, (("src", "d_in"), ("dst", "d_out"))),
            DeviceToHost("d_out", "h_out"),
        ]
    )
    diags = by_code(find_transfer_waste(p), "XFER001")
    assert len(diags) == 1
    d = diags[0]
    assert d.severity == "warning"
    assert "h_in" in d.message and "d_in" in d.message
    assert d.wasted_us is not None and d.wasted_us > 0


def test_reupload_after_host_write_not_flagged():
    # a host step rewrites h_in between the uploads, so the second H2D
    # carries fresh data and must not be flagged
    def touch(env):
        env["h_in"] = env["h_in"]

    k = add_one_kernel()
    p = program(
        [
            AllocDevice("d_in", (4, 8)),
            AllocDevice("d_out", (4, 8)),
            HostToDevice("h_in", "d_in"),
            HostCompute("touch", touch, reads=("h_in",), writes=("h_in",),
                        work=HostWork(items=1)),
            HostToDevice("h_in", "d_in"),
            LaunchKernel(k, (("src", "d_in"), ("dst", "d_out"))),
            DeviceToHost("d_out", "h_out"),
        ]
    )
    assert by_code(find_transfer_waste(p), "XFER001") == []


def test_dead_download_flagged():
    k = add_one_kernel()
    p = program(
        [
            AllocDevice("d_in", (4, 8)),
            AllocDevice("d_out", (4, 8)),
            HostToDevice("h_in", "d_in"),
            LaunchKernel(k, (("src", "d_in"), ("dst", "d_out"))),
            DeviceToHost("d_out", "h_scratch"),  # never read, not an output
            DeviceToHost("d_out", "h_out"),
        ]
    )
    diags = by_code(find_transfer_waste(p), "XFER002")
    assert len(diags) == 1
    assert "h_scratch" in diags[0].message
    assert diags[0].wasted_us is not None and diags[0].wasted_us > 0


def test_download_consumed_by_host_step_not_flagged():
    def use(env):
        env["h_out"] = env["h_scratch"]

    k = add_one_kernel()
    p = program(
        [
            AllocDevice("d_in", (4, 8)),
            AllocDevice("d_out", (4, 8)),
            HostToDevice("h_in", "d_in"),
            LaunchKernel(k, (("src", "d_in"), ("dst", "d_out"))),
            DeviceToHost("d_out", "h_scratch"),
            HostCompute("use", use, reads=("h_scratch",), writes=("h_out",),
                        work=HostWork(items=1)),
        ]
    )
    assert by_code(find_transfer_waste(p), "XFER002") == []


def test_never_launched_allocation_flagged():
    p = program(
        [
            AllocDevice("d_idle", (4, 8)),
            HostToDevice("h_in", "d_idle"),
            DeviceToHost("d_idle", "h_out"),
        ]
    )
    diags = by_code(find_transfer_waste(p), "XFER003")
    assert len(diags) == 1
    d = diags[0]
    assert "d_idle" in d.message
    # the round-trip transfer cost is attributed to the useless buffer
    assert d.wasted_us is not None and d.wasted_us > 0


def test_partial_transfers_move_their_region_everywhere():
    """A partial transfer moves its region's bytes, not the buffer's: the
    executor's prices, XFER001/002/003, the optimiser's byte count and
    fleet migrations all read one rule."""
    cost = CostModel(GTX480_CALIBRATED)
    region = ((0, 2, 1), (0, 8, 2))  # 2 x 4 of the 4 x 8 int32 elements
    part = 2 * 4 * 4
    idle = program(
        [
            AllocDevice("d_idle", (4, 8)),
            HostToDevice("h_in", "d_idle", region=region),
            DeviceToHost("d_idle", "h_out", region=region),
        ]
    )
    h2d_us, d2h_us = cost.h2d_time_us(part), cost.d2h_time_us(part)
    assert GPUExecutor(cost).price(idle) == (0.0, h2d_us, d2h_us)
    assert ProgramStats.of(idle).transferred_bytes == 2 * part
    assert upload_nbytes(idle) == part
    (unlaunched,) = by_code(find_transfer_waste(idle, cost), "XFER003")
    assert unlaunched.wasted_us == h2d_us + d2h_us

    k = add_one_kernel()
    p = program(
        [
            AllocDevice("d_in", (4, 8)),
            AllocDevice("d_out", (4, 8)),
            HostToDevice("h_in", "d_in"),
            HostToDevice("h_in", "d_in", region=region),  # already resident
            LaunchKernel(k, (("src", "d_in"), ("dst", "d_out"))),
            DeviceToHost("d_out", "h_scratch", region=region),  # never read
            DeviceToHost("d_out", "h_out"),
        ]
    )
    diags = find_transfer_waste(p, cost)
    (reupload,) = by_code(diags, "XFER001")
    assert reupload.wasted_us == h2d_us
    (dead,) = by_code(diags, "XFER002")
    assert dead.wasted_us == d2h_us
    assert ProgramStats.of(p).transferred_bytes == 2 * 4 * 8 * 4 + 2 * part
