"""Property test: every optimiser configuration is safe (hypothesis).

Random convolution-chain device programs — with randomly injected
redundant re-uploads, dead downloads and download/re-upload round trips,
the idioms a naive per-kernel transfer placement produces — fed through
random pass configurations must always:

* produce bit-exact outputs,
* still validate structurally,
* never increase op count, transferred bytes, modelled serial time or
  the overlapped makespan.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import GTX480_CALIBRATED, CostModel, GPUExecutor
from repro.ir import (
    AllocDevice,
    ArrayParam,
    BinOp,
    Const,
    DeviceProgram,
    DeviceToHost,
    FreeDevice,
    HostToDevice,
    IndexSpace,
    Kernel,
    LaunchKernel,
    Read,
    Store,
    ThreadIdx,
    validate_program,
)
from repro.opt import OptOptions, ProgramStats, optimize_program
from repro.runtime import build_schedule

SHAPE = (4, 8)
H_IN = np.arange(32, dtype=np.int32).reshape(SHAPE)


def _kernel(i: int, op: str, c: int) -> Kernel:
    return Kernel(
        name=f"k{i}",
        space=IndexSpace((0, 0), SHAPE),
        arrays=(
            ArrayParam("src", SHAPE, intent="in"),
            ArrayParam("dst", SHAPE, intent="out"),
        ),
        body=(
            Store(
                "dst",
                (ThreadIdx(0), ThreadIdx(1)),
                BinOp(op, Read("src", (ThreadIdx(0), ThreadIdx(1))), Const(c)),
            ),
        ),
    )


@st.composite
def chain_programs(draw) -> DeviceProgram:
    depth = draw(st.integers(min_value=1, max_value=4))
    stages = [
        (draw(st.sampled_from("+-*")), draw(st.integers(1, 9)))
        for _ in range(depth)
    ]
    ops: list = [AllocDevice(f"d_{i}", SHAPE) for i in range(depth + 1)]
    ops.append(HostToDevice("h_in", "d_0"))
    for i, (op_sym, c) in enumerate(stages):
        ops.append(
            LaunchKernel(
                _kernel(i, op_sym, c),
                (("src", f"d_{i}"), ("dst", f"d_{i + 1}")),
            )
        )
        if draw(st.booleans()):  # re-upload of the unchanged input
            ops.append(HostToDevice("h_in", "d_0"))
        if draw(st.booleans()):  # download nobody consumes
            ops.append(DeviceToHost(f"d_{i + 1}", f"h_dead_{i}"))
        if draw(st.booleans()):  # download/re-upload round trip
            ops.append(DeviceToHost(f"d_{i + 1}", f"h_rt_{i}"))
            ops.append(HostToDevice(f"h_rt_{i}", f"d_{i + 1}"))
    ops.append(DeviceToHost(f"d_{depth}", "h_out"))
    if draw(st.booleans()):
        ops.extend(FreeDevice(f"d_{i}") for i in range(depth + 1))
    return DeviceProgram(
        "conv_chain",
        ops=tuple(ops),
        host_inputs=("h_in",),
        host_outputs=("h_out",),
    )


opt_configs = st.builds(
    OptOptions,
    dce=st.booleans(),
    transfers=st.booleans(),
    fusion=st.booleans(),
    sibling_fusion=st.booleans(),
    pooling=st.booleans(),
)


@settings(max_examples=40, deadline=None)
@given(program=chain_programs(), options=opt_configs)
def test_any_configuration_is_bit_exact_and_never_worse(program, options):
    ex_before = GPUExecutor(CostModel(GTX480_CALIBRATED))
    want = ex_before.run(program, {"h_in": H_IN}).outputs["h_out"]
    makespan_before = build_schedule(program, ex_before, runs=2, depth=None)

    optimised, report = optimize_program(program, options)
    validate_program(optimised)

    ex_after = GPUExecutor(CostModel(GTX480_CALIBRATED))
    got = ex_after.run(optimised, {"h_in": H_IN}).outputs["h_out"]
    assert np.array_equal(got, want)
    makespan_after = build_schedule(optimised, ex_after, runs=2, depth=None)

    before = ProgramStats.of(program)
    after = ProgramStats.of(optimised)
    assert after.ops <= before.ops
    assert after.transferred_bytes <= before.transferred_bytes
    assert makespan_after.serial_us <= makespan_before.serial_us + 1e-6
    assert makespan_after.makespan_us <= makespan_before.makespan_us + 1e-6
    if options.certify:
        assert report.certified


@settings(max_examples=15, deadline=None)
@given(program=chain_programs())
def test_full_pipeline_clears_all_transfer_waste(program):
    from repro.analysis import find_transfer_waste

    optimised, _ = optimize_program(program, OptOptions())
    assert find_transfer_waste(optimised) == []
