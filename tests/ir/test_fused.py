"""Unit tests for FusedKernel (repro.ir.fused)."""

import dataclasses

import numpy as np
import pytest

from repro.errors import IRError
from repro.ir import (
    AllocDevice,
    ArrayParam,
    BinOp,
    Const,
    FusedKernel,
    IndexSpace,
    Kernel,
    LaunchKernel,
    Read,
    Store,
    ThreadIdx,
    evaluate_fused,
    evaluate_kernel,
    make_fused_launch,
    validate_fused_kernel,
)

SHAPE = (4, 8)


def pointwise(name, op="+", c=1):
    return Kernel(
        name=name,
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


GEOMETRY = {
    name: AllocDevice(name, SHAPE)
    for name in ("d_in", "d_mid", "d_out")
}


def chain_stages():
    return (
        LaunchKernel(pointwise("k1", "+", 1), (("src", "d_in"), ("dst", "d_mid"))),
        LaunchKernel(pointwise("k2", "*", 3), (("src", "d_mid"), ("dst", "d_out"))),
    )


def test_make_fused_launch_structure():
    launch = make_fused_launch("f", chain_stages(), {"d_mid"}, GEOMETRY)
    fused = launch.kernel
    assert isinstance(fused, FusedKernel)
    # externals are named after the buffers they bind, in first-use order
    assert [a.name for a in fused.arrays] == ["d_in", "d_out"]
    assert fused.array("d_in").intent == "in"
    assert fused.array("d_out").intent == "out"
    assert [p.name for p in fused.internal] == ["d_mid"]
    assert launch.array_args == (("d_in", "d_in"), ("d_out", "d_out"))
    # the driving space is the last stage's
    assert fused.space == fused.stages[-1].kernel.space
    assert fused.scratch_nbytes == 4 * 8 * 4


def test_read_after_write_external_aggregates_to_inout():
    # k2 writes d_io after k1 read it -> the fused parameter is inout
    stages = (
        LaunchKernel(pointwise("k1"), (("src", "d_io"), ("dst", "d_mid"))),
        LaunchKernel(pointwise("k2"), (("src", "d_mid"), ("dst", "d_io"))),
    )
    geometry = {"d_io": AllocDevice("d_io", SHAPE), "d_mid": AllocDevice("d_mid", SHAPE)}
    launch = make_fused_launch("f", stages, {"d_mid"}, geometry)
    assert launch.kernel.array("d_io").intent == "inout"


def test_evaluate_fused_matches_sequential_stages():
    stages = chain_stages()
    src = np.arange(32, dtype=np.int32).reshape(SHAPE)

    mid = np.zeros(SHAPE, np.int32)
    want = np.zeros(SHAPE, np.int32)
    evaluate_kernel(stages[0].kernel, {"src": src, "dst": mid}, {})
    evaluate_kernel(stages[1].kernel, {"src": mid, "dst": want}, {})

    launch = make_fused_launch("f", stages, {"d_mid"}, GEOMETRY)
    got = np.zeros(SHAPE, np.int32)
    evaluate_fused(launch.kernel, {"d_in": src, "d_out": got})
    assert np.array_equal(got, want)


def test_evaluate_fused_requires_external_bindings():
    launch = make_fused_launch("f", chain_stages(), {"d_mid"}, GEOMETRY)
    with pytest.raises(IRError, match="missing array"):
        evaluate_fused(launch.kernel, {"d_in": np.zeros(SHAPE, np.int32)})


def test_nested_fused_stages_are_flattened():
    inner = make_fused_launch("inner", chain_stages(), {"d_mid"}, GEOMETRY)
    k3 = pointwise("k3", "+", 7)
    outer = make_fused_launch(
        "outer",
        (inner, LaunchKernel(k3, (("src", "d_out"), ("dst", "d_last")))),
        {"d_out"},
        dict(GEOMETRY, d_last=AllocDevice("d_last", SHAPE)),
    )
    fused = outer.kernel
    assert [st.kernel.name for st in fused.stages] == ["k1", "k2", "k3"]
    assert {p.name for p in fused.internal} == {"d_mid", "d_out"}


def test_validate_rejects_scratch_shadowing_external():
    launch = make_fused_launch("f", chain_stages(), {"d_mid"}, GEOMETRY)
    fused = launch.kernel
    bad = FusedKernel(
        name="bad",
        stages=fused.stages,
        arrays=fused.arrays,
        internal=fused.internal + (ArrayParam("d_in", SHAPE, intent="out"),),
    )
    with pytest.raises(IRError, match="shadows"):
        validate_fused_kernel(bad)


def test_validate_rejects_unknown_stage_binding():
    fused = make_fused_launch("f", chain_stages(), {"d_mid"}, GEOMETRY).kernel
    bad = FusedKernel(
        name="bad",
        stages=fused.stages
        + (LaunchKernel(pointwise("k3"), (("src", "d_elsewhere"), ("dst", "d_out"))),),
        arrays=fused.arrays,
        internal=fused.internal,
    )
    with pytest.raises(IRError, match="unknown array"):
        validate_fused_kernel(bad)


def test_validate_rejects_shape_mismatch():
    small = Kernel(
        name="small",
        space=IndexSpace((0,), (4,)),
        arrays=(
            ArrayParam("src", (4,), intent="in"),
            ArrayParam("dst", (4,), intent="out"),
        ),
        body=(Store("dst", (ThreadIdx(0),), Read("src", (ThreadIdx(0),))),),
    )
    fused = make_fused_launch("f", chain_stages(), {"d_mid"}, GEOMETRY).kernel
    bad = FusedKernel(
        name="bad",
        stages=fused.stages
        + (LaunchKernel(small, (("src", "d_out"), ("dst", "d_out"))),),
        arrays=fused.arrays,
        internal=fused.internal,
    )
    with pytest.raises(IRError, match="shape"):
        validate_fused_kernel(bad)


def test_empty_fused_kernel_rejected():
    with pytest.raises(IRError, match="no stages"):
        FusedKernel(name="empty", stages=(), arrays=())


@pytest.mark.parametrize("fused", [False, True], ids=["kernel", "fused"])
def test_kept_hash_is_the_dataclass_hash_and_invisible(fused):
    """``Kernel`` and ``FusedKernel`` keep their hash in the instance dict:
    it equals the generated frozen-dataclass hash (of the compared
    fields), and ``==``, ``repr``, ``canonical`` and ``replace`` never
    see it."""
    from repro.runtime.cache import canonical

    def build():
        if fused:
            return make_fused_launch("f", chain_stages(), {"d_mid"}, GEOMETRY).kernel
        return pointwise("k1")

    held, fresh = build(), build()
    compared = tuple(
        getattr(held, f.name) for f in dataclasses.fields(held) if f.compare
    )
    assert hash(held) == hash(compared) == hash(fresh)
    assert "_hash" in held.__dict__
    assert held == fresh and repr(held) == repr(fresh)
    assert canonical(held) == canonical(fresh)
    renamed = dataclasses.replace(held, name="renamed")
    assert "_hash" not in renamed.__dict__
    assert hash(renamed) == hash(
        tuple(getattr(renamed, f.name) for f in dataclasses.fields(renamed) if f.compare)
    ) != hash(held)
