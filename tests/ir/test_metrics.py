"""Unit tests for kernel access probing (coalescing metrics)."""

import pytest

from repro.ir import (
    ArrayParam,
    Assign,
    BinOp,
    Const,
    For,
    IndexSpace,
    Kernel,
    LocalRef,
    ParamRef,
    Read,
    ScalarParam,
    Store,
    ThreadIdx,
    probe_access_profile,
    unique_access_bytes,
)


def make(body, arrays, space):
    return Kernel(name="k", space=space, arrays=tuple(arrays), body=tuple(body))


def test_unit_stride_copy():
    k = make(
        body=[
            Store(
                "dst", (ThreadIdx(0), ThreadIdx(1)), Read("src", (ThreadIdx(0), ThreadIdx(1)))
            )
        ],
        arrays=[
            ArrayParam("src", (4, 8), intent="in"),
            ArrayParam("dst", (4, 8), intent="out"),
        ],
        space=IndexSpace((0, 0), (4, 8)),
    )
    p = probe_access_profile(k)
    assert p.read_strides == (1,)
    assert p.write_strides == (1,)
    assert p.items == 32
    assert p.reads_per_item == 1
    assert p.writes_per_item == 1


def test_column_access_has_row_stride():
    # transpose-like: adjacent threads (along dim 1) read a column
    k = make(
        body=[
            Store(
                "dst", (ThreadIdx(0), ThreadIdx(1)), Read("src", (ThreadIdx(1), ThreadIdx(0)))
            )
        ],
        arrays=[
            ArrayParam("src", (8, 8), intent="in"),
            ArrayParam("dst", (8, 8), intent="out"),
        ],
        space=IndexSpace((0, 0), (8, 8)),
    )
    p = probe_access_profile(k)
    assert p.read_strides == (8,)  # row stride of src
    assert p.write_strides == (1,)


def test_strided_generator_scales_stride():
    # iv1 runs with step 3 (a folded non-generic output tiler generator)
    k = make(
        body=[
            Store("dst", (ThreadIdx(0), ThreadIdx(1)), Read("src", (ThreadIdx(0), ThreadIdx(1))))
        ],
        arrays=[
            ArrayParam("src", (4, 12), intent="in"),
            ArrayParam("dst", (4, 12), intent="out"),
        ],
        space=IndexSpace((0, 0), (4, 12), (1, 3)),
    )
    p = probe_access_profile(k)
    assert p.read_strides == (3,)
    assert p.write_strides == (3,)


def test_loop_reads_counted_per_trip():
    k = make(
        body=[
            Assign("acc", Const(0)),
            For(
                "t",
                0,
                4,
                [
                    Assign(
                        "acc",
                        BinOp(
                            "+", LocalRef("acc"), Read("src", (ThreadIdx(0), LocalRef("t")))
                        ),
                    )
                ],
            ),
            Store("dst", (ThreadIdx(0),), LocalRef("acc")),
        ],
        arrays=[
            ArrayParam("src", (4, 8), intent="in"),
            ArrayParam("dst", (4,), intent="out"),
        ],
        space=IndexSpace((0,), (4,)),
    )
    p = probe_access_profile(k)
    assert len(p.read_strides) == 4  # one dynamic read per trip
    assert all(s == 8 for s in p.read_strides)  # adjacent threads: next row
    assert p.reads_per_item == 4


def test_single_point_space_reports_zero_strides():
    k = make(
        body=[Store("dst", (Const(0),), Read("src", (Const(0),)))],
        arrays=[
            ArrayParam("src", (4,), intent="in"),
            ArrayParam("dst", (4,), intent="out"),
        ],
        space=IndexSpace((0,), (1,)),
    )
    p = probe_access_profile(k)
    assert p.read_strides == (0,)
    assert p.write_strides == (0,)


class TestUniqueBytes:
    def test_disjoint_copy_touches_everything_once(self):
        k = make(
            body=[
                Store(
                    "dst",
                    (ThreadIdx(0), ThreadIdx(1)),
                    Read("src", (ThreadIdx(0), ThreadIdx(1))),
                )
            ],
            arrays=[
                ArrayParam("src", (4, 8), intent="in"),
                ArrayParam("dst", (4, 8), intent="out"),
            ],
            space=IndexSpace((0, 0), (4, 8)),
        )
        r, w = unique_access_bytes(k)
        assert r == 4 * 8 * 4
        assert w == 4 * 8 * 4

    def test_overlapping_windows_counted_once(self):
        # each thread reads a 4-wide window at stride 1: unique = extent + 3
        k = make(
            body=[
                Assign("acc", Const(0)),
                For(
                    "t",
                    0,
                    4,
                    [
                        Assign(
                            "acc",
                            BinOp(
                                "+",
                                LocalRef("acc"),
                                Read("src", (BinOp("+", ThreadIdx(0), LocalRef("t")),)),
                            ),
                        )
                    ],
                ),
                Store("dst", (ThreadIdx(0),), LocalRef("acc")),
            ],
            arrays=[
                ArrayParam("src", (11,), intent="in"),
                ArrayParam("dst", (8,), intent="out"),
            ],
            space=IndexSpace((0,), (8,)),
        )
        r, w = unique_access_bytes(k)
        assert r == 11 * 4  # positions 0..10, each once
        assert w == 8 * 4

    def test_subset_space_touches_subset(self):
        k = make(
            body=[Store("dst", (ThreadIdx(0),), Read("src", (ThreadIdx(0),)))],
            arrays=[
                ArrayParam("src", (16,), intent="in"),
                ArrayParam("dst", (16,), intent="out"),
            ],
            space=IndexSpace((0,), (16,), (4,)),
        )
        r, w = unique_access_bytes(k)
        assert r == 4 * 4
        assert w == 4 * 4

    def test_scalar_index_component_broadcasts(self):
        # dst[1, iv]: the constant row broadcasts against the thread index
        k = make(
            body=[Store("dst", (Const(1), ThreadIdx(0)), Read("src", (Const(3),)))],
            arrays=[
                ArrayParam("src", (8,), intent="in"),
                ArrayParam("dst", (2, 8), intent="out"),
            ],
            space=IndexSpace((0,), (8,)),
        )
        assert unique_access_bytes(k) == (4, 8 * 4)

    def test_data_divisor_costed_on_placeholder_buffers(self):
        # dst[i] = 100 / src[i]: the probes run on all-zero buffers, whose
        # zero divisors must not stop the launch from being costed
        from repro.gpu import UNCALIBRATED, CostModel, GPUExecutor

        k = make(
            body=[Store("dst", (ThreadIdx(0),),
                        BinOp("/", Const(100), Read("src", (ThreadIdx(0),))))],
            arrays=[
                ArrayParam("src", (8,), intent="in"),
                ArrayParam("dst", (8,), intent="out"),
            ],
            space=IndexSpace((0,), (8,)),
        )
        inputs = GPUExecutor(CostModel(UNCALIBRATED)).kernel_cost_inputs(k)
        assert (inputs.unique_read_bytes, inputs.unique_write_bytes) == (32, 32)
        assert inputs.profile.read_strides == (1,)

    def test_scalar_divisor_costed_with_placeholder_zero(self):
        # dst[i] = src[i] / n: the probes bind every scalar parameter to 0
        k = Kernel(
            name="k",
            space=IndexSpace((0,), (8,)),
            arrays=(ArrayParam("src", (8,), intent="in"),
                    ArrayParam("dst", (8,), intent="out")),
            scalars=(ScalarParam("n"),),
            body=(Store("dst", (ThreadIdx(0),),
                        BinOp("/", Read("src", (ThreadIdx(0),)), ParamRef("n"))),),
        )
        assert unique_access_bytes(k) == (32, 32)
        assert probe_access_profile(k).read_strides == (1,)


#: per-kernel (unique read bytes, unique write bytes) of both downscaler
#: routes at CIF; every modelled launch time is charged from these counts
_CIF_FOOTPRINTS = {
    "sac": [
        (304128, 50688), (297216, 49536), (6912, 1152), (297216, 49536),
        (6912, 1152), (101376, 16896), (98208, 16368), (3168, 528),
        (98208, 16368), (3168, 528), (98208, 16368), (3168, 528),
    ],
    "gaspard": [
        (405504, 152064), (405504, 152064), (405504, 152064),
        (152064, 67584), (152064, 67584), (152064, 67584),
    ],
}


@pytest.mark.parametrize("route", sorted(_CIF_FOOTPRINTS))
def test_downscaler_cif_footprints_pinned(route):
    from repro.apps.downscaler.config import CIF
    from repro.apps.downscaler.serving import downscaler_job
    from repro.runtime.cache import CompileCache

    program = downscaler_job(route, size=CIF).compile(CompileCache())
    got = [unique_access_bytes(k) for k in program.kernels]
    assert got == _CIF_FOOTPRINTS[route]
