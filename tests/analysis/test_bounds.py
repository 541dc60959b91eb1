"""Unit tests for the interval/exact bounds checker (BOUNDS001/002/003)."""

from repro.analysis import check_kernel_bounds
from repro.ir import (
    ArrayParam,
    BinOp,
    Const,
    For,
    IndexSpace,
    Kernel,
    LocalRef,
    ParamRef,
    Read,
    ScalarParam,
    Select,
    Store,
    ThreadIdx,
)


def kernel(body, arrays, scalars=(), space=IndexSpace((0,), (8,)), name="k"):
    return Kernel(name=name, space=space, arrays=tuple(arrays),
                  scalars=tuple(scalars), body=tuple(body))


def by_code(diags, code):
    return [d for d in diags if d.code == code]


class TestCleanKernels:
    def test_identity_indexing_proven_in_bounds(self):
        k = kernel(
            [Store("dst", (ThreadIdx(0),), Read("src", (ThreadIdx(0),)))],
            [ArrayParam("src", (8,), intent="in"),
             ArrayParam("dst", (8,), intent="out")],
        )
        assert check_kernel_bounds(k) == []

    def test_modulo_wrap_proven_in_bounds(self):
        # (iv + 100) % 8 stays within [0, 7] by interval reasoning alone
        idx = BinOp("%", BinOp("+", ThreadIdx(0), Const(100)), Const(8))
        k = kernel(
            [Store("dst", (ThreadIdx(0),), Read("src", (idx,)))],
            [ArrayParam("src", (8,), intent="in"),
             ArrayParam("dst", (8,), intent="out")],
        )
        assert check_kernel_bounds(k) == []

    def test_stepped_space_uses_last_actual_point(self):
        # points are 0,3,6,9 (upper 11, step 3): iv*2 <= 18 fits shape (19,);
        # naively scaling upper-1 = 10 would claim an out-of-bounds read
        k = kernel(
            [Store("dst", (ThreadIdx(0),),
                   Read("src", (BinOp("*", ThreadIdx(0), Const(2)),)))],
            [ArrayParam("src", (19,), intent="in"),
             ArrayParam("dst", (11,), intent="out")],
            space=IndexSpace((0,), (11,), (3,)),
        )
        assert check_kernel_bounds(k) == []

    def test_scalar_arg_value_used(self):
        k = kernel(
            [Store("dst", (ThreadIdx(0),),
                   Read("src", (BinOp("+", ThreadIdx(0), ParamRef("off")),)))],
            [ArrayParam("src", (10,), intent="in"),
             ArrayParam("dst", (8,), intent="out")],
            scalars=[ScalarParam("off")],
        )
        assert check_kernel_bounds(k, scalars={"off": 2}) == []

    def test_select_guarded_divisor_index_is_proven(self):
        # src[iv != 0 ? 7 / iv : 0]: lane 0's division is discarded by the
        # select, so the exact phase still computes the index range
        idx = Select(BinOp("!=", ThreadIdx(0), Const(0)),
                     BinOp("/", Const(7), ThreadIdx(0)), Const(0))
        k = kernel(
            [Store("dst", (ThreadIdx(0),), Read("src", (idx,)))],
            [ArrayParam("src", (8,), intent="in"),
             ArrayParam("dst", (8,), intent="out")],
        )
        assert check_kernel_bounds(k) == []


class TestViolations:
    def test_oob_read_is_error(self):
        k = kernel(
            [Store("dst", (ThreadIdx(0),),
                   Read("src", (BinOp("+", ThreadIdx(0), Const(5)),)))],
            [ArrayParam("src", (8,), intent="in"),
             ArrayParam("dst", (8,), intent="out")],
        )
        diags = check_kernel_bounds(k, location="test kernel")
        errs = by_code(diags, "BOUNDS001")
        assert len(errs) == 1
        d = errs[0]
        assert d.severity == "error"
        assert "src" in d.message
        assert d.location == "test kernel"

    def test_oob_store_is_error(self):
        k = kernel(
            [Store("dst", (BinOp("+", ThreadIdx(0), Const(1)),), Const(0))],
            [ArrayParam("dst", (8,), intent="out")],
        )
        errs = by_code(check_kernel_bounds(k), "BOUNDS002")
        assert len(errs) == 1
        assert "dst" in errs[0].message

    def test_for_loop_index_checked(self):
        # j runs 0..3; src[iv + j] reaches 7+3 = 10 > 7
        k = kernel(
            [
                For("j", 0, 4, (
                    Store("dst", (ThreadIdx(0),),
                          Read("src", (BinOp("+", ThreadIdx(0), LocalRef("j")),))),
                )),
            ],
            [ArrayParam("src", (8,), intent="in"),
             ArrayParam("dst", (8,), intent="out")],
        )
        assert by_code(check_kernel_bounds(k), "BOUNDS001")

    def test_unbound_scalar_is_unprovable_warning(self):
        k = kernel(
            [Store("dst", (ThreadIdx(0),),
                   Read("src", (BinOp("+", ThreadIdx(0), ParamRef("off")),)))],
            [ArrayParam("src", (10,), intent="in"),
             ArrayParam("dst", (8,), intent="out")],
            scalars=[ScalarParam("off")],
        )
        warns = by_code(check_kernel_bounds(k), "BOUNDS003")
        assert warns and all(d.severity == "warning" for d in warns)

    def test_data_dependent_index_is_warning(self):
        # src[idx[iv]] — the gather index comes from memory, so neither the
        # interval nor the exact phase can bound it
        k = kernel(
            [Store("dst", (ThreadIdx(0),),
                   Read("src", (Read("idx", (ThreadIdx(0),)),)))],
            [ArrayParam("idx", (8,), intent="in"),
             ArrayParam("src", (8,), intent="in"),
             ArrayParam("dst", (8,), intent="out")],
        )
        warns = by_code(check_kernel_bounds(k), "BOUNDS003")
        assert len(warns) == 1
        assert "src" in warns[0].message

    def test_zero_divisor_index_is_warning(self):
        # src[iv / 0] has no value; the exact phase must report it as
        # unprovable instead of raising out of `repro lint`
        k = kernel(
            [Store("dst", (ThreadIdx(0),),
                   Read("src", (BinOp("/", ThreadIdx(0), Const(0)),)))],
            [ArrayParam("src", (8,), intent="in"),
             ArrayParam("dst", (8,), intent="out")],
        )
        warns = by_code(check_kernel_bounds(k), "BOUNDS003")
        assert len(warns) == 1
        assert "src" in warns[0].message
