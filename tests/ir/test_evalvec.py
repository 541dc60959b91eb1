"""Unit tests for the vectorised kernel evaluator."""

import numpy as np
import pytest

from repro.ir import (
    ArrayParam,
    Assign,
    BinOp,
    Const,
    For,
    IndexSpace,
    Kernel,
    KernelEvaluationError,
    LocalRef,
    ParamRef,
    Read,
    ScalarParam,
    Select,
    Store,
    ThreadIdx,
    UnOp,
    evaluate_kernel,
)
from repro.ir.evalvec import _Evaluator
from repro.ir.plan import plan_of


def make_kernel(body, arrays, space=None, scalars=()):
    return Kernel(
        name="k",
        space=space or IndexSpace((0, 0), (4, 8)),
        arrays=tuple(arrays),
        scalars=tuple(scalars),
        body=tuple(body),
    )


def test_elementwise_add_one():
    k = make_kernel(
        body=[
            Store(
                "dst",
                (ThreadIdx(0), ThreadIdx(1)),
                BinOp("+", Read("src", (ThreadIdx(0), ThreadIdx(1))), Const(1)),
            )
        ],
        arrays=[
            ArrayParam("src", (4, 8), intent="in"),
            ArrayParam("dst", (4, 8), intent="out"),
        ],
    )
    src = np.arange(32, dtype=np.int32).reshape(4, 8)
    dst = np.zeros((4, 8), dtype=np.int32)
    evaluate_kernel(k, {"src": src, "dst": dst})
    np.testing.assert_array_equal(dst, src + 1)


def test_strided_space_writes_only_step_points():
    k = make_kernel(
        body=[Store("dst", (ThreadIdx(0),), Const(7))],
        arrays=[ArrayParam("dst", (10,), intent="out")],
        space=IndexSpace((1,), (10,), (3,)),
    )
    dst = np.zeros(10, dtype=np.int32)
    evaluate_kernel(k, {"dst": dst})
    np.testing.assert_array_equal(dst, [0, 7, 0, 0, 7, 0, 0, 7, 0, 0])


def test_static_for_loop_accumulates():
    k = make_kernel(
        body=[
            Assign("acc", Const(0)),
            For(
                "t",
                0,
                6,
                [
                    Assign(
                        "acc",
                        BinOp("+", LocalRef("acc"), Read("src", (ThreadIdx(0), LocalRef("t")))),
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
    src = np.arange(32, dtype=np.int32).reshape(4, 8)
    dst = np.zeros(4, dtype=np.int32)
    evaluate_kernel(k, {"src": src, "dst": dst})
    np.testing.assert_array_equal(dst, src[:, :6].sum(axis=1))


def test_paper_filter_body():
    """tmp = sum of 6; out = tmp/6 - tmp%6 (Figure 5 semantics)."""
    body = [
        Assign("tmp", Const(0)),
        For(
            "t",
            0,
            6,
            [
                Assign(
                    "tmp",
                    BinOp("+", LocalRef("tmp"), Read("src", (ThreadIdx(0), LocalRef("t")))),
                )
            ],
        ),
        Store(
            "dst",
            (ThreadIdx(0),),
            BinOp(
                "-",
                BinOp("/", LocalRef("tmp"), Const(6)),
                BinOp("%", LocalRef("tmp"), Const(6)),
            ),
        ),
    ]
    k = make_kernel(
        body=body,
        arrays=[
            ArrayParam("src", (5, 8), intent="in"),
            ArrayParam("dst", (5,), intent="out"),
        ],
        space=IndexSpace((0,), (5,)),
    )
    rng = np.random.default_rng(3)
    src = rng.integers(0, 256, size=(5, 8)).astype(np.int32)
    dst = np.zeros(5, dtype=np.int32)
    evaluate_kernel(k, {"src": src, "dst": dst})
    tmp = src[:, :6].astype(np.int64).sum(axis=1)
    np.testing.assert_array_equal(dst, (tmp // 6 - tmp % 6).astype(np.int32))


_X = Read("src", (ThreadIdx(0),))


@pytest.mark.parametrize("interpreted", [False, True], ids=["plan", "interpreter"])
@pytest.mark.parametrize(
    "square, small",
    [
        (BinOp("*", _X, _X), 9),  # int32 data: NumPy wraps it
        (BinOp("*", _X, BinOp("+", _X, ThreadIdx(0))), 12),  # int64 with the index
    ],
    ids=["int32", "index-mixed"],
)
def test_int_arithmetic_wraps_as_c_int(interpreted, square, small):
    """An overflowing int product reaches ``min``, ``/``, a comparison, a
    ``Select`` condition and float conversions as its 32-bit C value, on
    both evaluation paths."""
    w = -2147479015  # 46341**2 = 2**31 + 4633, cut to 32 bits
    out = ("lo", "q", "neg", "nz")
    k = make_kernel(
        body=[
            Store("lo", (ThreadIdx(0),), BinOp("min", square, Const(0))),
            Store("q", (ThreadIdx(0),), BinOp("/", square, Const(7))),
            Store("neg", (ThreadIdx(0),), Select(BinOp("<", square, Const(0)), Const(1), Const(0))),
            # square - w is 2**32 in 64 bits and 0 as a C int
            Store("nz", (ThreadIdx(0),), Select(BinOp("-", square, Const(w)), Const(1), Const(0))),
            Store("f", (ThreadIdx(0),), BinOp("+", square, Const(0.5))),
            Store("g", (ThreadIdx(0),), square),
        ],
        arrays=[ArrayParam("src", (2,), intent="in")]
        + [ArrayParam(name, (2,), intent="out") for name in out]
        + [ArrayParam(name, (2,), dtype="float64", intent="out") for name in "fg"],
        space=IndexSpace((0,), (2,)),
    )
    arrays = {"src": np.array([46341, 3], dtype=np.int32)}
    arrays.update({name: np.zeros(2, np.int32) for name in out})
    arrays.update({name: np.zeros(2, np.float64) for name in "fg"})
    if interpreted:
        _Evaluator(arrays, {}, k.space).exec(k.body)
    else:
        evaluate_kernel(k, arrays)
        assert plan_of(k) is not None  # the launch ran the plan
    assert arrays["lo"].tolist() == [w, 0]
    assert arrays["q"].tolist() == [-(-w // 7), small // 7]
    assert arrays["neg"].tolist() == [1, 0]
    assert arrays["nz"].tolist() == [0, 1]
    assert arrays["f"].tolist() == [w + 0.5, small + 0.5]
    assert arrays["g"].tolist() == [w, small]


def test_select_and_comparison():
    k = make_kernel(
        body=[
            Store(
                "dst",
                (ThreadIdx(0),),
                Select(
                    BinOp("<", ThreadIdx(0), Const(2)),
                    Const(1),
                    UnOp("-", Const(1)),
                ),
            )
        ],
        arrays=[ArrayParam("dst", (4,), intent="out")],
        space=IndexSpace((0,), (4,)),
    )
    dst = np.zeros(4, dtype=np.int32)
    evaluate_kernel(k, {"dst": dst})
    np.testing.assert_array_equal(dst, [1, 1, -1, -1])


def test_scalar_params():
    k = make_kernel(
        body=[Store("dst", (ThreadIdx(0),), BinOp("*", ThreadIdx(0), ParamRef("scale")))],
        arrays=[ArrayParam("dst", (4,), intent="out")],
        scalars=[ScalarParam("scale")],
        space=IndexSpace((0,), (4,)),
    )
    dst = np.zeros(4, dtype=np.int32)
    evaluate_kernel(k, {"dst": dst}, {"scale": 3})
    np.testing.assert_array_equal(dst, [0, 3, 6, 9])


def test_modulo_wrap_addressing():
    """Reads through (iv + 6) % 8 wrap like the tiler addressing."""
    k = make_kernel(
        body=[
            Store(
                "dst",
                (ThreadIdx(0),),
                Read("src", (BinOp("%", BinOp("+", ThreadIdx(0), Const(6)), Const(8)),)),
            )
        ],
        arrays=[
            ArrayParam("src", (8,), intent="in"),
            ArrayParam("dst", (8,), intent="out"),
        ],
        space=IndexSpace((0,), (8,)),
    )
    src = np.arange(8, dtype=np.int32)
    dst = np.zeros(8, dtype=np.int32)
    evaluate_kernel(k, {"src": src, "dst": dst})
    np.testing.assert_array_equal(dst, np.roll(src, -6))


class TestErrors:
    def test_out_of_bounds_read_detected(self):
        k = make_kernel(
            body=[
                Store(
                    "dst",
                    (ThreadIdx(0),),
                    Read("src", (BinOp("+", ThreadIdx(0), Const(5)),)),
                )
            ],
            arrays=[
                ArrayParam("src", (8,), intent="in"),
                ArrayParam("dst", (8,), intent="out"),
            ],
            space=IndexSpace((0,), (8,)),
        )
        with pytest.raises(KernelEvaluationError, match="out of bounds"):
            evaluate_kernel(
                k, {"src": np.zeros(8, np.int32), "dst": np.zeros(8, np.int32)}
            )

    def test_missing_buffer_detected(self):
        k = make_kernel(
            body=[Store("dst", (ThreadIdx(0),), Const(0))],
            arrays=[ArrayParam("dst", (8,), intent="out")],
            space=IndexSpace((0,), (8,)),
        )
        with pytest.raises(KernelEvaluationError, match="not bound"):
            evaluate_kernel(k, {})

    def test_shape_mismatch_detected(self):
        k = make_kernel(
            body=[Store("dst", (ThreadIdx(0),), Const(0))],
            arrays=[ArrayParam("dst", (8,), intent="out")],
            space=IndexSpace((0,), (8,)),
        )
        with pytest.raises(KernelEvaluationError, match="shape"):
            evaluate_kernel(k, {"dst": np.zeros(9, np.int32)})

    def test_missing_scalar_detected(self):
        k = make_kernel(
            body=[Store("dst", (ThreadIdx(0),), ParamRef("s"))],
            arrays=[ArrayParam("dst", (8,), intent="out")],
            scalars=[ScalarParam("s")],
            space=IndexSpace((0,), (8,)),
        )
        with pytest.raises(KernelEvaluationError, match="scalar"):
            evaluate_kernel(k, {"dst": np.zeros(8, np.int32)})

    def test_unbound_local_detected(self):
        k = make_kernel(
            body=[Store("dst", (ThreadIdx(0),), LocalRef("ghost"))],
            arrays=[ArrayParam("dst", (8,), intent="out")],
            space=IndexSpace((0,), (8,)),
        )
        with pytest.raises(KernelEvaluationError, match="unbound local"):
            evaluate_kernel(k, {"dst": np.zeros(8, np.int32)})

    def test_empty_space_is_noop(self):
        k = make_kernel(
            body=[Store("dst", (ThreadIdx(0),), Const(1))],
            arrays=[ArrayParam("dst", (8,), intent="out")],
            space=IndexSpace((3,), (3,)),
        )
        dst = np.zeros(8, dtype=np.int32)
        evaluate_kernel(k, {"dst": dst})
        assert (dst == 0).all()
