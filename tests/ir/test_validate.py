"""Validation corner cases: kernel diagnostics, host transfer geometry,
aliasing, op coverage."""

import numpy as np
import pytest

from repro.errors import IRError
from repro.ir import (
    AllocDevice,
    ArrayParam,
    Assign,
    BinOp,
    Const,
    DeviceProgram,
    DeviceToHost,
    FreeDevice,
    HostCompute,
    HostToDevice,
    HostWork,
    For,
    IndexSpace,
    Kernel,
    LaunchKernel,
    LocalRef,
    ParamRef,
    Read,
    ScalarParam,
    Store,
    ThreadIdx,
    validate_kernel,
    validate_program,
)
from repro.ir.program import Op


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


I, J = ThreadIdx(0), ThreadIdx(1)


def kernel_of(*body, rank=1, scalars=()):
    """A kernel over a 4-point space of ``rank`` with a read-only ``src``
    and a written ``dst`` (both rank 1)."""
    return Kernel(
        name="k",
        space=IndexSpace((0,) * rank, (4,) * rank),
        arrays=(ArrayParam("src", (4,), intent="in"), ArrayParam("dst", (4,), intent="out")),
        scalars=tuple(ScalarParam(n) for n in scalars),
        body=body,
    )


#: one kernel per diagnostic, with the full text it raises
SINGLE_FAULTS = {
    "free local": (
        kernel_of(
            Assign("x", LocalRef("x")),  # used in its own binding
            Store("dst", (I,), BinOp("+", LocalRef("x"), LocalRef("w"))),
        ),
        "kernel 'k': locals used before binding: ['w', 'x']",
    ),
    "undeclared array": (
        kernel_of(Store("ghost", (I,), Read("phantom", (I,)))),
        "kernel 'k': undeclared arrays referenced: ['ghost', 'phantom']",
    ),
    "undeclared scalar": (
        kernel_of(Store("dst", (I,), BinOp("*", ParamRef("n"), ParamRef("m"))), scalars=("m",)),
        "kernel 'k': undeclared scalars referenced: ['n']",
    ),
    "ThreadIdx past rank": (
        kernel_of(Store("dst", (I,), ThreadIdx(2))),
        "kernel 'k': ThreadIdx(2) exceeds index space rank 1",
    ),
    "store to read-only": (
        kernel_of(Store("src", (I,), Const(0))),
        "kernel 'k': store to read-only array 'src'",
    ),
    "store rank": (
        kernel_of(Store("dst", (I, J), Const(0)), rank=2),
        "kernel 'k': store to 'dst' with index rank 2, array rank 1",
    ),
    "read rank": (
        kernel_of(Store("dst", (I,), Read("src", (I, Const(0))))),
        "kernel 'k': read of 'src' with index rank 2, array rank 1",
    ),
}

#: kernels with several faults, and the one that is reported
MULTI_FAULTS = {
    "free local before undeclared array": (
        kernel_of(Store("ghost", (I,), LocalRef("x"))),
        "kernel 'k': locals used before binding: ['x']",
    ),
    "undeclared array before undeclared scalar": (
        kernel_of(Store("dst", (I,), BinOp("+", Read("ghost", (I,)), ParamRef("n")))),
        "kernel 'k': undeclared arrays referenced: ['ghost']",
    ),
    "undeclared scalar before ThreadIdx": (
        kernel_of(Store("dst", (I,), BinOp("+", ThreadIdx(3), ParamRef("n")))),
        "kernel 'k': undeclared scalars referenced: ['n']",
    ),
    "ThreadIdx before the access checks": (
        kernel_of(Store("src", (I, I), ThreadIdx(1))),
        "kernel 'k': ThreadIdx(1) exceeds index space rank 1",
    ),
    "read-only before the store's rank": (
        kernel_of(Store("src", (I, I), Const(0))),
        "kernel 'k': store to read-only array 'src'",
    ),
    "a store before the reads nested in it": (
        kernel_of(Store("dst", (I, J), Read("src", (I, J))), rank=2),
        "kernel 'k': store to 'dst' with index rank 2, array rank 1",
    ),
    "an earlier statement's read before a later store": (
        kernel_of(Assign("v", Read("src", (I, J))), Store("dst", (I, J), LocalRef("v")), rank=2),
        "kernel 'k': read of 'src' with index rank 2, array rank 1",
    ),
    "an outer read before the read in its index": (
        kernel_of(Store("dst", (I,), Read("src", (Read("dst", (I, I)), I)))),
        "kernel 'k': read of 'src' with index rank 2, array rank 1",
    ),
    "a store's index reads before its value's": (
        kernel_of(Store("dst", (Read("dst", (I, I)),), Read("src", (I, I)))),
        "kernel 'k': read of 'dst' with index rank 2, array rank 1",
    ),
    "a loop body in program order": (
        kernel_of(
            For("t", 0, 2, (Assign("v", Read("src", (I, LocalRef("t")))),)),
            Store("src", (I,), Const(0)),
        ),
        "kernel 'k': read of 'src' with index rank 2, array rank 1",
    ),
    "a zero-trip loop is still checked": (
        kernel_of(For("t", 0, 0, (Store("dst", (I, LocalRef("t")), Const(0)),))),
        "kernel 'k': store to 'dst' with index rank 2, array rank 1",
    ),
}


class TestKernelDiagnostics:
    """Every ``validate_kernel`` diagnostic's full text, and which fires
    first when a kernel has several faults: free locals, then undeclared
    arrays, undeclared scalars and ``ThreadIdx`` past the rank, then each
    access in program order (a store before the reads nested in it)."""

    @pytest.mark.parametrize("case", sorted(SINGLE_FAULTS))
    def test_each_diagnostic_text(self, case):
        kernel, text = SINGLE_FAULTS[case]
        with pytest.raises(IRError) as err:
            validate_kernel(kernel)
        assert str(err.value) == text

    @pytest.mark.parametrize("case", sorted(MULTI_FAULTS))
    def test_first_fault_reported(self, case):
        kernel, text = MULTI_FAULTS[case]
        with pytest.raises(IRError) as err:
            validate_kernel(kernel)
        assert str(err.value) == text

    def test_repeated_validation_reports_the_same(self):
        kernel, text = SINGLE_FAULTS["read rank"]
        for _ in range(2):
            with pytest.raises(IRError) as err:
                validate_kernel(kernel)
            assert str(err.value) == text

    def test_valid_kernels_pass(self):
        validate_kernel(add_one_kernel())
        validate_kernel(kernel_of(
            Assign("acc", Const(0)),
            For("t", 0, 3, (Assign("acc", BinOp("+", LocalRef("acc"), LocalRef("t"))),)),
            Store("dst", (I,), BinOp("+", LocalRef("acc"), ParamRef("n"))),
            scalars=("n",),
        ))


class TestTransferGeometry:
    """Regression tests: H2D/D2H shapes and dtypes vs AllocDevice.

    ``validate_program`` historically checked launch bindings but let a host
    array flow to device buffers of contradictory geometry unnoticed.
    """

    def test_same_host_to_two_incompatible_buffers_rejected(self):
        p = DeviceProgram(
            "p",
            ops=(
                AllocDevice("d_a", (4, 8)),
                AllocDevice("d_b", (2, 2)),
                HostToDevice("h", "d_a"),
                HostToDevice("h", "d_b"),  # h cannot be both (4,8) and (2,2)
            ),
            host_inputs=("h",),
        )
        with pytest.raises(IRError, match="has shape"):
            validate_program(p)

    def test_same_host_dtype_mismatch_rejected(self):
        p = DeviceProgram(
            "p",
            ops=(
                AllocDevice("d_a", (4, 8), "float32"),
                AllocDevice("d_b", (4, 8), "int32"),
                HostToDevice("h", "d_a"),
                HostToDevice("h", "d_b"),
            ),
            host_inputs=("h",),
        )
        with pytest.raises(IRError, match="has dtype"):
            validate_program(p)

    def test_consistent_reupload_accepted(self):
        p = DeviceProgram(
            "p",
            ops=(
                AllocDevice("d_a", (4, 8)),
                AllocDevice("d_b", (4, 8)),
                HostToDevice("h", "d_a"),
                HostToDevice("h", "d_b"),
            ),
            host_inputs=("h",),
        )
        validate_program(p)

    def test_download_redefines_host_geometry(self):
        # h is first a (4,8) upload; the (2,2) download re-defines it, and
        # the subsequent upload must match the *new* geometry
        p = DeviceProgram(
            "p",
            ops=(
                AllocDevice("d_big", (4, 8)),
                AllocDevice("d_small", (2, 2)),
                HostToDevice("h", "d_big"),
                DeviceToHost("d_small", "h"),
                HostToDevice("h", "d_small"),
            ),
            host_inputs=("h",),
        )
        validate_program(p)

    def test_upload_conflicting_with_download_rejected(self):
        p = DeviceProgram(
            "p",
            ops=(
                AllocDevice("d_big", (4, 8)),
                AllocDevice("d_small", (2, 2)),
                HostToDevice("h", "d_big"),
                DeviceToHost("d_small", "h"),
                HostToDevice("h", "d_big"),  # h is (2,2) now
            ),
            host_inputs=("h",),
        )
        with pytest.raises(IRError, match="has shape"):
            validate_program(p)

    def test_host_step_clears_geometry(self):
        def reshape(env):
            env["h"] = np.asarray(env["h"]).reshape(2, 2)

        p = DeviceProgram(
            "p",
            ops=(
                AllocDevice("d_big", (4, 8)),
                AllocDevice("d_small", (2, 2)),
                HostToDevice("h", "d_big"),
                HostCompute("reshape", reshape, reads=("h",), writes=("h",),
                            work=HostWork(items=1)),
                HostToDevice("h", "d_small"),  # fine: host code may reshape
            ),
            host_inputs=("h",),
        )
        validate_program(p)


class TestLifetimeAndAliasing:
    def test_realloc_after_free_accepted(self):
        p = DeviceProgram(
            "p",
            ops=(
                AllocDevice("d", (4,)),
                FreeDevice("d"),
                AllocDevice("d", (8,)),
                FreeDevice("d"),
            ),
        )
        validate_program(p)

    def test_write_aliasing_rejected(self):
        k = add_one_kernel()
        p = DeviceProgram(
            "p",
            ops=(
                AllocDevice("d", (4, 8)),
                HostToDevice("h", "d"),
                LaunchKernel(k, (("src", "d"), ("dst", "d"))),
            ),
            host_inputs=("h",),
        )
        with pytest.raises(IRError, match="aliasing"):
            validate_program(p)

    def test_read_only_aliasing_accepted(self):
        shape = (4, 8)
        k = Kernel(
            name="add2",
            space=IndexSpace((0, 0), shape),
            arrays=(
                ArrayParam("a", shape, intent="in"),
                ArrayParam("b", shape, intent="in"),
                ArrayParam("out", shape, intent="out"),
            ),
            body=(
                Store(
                    "out",
                    (ThreadIdx(0), ThreadIdx(1)),
                    BinOp(
                        "+",
                        Read("a", (ThreadIdx(0), ThreadIdx(1))),
                        Read("b", (ThreadIdx(0), ThreadIdx(1))),
                    ),
                ),
            ),
        )
        p = DeviceProgram(
            "p",
            ops=(
                AllocDevice("d_in", shape),
                AllocDevice("d_out", shape),
                HostToDevice("h", "d_in"),
                LaunchKernel(k, (("a", "d_in"), ("b", "d_in"), ("out", "d_out"))),
            ),
            host_inputs=("h",),
        )
        validate_program(p)


class TestOpCoverage:
    def test_unknown_op_rejected(self):
        class Mystery(Op):
            pass

        p = DeviceProgram("p", ops=(Mystery(),))
        with pytest.raises(IRError, match="unknown op"):
            validate_program(p)
