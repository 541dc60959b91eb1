"""Vectorised functional evaluation of kernels.

The simulated GPU executes a kernel by evaluating its body **once for the
whole index space** with NumPy array semantics: every scalar expression is
mapped to an array over the grid of work-items, static ``For`` loops are
unrolled, and ``Store`` statements become fancy-indexed assignments.

This gives bit-exact results (C-truncating integer division via
:func:`repro.ir.expr.c_div`) at NumPy speed, with the same write-conflict
resolution as :func:`repro.tilers.ops.scatter` (row-major last writer wins —
kernels emitted by the backends never have intra-launch write conflicts,
which :mod:`repro.ir.validate` checks for the downscaler programs).

An optional *observer* receives every evaluated memory access; the
coalescing prober in :mod:`repro.ir.metrics` uses it to measure address
strides without a second evaluator.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import IRError
from repro.ir.expr import (
    BinOp,
    Const,
    Expr,
    LocalRef,
    ParamRef,
    Read,
    Select,
    ThreadIdx,
    UnOp,
    c_div,
    c_mod,
)
from repro.ir.kernel import IndexSpace, Kernel
from repro.ir.stmt import Assign, For, Store

__all__ = ["evaluate_kernel", "KernelEvaluationError", "AccessObserver"]

#: signature: (kind, array_name, index_arrays) with kind in {"read", "store"}
AccessObserver = Callable[[str, str, tuple[np.ndarray, ...]], None]


class KernelEvaluationError(IRError):
    """Raised when a kernel body cannot be evaluated (bad refs, OOB access)."""


class _Evaluator:
    def __init__(
        self,
        kernel: Kernel,
        arrays: dict[str, np.ndarray],
        scalars: dict[str, int | float],
        space: IndexSpace,
        observer: AccessObserver | None,
    ):
        self.kernel = kernel
        self.arrays = arrays
        self.scalars = scalars
        self.idx_values = space.index_values()
        self.env: dict = {}
        self.observer = observer

    # -- expressions ---------------------------------------------------------

    def eval(self, expr: Expr):
        if isinstance(expr, Const):
            return expr.value
        if isinstance(expr, ThreadIdx):
            if expr.dim >= len(self.idx_values):
                raise KernelEvaluationError(
                    f"ThreadIdx({expr.dim}) exceeds index space rank "
                    f"{len(self.idx_values)}"
                )
            return self.idx_values[expr.dim]
        if isinstance(expr, LocalRef):
            try:
                return self.env[expr.name]
            except KeyError:
                raise KernelEvaluationError(f"unbound local {expr.name!r}") from None
        if isinstance(expr, ParamRef):
            try:
                return self.scalars[expr.name]
            except KeyError:
                raise KernelEvaluationError(
                    f"unbound scalar parameter {expr.name!r}"
                ) from None
        if isinstance(expr, Read):
            return self._read(expr)
        if isinstance(expr, BinOp):
            return _apply_binop(expr.op, self.eval(expr.lhs), self.eval(expr.rhs))
        if isinstance(expr, UnOp):
            val = self.eval(expr.operand)
            if expr.op == "-":
                return np.negative(val)
            if expr.op == "abs":
                return np.abs(val)
            if expr.op == "!":
                return np.logical_not(val)
            raise KernelEvaluationError(f"unknown unary op {expr.op!r}")
        if isinstance(expr, Select):
            return np.where(
                self.eval(expr.cond), self.eval(expr.if_true), self.eval(expr.if_false)
            )
        raise KernelEvaluationError(f"unknown expression node {type(expr).__name__}")

    def _index_tuple(self, index, shape, array, what):
        if len(index) != len(shape):
            raise KernelEvaluationError(
                f"{what} of {array!r}: index rank {len(index)} != array rank "
                f"{len(shape)}"
            )
        out = []
        for d, e in enumerate(index):
            v = np.asarray(self.eval(e))
            if not np.issubdtype(v.dtype, np.integer):
                raise KernelEvaluationError(
                    f"{what} of {array!r}: index dim {d} is not integral"
                )
            if v.size and (int(v.min()) < 0 or int(v.max()) >= shape[d]):
                raise KernelEvaluationError(
                    f"{what} of {array!r}: index dim {d} out of bounds "
                    f"[{int(v.min())}, {int(v.max())}] for extent {shape[d]}"
                )
            out.append(v)
        return tuple(out)

    def _read(self, expr: Read):
        try:
            buf = self.arrays[expr.array]
        except KeyError:
            raise KernelEvaluationError(
                f"read of unbound array {expr.array!r}"
            ) from None
        idx = self._index_tuple(expr.index, buf.shape, expr.array, "read")
        if self.observer is not None:
            self.observer("read", expr.array, idx)
        val = buf[idx]
        if np.issubdtype(np.asarray(val).dtype, np.integer):
            return np.asarray(val, dtype=np.int64)
        return val

    # -- statements ------------------------------------------------------------

    def exec(self, stmts) -> None:
        for s in stmts:
            if isinstance(s, Assign):
                self.env[s.name] = self.eval(s.value)
            elif isinstance(s, For):
                for v in range(s.start, s.stop):
                    self.env[s.var] = v
                    self.exec(s.body)
            elif isinstance(s, Store):
                try:
                    buf = self.arrays[s.array]
                except KeyError:
                    raise KernelEvaluationError(
                        f"store to unbound array {s.array!r}"
                    ) from None
                idx = self._index_tuple(s.index, buf.shape, s.array, "store")
                if self.observer is not None:
                    self.observer("store", s.array, idx)
                val = self.eval(s.value)
                buf[idx] = val  # cast to buffer dtype; row-major last writer wins
            else:
                raise KernelEvaluationError(
                    f"unknown statement node {type(s).__name__}"
                )


def _apply_binop(op: str, lhs, rhs):
    if op == "+":
        return np.add(lhs, rhs)
    if op == "-":
        return np.subtract(lhs, rhs)
    if op == "*":
        return np.multiply(lhs, rhs)
    if op in ("/", "%"):
        # both branches of a Select run, so a zero scalar divisor may be dead:
        # evaluate it as one zero lane, which gives 0 instead of raising
        rhs = rhs if np.ndim(rhs) or rhs else np.zeros(1, np.asarray(rhs).dtype)
        return c_div(lhs, rhs) if op == "/" else c_mod(lhs, rhs)
    if op == "min":
        return np.minimum(lhs, rhs)
    if op == "max":
        return np.maximum(lhs, rhs)
    if op == "<":
        return np.less(lhs, rhs)
    if op == "<=":
        return np.less_equal(lhs, rhs)
    if op == ">":
        return np.greater(lhs, rhs)
    if op == ">=":
        return np.greater_equal(lhs, rhs)
    if op == "==":
        return np.equal(lhs, rhs)
    if op == "!=":
        return np.not_equal(lhs, rhs)
    if op == "&&":
        return np.logical_and(lhs, rhs)
    if op == "||":
        return np.logical_or(lhs, rhs)
    raise KernelEvaluationError(f"unknown binary op {op!r}")


def evaluate_kernel(
    kernel: Kernel,
    arrays: dict[str, np.ndarray],
    scalars: dict[str, int | float] | None = None,
    space: IndexSpace | None = None,
    observer: AccessObserver | None = None,
) -> None:
    """Execute ``kernel`` functionally against ``arrays`` (mutated in place).

    ``arrays`` maps array-parameter names to NumPy buffers whose shapes must
    match the declared parameter shapes; ``scalars`` binds scalar
    parameters.  ``space`` overrides the kernel's index space (the metrics
    prober evaluates over a 2-point sub-space); ``observer`` receives every
    memory access as ``(kind, array, index_arrays)``.
    """
    scalars = dict(scalars or {})
    for p in kernel.arrays:
        if p.name not in arrays:
            raise KernelEvaluationError(
                f"kernel {kernel.name!r}: array parameter {p.name!r} not bound"
            )
        if arrays[p.name].shape != p.shape:
            raise KernelEvaluationError(
                f"kernel {kernel.name!r}: buffer for {p.name!r} has shape "
                f"{arrays[p.name].shape}, declared {p.shape}"
            )
    for p in kernel.scalars:
        if p.name not in scalars:
            raise KernelEvaluationError(
                f"kernel {kernel.name!r}: scalar parameter {p.name!r} not bound"
            )
    space = space if space is not None else kernel.space
    if space.is_empty():
        return
    _Evaluator(kernel, arrays, scalars, space, observer).exec(kernel.body)
