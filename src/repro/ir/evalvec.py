"""Vectorised functional evaluation of kernels.

The simulated GPU executes a kernel by evaluating its body **once for the
whole index space** with NumPy array semantics: every scalar expression is
mapped to an array over the grid of work-items, static ``For`` loops are
unrolled, and ``Store`` statements become indexed assignments.  Index
values are open grids (:meth:`~repro.ir.kernel.IndexSpace.index_values`),
so index arithmetic costs one axis's values, and a store broadcasts its
index to the launch's extent.

This gives bit-exact results (C-truncating integer division via
:func:`repro.ir.expr.c_div`, C ``int`` wrapping via
:func:`repro.ir.expr.c_int`) at NumPy speed, with the same write-conflict
resolution as :func:`repro.tilers.ops.scatter` (row-major last writer wins —
kernels emitted by the backends never have intra-launch write conflicts,
which :mod:`repro.ir.validate` checks for the downscaler programs).

A launch runs the kernel's :mod:`~repro.ir.plan`, compiled on its first
launch: index values, their checks and their lowering to slices are worked
out once, not per launch.  The tree-walking interpreter here runs the
kernels the plan cannot lower, and is the reference the plan is tested
against.

:class:`IndexEvaluator` is the same interpreter without memory, and
:func:`kernel_accesses` walks a kernel's accesses in program order under
it (or under the region oracle's symbolic domain): together they give
the static index analyses and the cost model's access metrics
(:mod:`repro.ir.metrics`) every index value without running a kernel.
"""

from __future__ import annotations

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
    c_int,
    c_mod,
    walk,
)
from repro.ir.kernel import IndexSpace, Kernel
from repro.ir.stmt import Assign, For, Store

__all__ = [
    "evaluate_kernel",
    "IndexEvaluator",
    "KernelEvaluationError",
    "kernel_accesses",
]

_INT_MIN, _INT_MAX = -(2**31), 2**31 - 1


class KernelEvaluationError(IRError):
    """Raised when a kernel body cannot be evaluated (bad refs, OOB access)."""


class _Evaluator:
    def __init__(
        self,
        arrays: dict[str, np.ndarray],
        scalars: dict[str, int | float],
        space: IndexSpace,
    ):
        self.arrays = arrays
        self.scalars = scalars
        self.idx_values = space.index_values()
        self.extent = space.extent
        self.env: dict = {}

    # -- expressions ---------------------------------------------------------

    def eval(self, expr: Expr):
        if isinstance(expr, Const):
            v = expr.value
            # C types an int literal past C ``int`` as a wider integer
            return np.int64(v) if type(v) is int and not _INT_MIN <= v <= _INT_MAX else v
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
            return binary_function(expr.op)(self.eval(expr.lhs), self.eval(expr.rhs))
        if isinstance(expr, UnOp):
            return unary_function(expr.op)(self.eval(expr.operand))
        if isinstance(expr, Select):
            return np.where(
                c_int(self.eval(expr.cond)),
                self.eval(expr.if_true),
                self.eval(expr.if_false),
            )
        raise KernelEvaluationError(f"unknown expression node {type(expr).__name__}")

    def _index_tuple(self, index, shape, array, what):
        check_rank(index, shape, array, what)
        return tuple(
            check_component(self.eval(e), d, shape[d], array, what)
            for d, e in enumerate(index)
        )

    def _read(self, expr: Read):
        try:
            buf = self.arrays[expr.array]
        except KeyError:
            raise KernelEvaluationError(
                f"read of unbound array {expr.array!r}"
            ) from None
        return buf[self._index_tuple(expr.index, buf.shape, expr.array, "read")]

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
                val = stored(self.eval(s.value), buf)
                buf[broadcast_index(idx, self.extent)] = val
            else:
                raise KernelEvaluationError(
                    f"unknown statement node {type(s).__name__}"
                )


class IndexEvaluator(_Evaluator):
    """The interpreter without memory, for static analyses of index
    expressions over a whole index space (the bounds checker's exact phase,
    the SaC wrap splitter, the cost model's strides and unique bytes).

    An expression with no value raises :class:`~repro.errors.IRError`:
    a ``Read``, an unbound local or scalar, or a ``ThreadIdx`` past the
    rank (:class:`KernelEvaluationError`), and a scalar zero divisor.  A
    launch instead gives a zero divisor's lane 0, because a ``Select``
    evaluates both branches; here ``/`` and ``%`` are C division,
    :func:`~repro.ir.expr.c_div` and :func:`~repro.ir.expr.c_mod`.
    """

    def __init__(self, space: IndexSpace, scalars: dict[str, int | float] | None = None):
        super().__init__({}, dict(scalars or {}), space)

    def eval(self, expr: Expr):
        if isinstance(expr, BinOp) and expr.op in ("/", "%"):
            divide = c_div if expr.op == "/" else c_mod
            return divide(c_int(self.eval(expr.lhs)), c_int(self.eval(expr.rhs)))
        return super().eval(expr)

    def bind(self, name: str, expr: Expr) -> None:
        """Bind local ``name`` to the value of ``expr``; unbind it when
        ``expr`` has none."""
        try:
            self.env[name] = self.eval(expr)
        except IRError:
            self.env.pop(name, None)

    def loop(self, s: For):
        """Bind ``s``'s variable to each of its values in turn, yielding
        after each: the caller walks the loop body once per value."""
        for v in range(s.start, s.stop):
            self.env[s.var] = v
            yield


def kernel_accesses(body, domain):
    """Yield ``(site, kind, array, index)`` for every access of ``body`` in
    program order, a store before the reads nested in it.

    ``domain`` evaluates the body as the walk goes: ``domain.bind(name,
    expr)`` binds each ``Assign`` after the reads in it, and each step of
    ``domain.loop(s)`` is one pass over the body of ``For s``.  The region
    oracle's symbolic domain (:mod:`repro.analysis.regions`) passes once,
    with the loop variable as an open axis; :class:`IndexEvaluator` passes
    once per value.  Every pass numbers its accesses from where the loop
    starts, so a ``site`` names one access of the program text in either
    domain.
    """
    return _accesses(body, domain, 0)


def _accesses(body, domain, site: int):
    """:func:`kernel_accesses` numbering from ``site``; returns the next
    free number."""
    for s in body:
        if isinstance(s, For):
            start = site
            for _ in domain.loop(s):
                site = yield from _accesses(s.body, domain, start)
            continue
        if isinstance(s, Assign):
            accesses = _reads(s.value)
        elif isinstance(s, Store):
            accesses = [("store", s.array, s.index), *_reads(*s.index, s.value)]
        else:
            continue
        for kind, array, index in accesses:
            yield site, kind, array, index
            site += 1
        if isinstance(s, Assign):
            domain.bind(s.name, s.value)
    return site


def _reads(*exprs) -> list:
    return [
        ("read", sub.array, sub.index)
        for e in exprs
        for sub in walk(e)
        if isinstance(sub, Read)
    ]


def check_rank(index, shape, array: str, what: str) -> None:
    """Reject an access whose index rank differs from the array's."""
    if len(index) != len(shape):
        raise KernelEvaluationError(
            f"{what} of {array!r}: index rank {len(index)} != array rank "
            f"{len(shape)}"
        )


def check_component(value, d: int, extent: int, array: str, what: str) -> np.ndarray:
    """One index component's values as an array, checked integral and in
    ``[0, extent)``."""
    v = np.asarray(value)
    if not np.issubdtype(v.dtype, np.integer):
        raise KernelEvaluationError(
            f"{what} of {array!r}: index dim {d} is not integral"
        )
    if v.size and (int(v.min()) < 0 or int(v.max()) >= extent):
        raise KernelEvaluationError(
            f"{what} of {array!r}: index dim {d} out of bounds "
            f"[{int(v.min())}, {int(v.max())}] for extent {extent}"
        )
    return v


def stored(value, buf: np.ndarray):
    """``value`` as a store into ``buf`` converts it: an int32 buffer keeps
    the low 32 bits of an int64 value anyway, a float buffer gets the C
    ``int`` value."""
    return c_int(value) if buf.dtype.kind == "f" else value


def broadcast_index(idx: tuple, extent: tuple[int, ...]) -> tuple:
    """A store's index broadcast to the launch's extent (views, no copies):
    work-items sharing an element then write it row-major, last one wins."""
    return tuple(np.broadcast_to(i, extent) for i in idx)


def _divide(op: str):
    fn = c_div if op == "/" else c_mod

    def apply(lhs, rhs):
        # both branches of a Select run, so a zero scalar divisor may be dead:
        # evaluate it as one zero lane, which gives 0 instead of raising
        rhs = rhs if np.ndim(rhs) or rhs else np.zeros(1, np.asarray(rhs).dtype)
        return fn(lhs, rhs)

    return apply


def _is_float(value) -> bool:
    dtype = getattr(value, "dtype", None)
    return isinstance(value, float) if dtype is None else dtype.kind == "f"


def _ring(fn):
    """``+``, ``-``, ``*``: right modulo 2**32 on int64 values; an integer
    operand of a float operation converts from its C ``int`` value."""

    def apply(lhs, rhs):
        if _is_float(lhs) or _is_float(rhs):
            return fn(c_int(lhs), c_int(rhs))
        return fn(lhs, rhs)

    return apply


def _on_c_ints(fn):
    """``fn`` of C ``int`` operands: its result shows more than their low
    32 bits."""
    return lambda *operands: fn(*map(c_int, operands))


_BINARY = {
    "+": _ring(np.add),
    "-": _ring(np.subtract),
    "*": _ring(np.multiply),
    "/": _on_c_ints(_divide("/")),
    "%": _on_c_ints(_divide("%")),
    "min": _on_c_ints(np.minimum),
    "max": _on_c_ints(np.maximum),
    "<": _on_c_ints(np.less),
    "<=": _on_c_ints(np.less_equal),
    ">": _on_c_ints(np.greater),
    ">=": _on_c_ints(np.greater_equal),
    "==": _on_c_ints(np.equal),
    "!=": _on_c_ints(np.not_equal),
    "&&": _on_c_ints(np.logical_and),
    "||": _on_c_ints(np.logical_or),
}

_UNARY = {
    "-": np.negative,
    "abs": _on_c_ints(np.abs),
    "!": _on_c_ints(np.logical_not),
}


def binary_function(op: str):
    """The NumPy function the evaluators apply for binary operator ``op``."""
    try:
        return _BINARY[op]
    except KeyError:
        raise KernelEvaluationError(f"unknown binary op {op!r}") from None


def unary_function(op: str):
    """The NumPy function the evaluators apply for unary operator ``op``."""
    try:
        return _UNARY[op]
    except KeyError:
        raise KernelEvaluationError(f"unknown unary op {op!r}") from None


def evaluate_kernel(
    kernel: Kernel,
    arrays: dict[str, np.ndarray],
    scalars: dict[str, int | float] | None = None,
) -> None:
    """Execute ``kernel`` functionally against ``arrays`` (mutated in place).

    ``arrays`` maps array-parameter names to NumPy buffers whose shapes must
    match the declared parameter shapes; ``scalars`` binds scalar
    parameters.  The launch runs the kernel's compiled plan when it has one
    (:func:`repro.ir.plan.plan_of`); otherwise the interpreter runs over
    ``kernel.space``.
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
    if kernel.space.is_empty():
        return
    from repro.ir.plan import plan_of

    plan = plan_of(kernel)
    if plan is not None:
        plan.run(arrays, scalars)
    else:
        _Evaluator(arrays, scalars, kernel.space).exec(kernel.body)
