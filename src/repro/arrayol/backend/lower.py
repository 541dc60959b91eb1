"""Lowering of repetitive tasks to kernels (one kernel per elementary task).

Gaspard2 turns every device-allocated repetitive task into **one OpenCL
kernel** whose work-items enumerate the repetition space; the tiler
gather/scatter becomes per-work-item address arithmetic inside the kernel
(the paper's Figure 11).  That one-kernel-per-task structure is what gives
Table I its "H. Filter (3 kernels)" row — versus the SaC route's
one-kernel-per-generator.
"""

from __future__ import annotations

from repro.errors import BackendError
from repro.arrayol.model import ElementaryTask, RepetitiveTask
from repro.ir import expr as ir
from repro.ir import stmt as irs
from repro.ir.kernel import ArrayParam, IndexSpace, Kernel
from repro.tilers import Tiler

__all__ = ["tiler_index_exprs", "kernel_for_repetitive"]


def tiler_index_exprs(
    tiler: Tiler, pattern_index: tuple[int, ...]
) -> tuple[ir.Expr, ...]:
    """Array index expressions for one pattern element at the work-item's
    repetition point: ``(o + P·r + F·i) mod shape`` per dimension, with
    ``r`` given by :class:`~repro.ir.expr.ThreadIdx` components."""
    if len(pattern_index) != tiler.pattern_rank:
        raise BackendError(
            f"pattern index {pattern_index} has rank {len(pattern_index)}, "
            f"tiler pattern rank is {tiler.pattern_rank}"
        )
    out: list[ir.Expr] = []
    for d in range(tiler.array_rank):
        const = tiler.origin[d]
        for p, i in enumerate(pattern_index):
            const += tiler.fitting[d][p] * i
        expr: ir.Expr | None = ir.Const(const) if const != 0 else None
        min_value = const
        for m in range(tiler.repetition_rank):
            coef = tiler.paving[d][m]
            if coef == 0:
                continue
            if coef < 0:
                min_value += coef * (tiler.repetition_shape[m] - 1)
            term: ir.Expr = ir.ThreadIdx(m)
            if coef != 1:
                term = ir.BinOp("*", ir.Const(coef), term)
            expr = term if expr is None else ir.BinOp("+", expr, term)
        if expr is None:
            expr = ir.Const(0)
        extent = tiler.array_shape[d]
        idx = ir.BinOp("%", expr, ir.Const(extent))
        if min_value < 0:
            # ArrayOL's modulo is mathematical; C's '%' truncates towards
            # zero, so a possibly-negative index needs the usual fix-up
            idx = ir.BinOp(
                "%", ir.BinOp("+", idx, ir.Const(extent)), ir.Const(extent)
            )
        out.append(idx)
    return tuple(out)


def kernel_for_repetitive(
    task: RepetitiveTask,
    kernel_name: str,
    buffer_of_port: dict[str, str],
) -> Kernel:
    """Build the kernel of one repetitive task instance.

    ``buffer_of_port`` maps the task's *outer* port names to dataflow
    buffer names (kernel parameter names).
    """
    inner = task.inner
    if not isinstance(inner, ElementaryTask):
        raise BackendError(
            f"{task.name}: only elementary inner tasks lower to kernels "
            f"(got {type(inner).__name__})"
        )
    space = IndexSpace(
        lower=tuple(0 for _ in task.repetition), upper=tuple(task.repetition)
    )

    # substitute pattern reads by tiler-addressed array reads
    def substitute(e: ir.Expr) -> ir.Expr:
        if isinstance(e, ir.Read):
            conn = task.input_tiler_for(e.array)
            pat_idx = []
            for comp in e.index:
                if not isinstance(comp, ir.Const):
                    raise BackendError(
                        f"{task.name}: pattern read index must be constant"
                    )
                pat_idx.append(int(comp.value))
            buffer = buffer_of_port[conn.outer_port]
            return ir.Read(buffer, tiler_index_exprs(conn.tiler, tuple(pat_idx)))
        if isinstance(e, ir.BinOp):
            return ir.BinOp(e.op, substitute(e.lhs), substitute(e.rhs))
        if isinstance(e, ir.UnOp):
            return ir.UnOp(e.op, substitute(e.operand))
        if isinstance(e, ir.Select):
            return ir.Select(
                substitute(e.cond), substitute(e.if_true), substitute(e.if_false)
            )
        return e

    body: list[irs.Stmt] = []
    for name, expr in inner.locals:
        body.append(irs.Assign(name, substitute(expr)))
    for pe in inner.body:
        conn = task.output_tiler_for(pe.port)
        target = buffer_of_port[conn.outer_port]
        value = substitute(pe.expr)
        index = tiler_index_exprs(conn.tiler, (pe.index,))
        body.append(irs.Store(target, index, value))
    facts = irs.body_facts(body)
    reads, writes = facts.arrays("read"), facts.arrays("store")

    shapes: dict[str, tuple[int, ...]] = {}
    dtypes: dict[str, str] = {}
    for conn in (*task.input_tilers, *task.output_tilers):
        buf = buffer_of_port[conn.outer_port]
        shapes[buf] = conn.tiler.array_shape
        dtypes[buf] = task.port(conn.outer_port).dtype

    arrays = []
    for name in sorted(reads | writes):
        intent = "out" if name in writes and name not in reads else (
            "inout" if name in writes else "in"
        )
        arrays.append(
            ArrayParam(name, shapes[name], dtypes.get(name, "int32"), intent=intent)
        )
    return Kernel(
        name=kernel_name,
        space=space,
        arrays=tuple(arrays),
        body=tuple(body),
        provenance=f"repetitive task {task.name}",
    )
