"""Static work estimates for host-side constructs.

Used by the backend to attach :class:`~repro.ir.program.HostWork` summaries
to host-compute steps.  Estimates count *unoptimised* scalar operations —
the paper's compiler does not partially evaluate non-WITH-loop constructs,
so the generic output tiler pays the full per-element tiler index
arithmetic on the host (the effect behind Figure 9's generic/non-generic
GPU gap).
"""

from __future__ import annotations

import numpy as np

from repro.sac import ast
from repro.sac.opt.withinfo import const_int_vector, static_frame_shape

__all__ = ["estimate_ops", "expr_ops", "loop_trips", "static_value_shape"]


def static_value_shape(e: ast.Expr, shapes) -> tuple[int, ...] | None:
    """Shape of host-computed values we can determine statically."""
    if isinstance(e, ast.Call) and e.name == "genarray" and e.args:
        shp = const_int_vector(e.args[0])
        if shp is not None:
            return shp
    if isinstance(e, ast.ArrayLit):
        # literal (possibly nested) arrays
        def probe(x) -> tuple[int, ...] | None:
            if isinstance(x, ast.ArrayLit):
                if not x.elements:
                    return (0,)
                inner = probe(x.elements[0])
                return None if inner is None else (len(x.elements),) + inner
            return ()

        return probe(e)
    if isinstance(e, ast.Var):
        return shapes.get(e.name)
    if isinstance(e, ast.WithLoop):
        base_shape = None
        if isinstance(e.operation, ast.ModArray) and isinstance(
            e.operation.array, ast.Var
        ):
            base_shape = shapes.get(e.operation.array.name)
        return static_frame_shape(e, base_shape)
    return None


#: the expressions that count one operation each
_OPS = (ast.BinExpr, ast.UnExpr, ast.IndexExpr, ast.Call)


def expr_ops(e: ast.Expr) -> int:
    """Scalar-operation estimate of one expression evaluation.

    Counts operations (arithmetic, selections, calls, vector construction);
    literals and variable references are free.  A WITH-loop charges its
    generator bodies' assignments and its cells once per frame point, and
    nothing for its bounds or its operation.
    """
    if isinstance(e, ast.WithLoop):
        inner = sum(
            sum(expr_ops(s.value) for s in g.body if isinstance(s, ast.Assign))
            + expr_ops(g.expr)
            for g in e.generators
        )
        shape = static_frame_shape(e)
        return inner * (1 if shape is None else int(np.prod(shape)))
    return (1 if isinstance(e, _OPS) else 0) + sum(expr_ops(c) for c in ast.children(e))


def loop_trips(s: ast.ForLoop) -> int | None:
    """Trip count of a canonical counted loop (init 0, cond < N, step +1)."""
    if not isinstance(s.init.value, ast.IntLit):
        return None
    start = s.init.value.value
    cond = s.cond
    if not (
        isinstance(cond, ast.BinExpr)
        and cond.op in ("<", "<=")
        and isinstance(cond.lhs, ast.Var)
        and cond.lhs.name == s.init.name
        and isinstance(cond.rhs, ast.IntLit)
    ):
        return None
    stop = cond.rhs.value + (1 if cond.op == "<=" else 0)
    upd = s.update
    if not (
        isinstance(upd, ast.Assign)
        and isinstance(upd.value, ast.BinExpr)
        and upd.value.op == "+"
        and isinstance(upd.value.rhs, ast.IntLit)
    ):
        return None
    step = upd.value.rhs.value
    if step <= 0:
        return None
    return max(0, -(-(stop - start) // step))


def estimate_ops(stmts) -> int:
    """Total scalar operations of a host statement list (static bounds)."""
    total = 0
    for s in stmts:
        if isinstance(s, ast.Assign):
            total += expr_ops(s.value)
        elif isinstance(s, ast.IndexedAssign):
            total += expr_ops(s.index) + expr_ops(s.value) + 1
        elif isinstance(s, ast.Block):
            total += estimate_ops(s.stmts)
        elif isinstance(s, ast.ForLoop):
            trips = loop_trips(s)
            body = estimate_ops(s.body) + expr_ops(s.cond) + 1
            total += body * (trips if trips is not None else 1)
        elif isinstance(s, ast.IfElse):
            total += expr_ops(s.cond) + max(
                estimate_ops(s.then), estimate_ops(s.orelse)
            )
        elif isinstance(s, ast.Return) and s.value is not None:
            total += expr_ops(s.value)
    return total
