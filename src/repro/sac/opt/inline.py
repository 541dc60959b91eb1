"""Function inlining.

WITH-loops containing user function invocations cannot become CUDA kernels
(paper Section VII), and WITH-loop folding needs producers and consumers in
the same statement list — so the pipeline first inlines every user call.

A function is *inlinable* when its body is straight-line (assignments,
loops, conditionals) ending in a single ``return expr``.  Calls are first
**lifted**: any user call nested inside an expression becomes a fresh
temporary assignment just before the enclosing statement (or at the head of
a generator body for calls in the cell expression); then direct
``x = f(args)`` assignments are expanded by splicing the alpha-renamed body.
Non-inlinable calls (early returns, recursion) are left in place — the
interpreter still handles them; the CUDA backend will keep such loops on the
host.
"""

from __future__ import annotations

from dataclasses import replace

from repro.errors import OptimisationError
from repro.sac import ast
from repro.sac.builtins import is_builtin
from repro.sac.opt.rewrite import (
    FreshNames,
    assigned_names_stmts,
    rename_locals,
    used_names_stmts,
)

__all__ = ["inline_function", "is_inlinable"]

_MAX_ROUNDS = 32


def is_inlinable(fun: ast.FunDef) -> bool:
    """Straight-line body with exactly one trailing return."""
    if not fun.body or not isinstance(fun.body[-1], ast.Return):
        return False
    if fun.body[-1].value is None:
        return False

    def has_return(stmts) -> bool:
        for s in stmts:
            if isinstance(s, ast.Return):
                return True
            if isinstance(s, ast.Block) and has_return(s.stmts):
                return True
            if isinstance(s, ast.ForLoop) and has_return(s.body):
                return True
            if isinstance(s, ast.IfElse) and (
                has_return(s.then) or has_return(s.orelse)
            ):
                return True
        return False

    return not has_return(fun.body[:-1])


def inline_function(program: ast.Program, name: str) -> ast.FunDef:
    """Return ``name``'s definition with user calls inlined to fixpoint."""
    fun = program.function(name)
    functions = {f.name: f for f in program.functions}
    recursive = _recursive_functions(functions)

    body = fun.body
    for _ in range(_MAX_ROUNDS):
        fresh = FreshNames(assigned_names_stmts(body) | used_names_stmts(body) | {name})
        changed, body = _inline_round(body, functions, name, fresh, recursive)
        if not changed:
            return replace(fun, body=body)
    raise OptimisationError(
        f"inlining {name!r} did not converge after {_MAX_ROUNDS} rounds"
    )


def _recursive_functions(functions: dict[str, ast.FunDef]) -> frozenset[str]:
    """Functions on a call-graph cycle (never inlined)."""
    callees: dict[str, set[str]] = {}
    for name, fun in functions.items():
        called: set[str] = set()

        def collect(e: ast.Expr) -> ast.Expr:
            if isinstance(e, ast.Call) and e.name in functions:
                called.add(e.name)
            return e

        from repro.sac.opt.rewrite import map_expr, map_stmt_exprs

        for s in fun.body:
            map_stmt_exprs(s, lambda x: map_expr(x, collect))
        callees[name] = called

    recursive: set[str] = set()
    for start in functions:
        # DFS: can `start` reach itself?
        stack = list(callees[start])
        seen: set[str] = set()
        while stack:
            cur = stack.pop()
            if cur == start:
                recursive.add(start)
                break
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(callees.get(cur, ()))
    return frozenset(recursive)


def _inline_round(stmts, functions, self_name, fresh, recursive=frozenset()):
    """One lift-then-expand round over a statement list."""
    changed = False
    out: list[ast.Stmt] = []

    def is_user_call(e: ast.Expr) -> bool:
        return (
            isinstance(e, ast.Call)
            and not is_builtin(e.name)
            and e.name != "genarray"
            and e.name in functions
            and e.name != self_name
            and e.name not in recursive
            and is_inlinable(functions[e.name])
        )

    def lift(e: ast.Expr, pre: list[ast.Stmt]) -> ast.Expr:
        """Replace nested user calls with temporaries assigned in ``pre``.

        WITH-loops are a scope boundary: calls inside generator internals
        may depend on index variables, so they lift into the generator's
        own body via :func:`_lift_in_expr`, never into the outer ``pre``.
        """
        nonlocal changed
        if isinstance(e, ast.WithLoop):
            return _lift_in_expr(e, pre, lift, process_stmts)
        if isinstance(e, (ast.IntLit, ast.FloatLit, ast.BoolLit, ast.Var, ast.Dot)):
            return e
        if isinstance(e, ast.ArrayLit):
            return replace(e, elements=tuple(lift(x, pre) for x in e.elements))
        if isinstance(e, ast.IndexExpr):
            return replace(e, array=lift(e.array, pre), index=lift(e.index, pre))
        if isinstance(e, ast.BinExpr):
            return replace(e, lhs=lift(e.lhs, pre), rhs=lift(e.rhs, pre))
        if isinstance(e, ast.UnExpr):
            return replace(e, operand=lift(e.operand, pre))
        if isinstance(e, ast.Call):
            e = replace(e, args=tuple(lift(a, pre) for a in e.args))
            if is_user_call(e):
                tmp = fresh.fresh(f"call_{e.name}")
                pre.append(ast.Assign(name=tmp, value=e, loc=e.loc))
                changed = True
                return ast.Var(name=tmp, loc=e.loc)
            return e
        raise OptimisationError(f"cannot lift calls in {type(e).__name__}")

    def expand_call(target: str, call: ast.Call, loc) -> list[ast.Stmt]:
        """Splice the callee body for ``target = f(args)``."""
        nonlocal changed
        changed = True
        callee = functions[call.name]
        if len(call.args) != len(callee.params):
            raise OptimisationError(
                f"call to {call.name!r} with {len(call.args)} arguments, "
                f"expected {len(callee.params)}"
            )
        ret = callee.body[-1]
        assert isinstance(ret, ast.Return) and ret.value is not None
        # rename locals *and* parameters apart (parameters may be reassigned
        # in the body — the paper's tilers rebind their output parameter)
        param_names = frozenset(p.name for p in callee.params)
        body, ret_expr, mapping = rename_locals(
            callee.body[:-1], ret.value, fresh, also=param_names
        )
        param_stmts: list[ast.Stmt] = [
            ast.Assign(name=mapping[p.name], value=a, loc=loc)
            for p, a in zip(callee.params, call.args)
        ]
        return [*param_stmts, *body, ast.Assign(name=target, value=ret_expr, loc=loc)]

    def process_stmt(s: ast.Stmt) -> list[ast.Stmt]:
        nonlocal changed
        pre: list[ast.Stmt] = []
        if isinstance(s, ast.Assign):
            if is_user_call(s.value):
                return expand_call(s.name, s.value, s.loc)
            value = _lift_in_expr(s.value, pre, lift, process_stmts)
            return [*pre, replace(s, value=value)]
        if isinstance(s, ast.IndexedAssign):
            index = lift(s.index, pre)
            value = _lift_in_expr(s.value, pre, lift, process_stmts)
            return [*pre, replace(s, index=index, value=value)]
        if isinstance(s, ast.Return):
            if s.value is None:
                return [s]
            value = _lift_in_expr(s.value, pre, lift, process_stmts)
            return [*pre, replace(s, value=value)]
        if isinstance(s, ast.Block):
            return [replace(s, stmts=tuple(process_stmts(s.stmts)))]
        if isinstance(s, ast.ForLoop):
            # calls in loop bodies are handled recursively; calls in the
            # condition/update would need per-iteration lifting — inline
            # them in place only if direct statement form appears inside.
            return [replace(s, body=tuple(process_stmts(s.body)))]
        if isinstance(s, ast.IfElse):
            cond = lift(s.cond, pre)
            return [
                *pre,
                replace(
                    s,
                    cond=cond,
                    then=tuple(process_stmts(s.then)),
                    orelse=tuple(process_stmts(s.orelse)),
                ),
            ]
        return [s]

    def process_stmts(stmts) -> list[ast.Stmt]:
        result: list[ast.Stmt] = []
        for s in stmts:
            result.extend(process_stmt(s))
        return result

    out = process_stmts(stmts)
    return changed, tuple(out)


def _lift_in_expr(e: ast.Expr, pre: list[ast.Stmt], lift, process_stmts) -> ast.Expr:
    """Lift calls in ``e``; WITH-loop generator internals lift into the
    generator's own body (they may depend on the index variable)."""
    if isinstance(e, ast.WithLoop):
        gens = []
        for g in e.generators:
            gpre: list[ast.Stmt] = []
            body = process_stmts(g.body)
            expr = lift(g.expr, gpre)
            gens.append(replace(g, body=tuple(body + gpre), expr=expr))
        op = e.operation
        if isinstance(op, ast.GenArray):
            op = replace(
                op,
                shape=lift(op.shape, pre),
                default=None if op.default is None else lift(op.default, pre),
            )
        elif isinstance(op, ast.ModArray):
            op = replace(op, array=lift(op.array, pre))
        elif isinstance(op, ast.Fold):
            op = replace(op, neutral=lift(op.neutral, pre))
        return replace(e, generators=tuple(gens), operation=op)
    return lift(e, pre)
