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
        return any(
            isinstance(s, ast.Return)
            or has_return(c for c in ast.children(s) if isinstance(c, ast.Stmt))
            for s in stmts
        )

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
            return ast.rebuild(fun, body=body)
    raise OptimisationError(
        f"inlining {name!r} did not converge after {_MAX_ROUNDS} rounds"
    )


def _recursive_functions(functions: dict[str, ast.FunDef]) -> frozenset[str]:
    """Functions on a call-graph cycle (never inlined)."""
    callees = {
        name: {
            node.name
            for node in ast.walk(fun)
            if isinstance(node, ast.Call) and node.name in functions
        }
        for name, fun in functions.items()
    }

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
        may depend on index variables, so a generator's body and cell lift
        into that body, never into the outer ``pre``.  Bounds are left as
        they are.
        """
        nonlocal changed
        if isinstance(e, ast.WithLoop):
            gens = []
            for g in e.generators:
                gpre: list[ast.Stmt] = []
                body = process_stmts(g.body)
                expr = lift(g.expr, gpre)
                gens.append(ast.rebuild(g, body=tuple(body + gpre), expr=expr))
            operation = ast.map_children(e.operation, lambda c: lift(c, pre))
            return ast.rebuild(e, generators=tuple(gens), operation=operation)
        e = ast.map_children(e, lambda c: lift(c, pre))
        if is_user_call(e):
            tmp = fresh.fresh(f"call_{e.name}")
            pre.append(ast.Assign(name=tmp, value=e, loc=e.loc))
            changed = True
            return ast.Var(name=tmp, loc=e.loc)
        return e

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
            value = lift(s.value, pre)
            return [*pre, ast.rebuild(s, value=value)]
        if isinstance(s, ast.IndexedAssign):
            index = lift(s.index, pre)
            value = lift(s.value, pre)
            return [*pre, ast.rebuild(s, index=index, value=value)]
        if isinstance(s, ast.Return):
            if s.value is None:
                return [s]
            value = lift(s.value, pre)
            return [*pre, ast.rebuild(s, value=value)]
        if isinstance(s, ast.Block):
            return [ast.rebuild(s, stmts=tuple(process_stmts(s.stmts)))]
        if isinstance(s, ast.ForLoop):
            # calls in loop bodies are handled recursively; calls in the
            # condition/update would need per-iteration lifting — inline
            # them in place only if direct statement form appears inside.
            return [ast.rebuild(s, body=tuple(process_stmts(s.body)))]
        if isinstance(s, ast.IfElse):
            cond = lift(s.cond, pre)
            return [
                *pre,
                ast.rebuild(
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
