"""Dead code elimination.

Removes assignments whose targets are never read afterwards — in particular
the producer WITH-loops left behind by WITH-loop folding, and the unused
tiler-parameter bindings left behind by inlining.  Statements with no
assignment effect are never removed (there are none in this subset: every
statement either assigns or returns).
"""

from __future__ import annotations

from repro.sac import ast
from repro.sac.opt.rewrite import (
    assigned_names_stmts,
    free_vars_expr,
    map_expr,
    used_names_stmts,
)

__all__ = ["dce_function", "dce_stmts"]


def dce_stmts(stmts: tuple[ast.Stmt, ...], live: set[str]) -> tuple[ast.Stmt, ...]:
    """Remove dead assignments from a statement list.

    ``live`` is the set of names read *after* this list (data flowing out);
    it is updated in place to the set of names read *before* the list.
    """
    out: list[ast.Stmt] = []
    for s in reversed(stmts):
        if isinstance(s, ast.Assign):
            if s.name not in live:
                continue  # dead
            live.discard(s.name)
            live.update(free_vars_expr(s.value))
            # generator bodies may read names too — free_vars_expr covers them
            out.append(_dce_nested_withloops(s))
        elif isinstance(s, ast.IndexedAssign):
            if s.name not in live:
                continue
            # reads the previous array value, so the name stays live
            live.update(free_vars_expr(s.index))
            live.update(free_vars_expr(s.value))
            live.add(s.name)
            out.append(s)
        elif isinstance(s, ast.Block):
            inner = dce_stmts(s.stmts, live)
            if inner:
                out.append(ast.rebuild(s, stmts=inner))
        elif isinstance(s, ast.ForLoop):
            # keep loops whose body assigns something live; loop-carried
            # dependences force a fixpoint over the body's reads
            assigned = assigned_names_stmts(s.body) | {s.init.name, s.update.name}
            if not (assigned & live):
                continue  # nothing the loop produces is needed
            live.update(used_names_stmts(s.body))
            live.update(free_vars_expr(s.cond))
            live.update(free_vars_expr(s.update.value))
            live.discard(s.init.name)
            live.update(free_vars_expr(s.init.value))
            # conservatively keep every statement inside the loop
            out.append(s)
        elif isinstance(s, ast.IfElse):
            assigned = assigned_names_stmts(s.then) | assigned_names_stmts(s.orelse)
            if not (assigned & live):
                continue
            then_live = set(live)
            else_live = set(live)
            then = dce_stmts(s.then, then_live)
            orelse = dce_stmts(s.orelse, else_live)
            live.clear()
            live.update(then_live | else_live)
            live.update(free_vars_expr(s.cond))
            out.append(ast.rebuild(s, then=then, orelse=orelse))
        elif isinstance(s, ast.Return):
            if s.value is not None:
                live.update(free_vars_expr(s.value))
            out.append(s)
        else:
            out.append(s)
    return tuple(reversed(out))


def _dce_nested_withloops(s: ast.Assign) -> ast.Assign:
    """Clean dead locals inside WITH-loop generator bodies.

    ``map_expr`` rewrites bottom-up, so nested WITH-loops are cleaned before
    their enclosing ones; each visit only has to prune its own generator
    bodies.
    """

    def clean(e: ast.Expr) -> ast.Expr:
        if isinstance(e, ast.WithLoop):
            gens = tuple(
                ast.rebuild(g, body=dce_stmts(g.body, free_vars_expr(g.expr)))
                for g in e.generators
            )
            return ast.rebuild(e, generators=gens)
        return e

    return map_expr(s, clean)


def dce_function(fun: ast.FunDef) -> ast.FunDef:
    return ast.rebuild(fun, body=dce_stmts(fun.body, set()))
