"""Dead code elimination.

Removes assignments whose targets are never read afterwards — in particular
the producer WITH-loops left behind by WITH-loop folding, and the unused
tiler-parameter bindings left behind by inlining.  Statements with no
assignment effect are never removed (there are none in this subset: every
statement either assigns or returns).
"""

from __future__ import annotations

from dataclasses import replace

from repro.sac import ast
from repro.sac.opt.rewrite import assigned_names_stmts, free_vars_expr

__all__ = ["dce_function", "dce_stmts"]


def _expr_uses(e: ast.Expr) -> set[str]:
    return free_vars_expr(e)


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
            live.update(_expr_uses(s.value))
            # generator bodies may read names too — free_vars_expr covers them
            out.append(_dce_nested_withloops(s))
        elif isinstance(s, ast.IndexedAssign):
            if s.name not in live:
                continue
            # reads the previous array value, so the name stays live
            live.update(_expr_uses(s.index))
            live.update(_expr_uses(s.value))
            live.add(s.name)
            out.append(s)
        elif isinstance(s, ast.Block):
            inner = dce_stmts(s.stmts, live)
            if inner:
                out.append(replace(s, stmts=inner))
        elif isinstance(s, ast.ForLoop):
            # keep loops whose body assigns something live; loop-carried
            # dependences force a fixpoint over the body's reads
            assigned = assigned_names_stmts(s.body) | {s.init.name, s.update.name}
            if not (assigned & live):
                continue  # nothing the loop produces is needed
            body_reads: set[str] = set()
            _collect_stmt_reads(s.body, body_reads)
            live.update(body_reads)
            live.update(_expr_uses(s.cond))
            live.update(_expr_uses(s.update.value))
            live.discard(s.init.name)
            live.update(_expr_uses(s.init.value))
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
            live.update(_expr_uses(s.cond))
            out.append(replace(s, then=then, orelse=orelse))
        elif isinstance(s, ast.Return):
            if s.value is not None:
                live.update(_expr_uses(s.value))
            out.append(s)
        else:
            out.append(s)
    return tuple(reversed(out))


def _collect_stmt_reads(stmts, acc: set[str]) -> None:
    from repro.sac.opt.rewrite import used_names_stmts

    acc |= used_names_stmts(stmts)


def _dce_nested_withloops(s: ast.Assign) -> ast.Assign:
    """Clean dead locals inside WITH-loop generator bodies.

    ``map_expr`` rewrites bottom-up, so nested WITH-loops are cleaned before
    their enclosing ones; each visit only has to prune its own generator
    bodies.
    """
    from repro.sac.opt.rewrite import map_expr

    def clean(e: ast.Expr) -> ast.Expr:
        if isinstance(e, ast.WithLoop):
            gens = []
            for g in e.generators:
                live = _expr_uses(g.expr)
                gens.append(replace(g, body=dce_stmts(g.body, live)))
            return replace(e, generators=tuple(gens))
        return e

    return replace(s, value=map_expr(s.value, clean))


def dce_function(fun: ast.FunDef) -> ast.FunDef:
    live: set[str] = set()
    body = dce_stmts(fun.body, live)
    return replace(fun, body=body)
