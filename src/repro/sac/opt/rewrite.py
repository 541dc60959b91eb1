"""AST rewriting utilities shared by the optimisation passes.

All passes rewrite by reconstruction (the AST is immutable).  The helpers
here provide generic bottom-up expression mapping, statement mapping,
variable substitution with explicit renaming, free-variable analysis and a
fresh-name supply.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

from repro.sac import ast

__all__ = [
    "map_expr",
    "map_stmt_exprs",
    "substitute_vars",
    "rename_locals",
    "free_vars_expr",
    "used_names_stmts",
    "assigned_names_stmts",
    "nests_within",
    "FreshNames",
]


class FreshNames:
    """Generates names guaranteed not to collide with a reserved set."""

    def __init__(self, reserved=()):
        self.reserved = set(reserved)
        self.counter = 0

    def fresh(self, base: str) -> str:
        while True:
            self.counter += 1
            name = f"_{base}_{self.counter}"
            if name not in self.reserved:
                self.reserved.add(name)
                return name


def map_expr(e: ast.Expr, fn: Callable[[ast.Expr], ast.Expr]) -> ast.Expr:
    """Rewrite ``e`` bottom-up: children first, then ``fn`` on the node."""
    e2 = _map_children(e, lambda c: map_expr(c, fn))
    return fn(e2)


def _map_children(e: ast.Expr, f: Callable[[ast.Expr], ast.Expr]) -> ast.Expr:
    if isinstance(e, (ast.IntLit, ast.FloatLit, ast.BoolLit, ast.Var, ast.Dot)):
        return e
    if isinstance(e, ast.ArrayLit):
        return replace(e, elements=tuple(f(x) for x in e.elements))
    if isinstance(e, ast.IndexExpr):
        return replace(e, array=f(e.array), index=f(e.index))
    if isinstance(e, ast.BinExpr):
        return replace(e, lhs=f(e.lhs), rhs=f(e.rhs))
    if isinstance(e, ast.UnExpr):
        return replace(e, operand=f(e.operand))
    if isinstance(e, ast.Call):
        return replace(e, args=tuple(f(a) for a in e.args))
    if isinstance(e, ast.WithLoop):
        gens = tuple(_map_generator(g, f) for g in e.generators)
        return replace(e, generators=gens, operation=_map_operation(e.operation, f))
    raise TypeError(f"unknown expression node {type(e).__name__}")


def _map_generator(g: ast.Generator, f) -> ast.Generator:
    return replace(
        g,
        lower=replace(g.lower, expr=f(g.lower.expr)),
        upper=replace(g.upper, expr=f(g.upper.expr)),
        step=None if g.step is None else f(g.step),
        width=None if g.width is None else f(g.width),
        body=tuple(map_stmt_exprs(s, f) for s in g.body),
        expr=f(g.expr),
    )


def _map_operation(op: ast.Operation, f) -> ast.Operation:
    if isinstance(op, ast.GenArray):
        return replace(
            op, shape=f(op.shape), default=None if op.default is None else f(op.default)
        )
    if isinstance(op, ast.ModArray):
        return replace(op, array=f(op.array))
    if isinstance(op, ast.Fold):
        return replace(op, neutral=f(op.neutral))
    raise TypeError(f"unknown operation node {type(op).__name__}")


def map_stmt_exprs(s: ast.Stmt, f: Callable[[ast.Expr], ast.Expr]) -> ast.Stmt:
    """Apply ``f`` to every expression in a statement, recursing into
    nested statement lists."""
    if isinstance(s, ast.Assign):
        return replace(s, value=f(s.value))
    if isinstance(s, ast.IndexedAssign):
        return replace(s, index=f(s.index), value=f(s.value))
    if isinstance(s, ast.Block):
        return replace(s, stmts=tuple(map_stmt_exprs(x, f) for x in s.stmts))
    if isinstance(s, ast.ForLoop):
        return replace(
            s,
            init=map_stmt_exprs(s.init, f),
            cond=f(s.cond),
            update=map_stmt_exprs(s.update, f),
            body=tuple(map_stmt_exprs(x, f) for x in s.body),
        )
    if isinstance(s, ast.IfElse):
        return replace(
            s,
            cond=f(s.cond),
            then=tuple(map_stmt_exprs(x, f) for x in s.then),
            orelse=tuple(map_stmt_exprs(x, f) for x in s.orelse),
        )
    if isinstance(s, ast.Return):
        return replace(s, value=None if s.value is None else f(s.value))
    raise TypeError(f"unknown statement node {type(s).__name__}")


def substitute_vars(e: ast.Expr, mapping: dict[str, ast.Expr]) -> ast.Expr:
    """Replace free ``Var`` occurrences per ``mapping``.

    Names bound inside nested WITH-loop generators shadow the mapping; the
    caller is expected to have renamed locals apart first (see
    :func:`rename_locals`), so only generator index variables need scope
    handling here.
    """

    def subst(expr: ast.Expr, mapping: dict[str, ast.Expr]) -> ast.Expr:
        if isinstance(expr, ast.Var):
            return mapping.get(expr.name, expr)
        if isinstance(expr, ast.WithLoop):
            gens = []
            for g in expr.generators:
                inner = {k: v for k, v in mapping.items() if k not in g.vars}
                # body-local assignments also shadow
                body_defs = assigned_names_stmts(g.body)
                inner = {k: v for k, v in inner.items() if k not in body_defs}
                gens.append(
                    replace(
                        g,
                        lower=replace(g.lower, expr=subst(g.lower.expr, mapping)),
                        upper=replace(g.upper, expr=subst(g.upper.expr, mapping)),
                        step=None if g.step is None else subst(g.step, mapping),
                        width=None if g.width is None else subst(g.width, mapping),
                        body=tuple(
                            map_stmt_exprs(s, lambda x: subst(x, inner)) for s in g.body
                        ),
                        expr=subst(g.expr, inner),
                    )
                )
            return replace(
                expr,
                generators=tuple(gens),
                operation=_map_operation(expr.operation, lambda x: subst(x, mapping)),
            )
        return _map_children(expr, lambda c: subst(c, mapping))

    return subst(e, mapping)


def rename_locals(
    stmts: tuple[ast.Stmt, ...],
    result_expr: ast.Expr,
    fresh: FreshNames,
    keep: frozenset[str] = frozenset(),
    also: frozenset[str] = frozenset(),
) -> tuple[tuple[ast.Stmt, ...], ast.Expr, dict[str, str]]:
    """Alpha-rename every name assigned in ``stmts`` (except ``keep``),
    plus the names in ``also`` (e.g. callee parameters during inlining).

    Returns the renamed statements, the renamed result expression, and the
    mapping applied.  Used when splicing a producer's generator body into a
    consumer (WITH-loop folding) or a callee's body into a caller (inlining).
    """
    assigned = (assigned_names_stmts(stmts) | set(also)) - set(keep)
    mapping = {name: fresh.fresh(name) for name in sorted(assigned)}
    expr_map = {old: ast.Var(name=new) for old, new in mapping.items()}

    def rename_stmt(s: ast.Stmt) -> ast.Stmt:
        s = map_stmt_exprs(s, lambda e: substitute_vars(e, expr_map))
        if isinstance(s, ast.Assign) and s.name in mapping:
            return replace(s, name=mapping[s.name])
        if isinstance(s, ast.IndexedAssign) and s.name in mapping:
            return replace(s, name=mapping[s.name])
        if isinstance(s, ast.ForLoop):
            return replace(
                s,
                init=rename_stmt(s.init),
                update=rename_stmt(s.update),
                body=tuple(rename_stmt(x) for x in s.body),
            )
        if isinstance(s, ast.IfElse):
            return replace(
                s,
                then=tuple(rename_stmt(x) for x in s.then),
                orelse=tuple(rename_stmt(x) for x in s.orelse),
            )
        if isinstance(s, ast.Block):
            return replace(s, stmts=tuple(rename_stmt(x) for x in s.stmts))
        return s

    new_stmts = tuple(rename_stmt(s) for s in stmts)
    new_expr = substitute_vars(result_expr, expr_map)
    return new_stmts, new_expr, mapping


def free_vars_expr(e: ast.Expr) -> set[str]:
    """Free variable names of an expression (generator vars are bound)."""
    out: set[str] = set()

    def go(expr: ast.Expr, bound: frozenset[str]) -> None:
        if isinstance(expr, ast.Var):
            if expr.name not in bound:
                out.add(expr.name)
            return
        if isinstance(expr, ast.WithLoop):
            for g in expr.generators:
                go(g.lower.expr, bound)
                go(g.upper.expr, bound)
                if g.step is not None:
                    go(g.step, bound)
                if g.width is not None:
                    go(g.width, bound)
                inner = bound | set(g.vars) | assigned_names_stmts(g.body)
                for s in g.body:
                    for sub in _stmt_exprs(s):
                        go(sub, inner)
                go(g.expr, inner)
            op = expr.operation
            if isinstance(op, ast.GenArray):
                go(op.shape, bound)
                if op.default is not None:
                    go(op.default, bound)
            elif isinstance(op, ast.ModArray):
                go(op.array, bound)
            elif isinstance(op, ast.Fold):
                go(op.neutral, bound)
            return
        if isinstance(expr, (ast.IntLit, ast.FloatLit, ast.BoolLit, ast.Dot)):
            return
        if isinstance(expr, ast.ArrayLit):
            for x in expr.elements:
                go(x, bound)
        elif isinstance(expr, ast.IndexExpr):
            go(expr.array, bound)
            go(expr.index, bound)
        elif isinstance(expr, ast.BinExpr):
            go(expr.lhs, bound)
            go(expr.rhs, bound)
        elif isinstance(expr, ast.UnExpr):
            go(expr.operand, bound)
        elif isinstance(expr, ast.Call):
            for a in expr.args:
                go(a, bound)
        else:
            raise TypeError(f"unknown expression node {type(expr).__name__}")

    go(e, frozenset())
    return out


def _stmt_exprs(s: ast.Stmt):
    """Immediate expressions of a statement (recursing into nested stmts)."""
    if isinstance(s, ast.Assign):
        yield s.value
    elif isinstance(s, ast.IndexedAssign):
        yield s.index
        yield s.value
    elif isinstance(s, ast.Block):
        for x in s.stmts:
            yield from _stmt_exprs(x)
    elif isinstance(s, ast.ForLoop):
        yield from _stmt_exprs(s.init)
        yield s.cond
        yield from _stmt_exprs(s.update)
        for x in s.body:
            yield from _stmt_exprs(x)
    elif isinstance(s, ast.IfElse):
        yield s.cond
        for x in s.then:
            yield from _stmt_exprs(x)
        for x in s.orelse:
            yield from _stmt_exprs(x)
    elif isinstance(s, ast.Return):
        if s.value is not None:
            yield s.value
    else:
        raise TypeError(f"unknown statement node {type(s).__name__}")


def used_names_stmts(stmts) -> set[str]:
    """All variable names *read* anywhere in the statements."""
    out: set[str] = set()
    for s in stmts:
        if isinstance(s, ast.IndexedAssign):
            out.add(s.name)  # reads the old array value
        for e in _stmt_exprs(s):
            out |= free_vars_expr(e)
    return out


def assigned_names_stmts(stmts) -> set[str]:
    """All names assigned anywhere in the statements (any nesting)."""
    out: set[str] = set()
    for s in stmts:
        if isinstance(s, ast.Assign):
            out.add(s.name)
        elif isinstance(s, ast.IndexedAssign):
            out.add(s.name)
        elif isinstance(s, ast.Block):
            out |= assigned_names_stmts(s.stmts)
        elif isinstance(s, ast.ForLoop):
            out |= assigned_names_stmts((s.init, s.update))
            out |= assigned_names_stmts(s.body)
        elif isinstance(s, ast.IfElse):
            out |= assigned_names_stmts(s.then)
            out |= assigned_names_stmts(s.orelse)
    return out


def nests_within(s: ast.Stmt, levels: int) -> bool:
    """Whether statement ``s`` nests at most ``levels`` levels deep.

    Levels count as :data:`repro.sac.parser.MAX_DEPTH` counts them, with
    the parentheses the tree no longer holds left out: a literal or a
    variable is one level, and every operation, subscript, call, array
    literal, WITH-loop and nested block adds one around its operands.  The
    walk stops at ``levels + 1``, so it stays shallow on any tree.
    """
    if isinstance(s, (ast.Assign, ast.Return)):
        return s.value is None or _expr_within(s.value, levels)
    if isinstance(s, ast.IndexedAssign):
        return _expr_within(s.index, levels) and _expr_within(s.value, levels)
    return levels > 1 and all(
        nests_within(x, levels - 1) if isinstance(x, ast.Stmt) else _expr_within(x, levels - 1)
        for x in _stmt_parts(s)
    )


def _stmt_parts(s: ast.Stmt):
    """The statements and expressions directly inside a compound statement."""
    if isinstance(s, ast.Block):
        yield from s.stmts
    elif isinstance(s, ast.ForLoop):
        yield s.init
        yield s.cond
        yield s.update
        yield from s.body
    elif isinstance(s, ast.IfElse):
        yield s.cond
        yield from s.then
        yield from s.orelse
    else:
        raise TypeError(f"unknown statement node {type(s).__name__}")


_LEAVES = (ast.Var, ast.IntLit, ast.FloatLit, ast.BoolLit, ast.Dot)


def _expr_within(e: ast.Expr, levels: int) -> bool:
    if levels < 1:
        return False
    t = type(e)
    if t in _LEAVES:
        return True
    inner = levels - 1
    if t is ast.BinExpr:
        return _expr_within(e.lhs, inner) and _expr_within(e.rhs, inner)
    if t is ast.IndexExpr:
        return _expr_within(e.array, inner) and _expr_within(e.index, inner)
    if t is ast.ArrayLit:
        return all(_expr_within(x, inner) for x in e.elements)
    if t is ast.UnExpr:
        return _expr_within(e.operand, inner)
    if t is ast.Call:
        return all(_expr_within(x, inner) for x in e.args)
    if t is ast.WithLoop:
        parts = []
        for g in e.generators:
            parts += [g.lower.expr, g.upper.expr, g.step, g.width, g.expr]
            if not all(nests_within(x, inner) for x in g.body):
                return False
        op = e.operation
        if isinstance(op, ast.GenArray):
            parts += [op.shape, op.default]
        elif isinstance(op, ast.ModArray):
            parts.append(op.array)
        elif isinstance(op, ast.Fold):
            parts.append(op.neutral)
        return all(x is None or _expr_within(x, inner) for x in parts)
    raise TypeError(f"unknown expression node {t.__name__}")
