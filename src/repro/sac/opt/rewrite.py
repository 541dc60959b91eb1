"""AST rewriting utilities shared by the optimisation passes.

All passes rewrite by reconstruction (the AST is immutable), through the
child map of :mod:`repro.sac.ast`: a rebuild returns the node itself when
every child comes back as the same object, so a pass that changes nothing
under a node returns that very node, and a subtree that nothing changed
stays shared between a pass's input and its output.  The helpers here
provide bottom-up expression mapping, variable substitution with explicit
renaming, free-variable analysis, the nesting bound and a fresh-name
supply; each names only what its own rule needs (a WITH-loop generator's
scope, a renamed target, a level count) and reaches everything else
through :func:`repro.sac.ast.children` and :func:`repro.sac.ast.map_children`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

from repro.sac import ast

__all__ = [
    "map_expr",
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


def map_expr(node: ast.Node, fn: Callable[[ast.Expr], ast.Expr]) -> ast.Node:
    """Rewrite bottom-up: children first, then ``fn`` on each expression.

    ``node`` may also be a statement or a function, whose statements
    (WITH-loop generator bodies included) are rebuilt around their
    rewritten expressions.
    """
    node = ast.map_children(node, lambda c: map_expr(c, fn))
    return fn(node) if isinstance(node, ast.Expr) else node


def substitute_vars(node: ast.Node, mapping: dict[str, ast.Expr]) -> ast.Node:
    """Replace free ``Var`` occurrences per ``mapping`` in an expression or
    statement.

    Names bound inside nested WITH-loop generators shadow the mapping; the
    caller is expected to have renamed locals apart first (see
    :func:`rename_locals`), so only generator index variables and
    generator-body assignments need scope handling here.
    """
    if isinstance(node, ast.Var):
        return mapping.get(node.name, node)
    if isinstance(node, ast.WithLoop):
        gens = tuple(_substitute_generator(g, mapping) for g in node.generators)
        return ast.rebuild(
            node, generators=gens, operation=substitute_vars(node.operation, mapping)
        )
    return ast.map_children(node, lambda c: substitute_vars(c, mapping))


def _substitute_generator(g: ast.Generator, mapping: dict[str, ast.Expr]) -> ast.Generator:
    """The bounds, step and width see ``mapping``; the body and the cell see
    it without the names the generator binds."""
    bound = set(g.vars) | assigned_names_stmts(g.body)
    inner = {k: v for k, v in mapping.items() if k not in bound}
    return ast.rebuild(
        g,
        lower=substitute_vars(g.lower, mapping),
        upper=substitute_vars(g.upper, mapping),
        step=None if g.step is None else substitute_vars(g.step, mapping),
        width=None if g.width is None else substitute_vars(g.width, mapping),
        body=tuple(substitute_vars(s, inner) for s in g.body),
        expr=substitute_vars(g.expr, inner),
    )


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

    def rename(node: ast.Node) -> ast.Node:
        if isinstance(node, ast.Expr):
            return substitute_vars(node, expr_map)
        node = ast.map_children(node, rename)
        if isinstance(node, (ast.Assign, ast.IndexedAssign)) and node.name in mapping:
            return replace(node, name=mapping[node.name])
        return node

    new_stmts = tuple(rename(s) for s in stmts)
    new_expr = substitute_vars(result_expr, expr_map)
    return new_stmts, new_expr, mapping


def free_vars_expr(node: ast.Node) -> set[str]:
    """Free variable names of an expression or statement (a generator's
    index variables and body assignments are bound in its body and cell)."""
    out: set[str] = set()

    def go(node: ast.Node, bound: frozenset[str]) -> None:
        if isinstance(node, ast.Var):
            if node.name not in bound:
                out.add(node.name)
        elif isinstance(node, ast.WithLoop):
            for g in node.generators:
                for part in (g.lower, g.upper, g.step, g.width):
                    if part is not None:
                        go(part, bound)
                inner = bound | set(g.vars) | assigned_names_stmts(g.body)
                for part in (*g.body, g.expr):
                    go(part, inner)
            go(node.operation, bound)
        else:
            for c in ast.children(node):
                go(c, bound)

    go(node, frozenset())
    return out


def used_names_stmts(stmts) -> set[str]:
    """All variable names *read* anywhere in the statements."""
    out: set[str] = set()
    for s in stmts:
        if isinstance(s, ast.IndexedAssign):
            out.add(s.name)  # reads the old array value
        out |= free_vars_expr(s)
    return out


def assigned_names_stmts(stmts) -> set[str]:
    """All names assigned anywhere in the statements (any nesting of
    statements; assignments inside WITH-loop generator bodies are local to
    their generator and not counted)."""
    out: set[str] = set()
    for s in stmts:
        if isinstance(s, (ast.Assign, ast.IndexedAssign)):
            out.add(s.name)
        else:
            out |= assigned_names_stmts(c for c in ast.children(s) if isinstance(c, ast.Stmt))
    return out


#: statements at the level of their expressions: only a block, a loop or a
#: conditional adds a level around what it holds
_SIMPLE = (ast.Assign, ast.IndexedAssign, ast.Return)


def nests_within(node: ast.Node, levels: int) -> bool:
    """Whether a statement or expression nests at most ``levels`` levels deep.

    Levels count as :data:`repro.sac.parser.MAX_DEPTH` counts them, with
    the parentheses the tree no longer holds left out: a literal or a
    variable is one level, and every operation, subscript, call, array
    literal, WITH-loop and nested block adds one around its operands.  The
    walk stops at ``levels + 1``, so it stays shallow on any tree.
    """
    if isinstance(node, _SIMPLE):
        return all(nests_within(c, levels) for c in ast.children(node))
    least = 2 if isinstance(node, ast.Stmt) else 1
    return levels >= least and all(nests_within(c, levels - 1) for c in ast.children(node))
