"""Normalisation: canonicalise selection chains.

``a[i][j]`` (the paper's ``input[rep][0]`` style) is rewritten to a single
selection ``a[i ++ [j]]`` so that later passes (partial evaluation, WLF)
see one index vector per array access.  Scalar index components are wrapped
into singleton vectors before concatenation; concatenations of literal
vectors are flattened immediately.
"""

from __future__ import annotations

from dataclasses import replace

from repro.sac import ast
from repro.sac.opt.rewrite import map_expr, map_stmt_exprs

__all__ = ["normalize_function", "combine_indices"]


def _as_vector(e: ast.Expr) -> ast.Expr:
    """Wrap an index expression into vector form when it is a scalar literal
    or arithmetic scalar; leave vectors (ArrayLit, Var) untouched."""
    if isinstance(e, ast.ArrayLit):
        return e
    if isinstance(e, (ast.IntLit, ast.BinExpr, ast.UnExpr, ast.IndexExpr)) and _looks_scalar(e):
        return ast.ArrayLit(elements=(e,), loc=e.loc)
    return e


def _looks_scalar(e: ast.Expr) -> bool:
    """Syntactic scalarness: literals and arithmetic over scalars/selections.

    Conservative — variables are assumed to be vectors (SaC index variables
    are), so only unambiguous scalar forms are wrapped.
    """
    if isinstance(e, ast.IntLit):
        return True
    if isinstance(e, ast.BinExpr) and e.op in ("+", "-", "*", "/", "%"):
        return _looks_scalar(e.lhs) and _looks_scalar(e.rhs)
    if isinstance(e, ast.UnExpr) and e.op == "-":
        return _looks_scalar(e.operand)
    if isinstance(e, ast.IndexExpr):
        # a[...] selecting from a vector literal index is scalar when the
        # indexed array is an index variable component like iv[0]
        return isinstance(e.index, (ast.IntLit, ast.ArrayLit))
    return False


def combine_indices(outer: ast.Expr, inner: ast.Expr) -> ast.Expr:
    """Build the combined index vector for ``a[outer][inner]``."""
    o = _as_vector(outer)
    i = _as_vector(inner)
    if isinstance(o, ast.ArrayLit) and isinstance(i, ast.ArrayLit):
        return ast.ArrayLit(elements=o.elements + i.elements, loc=o.loc)
    return ast.BinExpr(op="++", lhs=o, rhs=i, loc=getattr(o, "loc", None) or i.loc)


def _collapse(e: ast.Expr) -> ast.Expr:
    if isinstance(e, ast.IndexExpr) and isinstance(e.array, ast.IndexExpr):
        inner_sel = e.array
        return ast.IndexExpr(
            array=inner_sel.array,
            index=combine_indices(inner_sel.index, e.index),
            loc=e.loc,
        )
    return e


def normalize_function(fun: ast.FunDef) -> ast.FunDef:
    body = tuple(
        map_stmt_exprs(s, lambda e: map_expr(e, _collapse)) for s in fun.body
    )
    return replace(fun, body=body)
