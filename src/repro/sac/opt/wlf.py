"""WITH-Loop Folding (WLF).

The paper's crucial optimisation (Section VII, citing Scholz's original WLF
paper [12]): consecutive WITH-loops in a producer/consumer relationship are
fused so the intermediate array is never materialised — no allocation, no
copy, and on the GPU no extra kernel or device-memory round trip.

Mechanics: for a producer

    X = with { (0 <= iv < shape) { body } : cell; } : genarray(shape);

every later *selection* ``X[[i0, …]]`` is replaced by the producer's cell
computation with ``iv`` bound to the selection index: the (alpha-renamed)
body statements are spliced in front of the consuming statement and the
occurrence becomes the substituted cell expression.  Folding applies when

* the producer is a single, dense generator covering its whole (static)
  frame — multi-generator producers would need generator intersection and
  stay unfolded, which is exactly why the horizontal filter's folded loop
  cannot swallow a *modarray* output tiler of an upstream filter;
* every use of ``X`` is such a selection with a fully scalarised index
  vector of at least the frame rank (run :mod:`constant_fold` first);
* the paper's limitation is reproduced faithfully: constructs other than
  WITH-loops (the generic output tiler's for-loop nest) are never fused —
  selections inside for-loops are not rewritten.

Partial selections deeper than the frame rank select into the cell value;
when the cell is itself computed by a nested WITH-loop the selection is
left as ``tmp[rest]`` over a fresh binding, which the next
fold-WLF-DCE pipeline round reduces.  Run the pipeline to fixpoint.

Folding composes the producer's cell into its consumer, so chained folds
add up nesting depth.  A statement whose folded form would nest deeper
than the parser admits (:data:`~repro.sac.parser.MAX_DEPTH`) is kept
unfolded, and the producers it reads stay in place: every tree the later
passes walk is one the parser could have built.
"""

from __future__ import annotations

from dataclasses import replace

from repro.sac import ast
from repro.sac.opt.rewrite import (
    FreshNames,
    assigned_names_stmts,
    nests_within,
    rename_locals,
    substitute_vars,
    used_names_stmts,
)
from repro.sac.opt.withinfo import is_full_coverage_single_generator
from repro.sac.parser import MAX_DEPTH

__all__ = ["wlf_function", "wlf_program", "count_withloops"]


def wlf_program(program: ast.Program) -> ast.Program:
    return replace(
        program, functions=tuple(wlf_function(f) for f in program.functions)
    )


def wlf_function(fun: ast.FunDef) -> ast.FunDef:
    fresh = FreshNames(
        assigned_names_stmts(fun.body)
        | used_names_stmts(fun.body)
        | {p.name for p in fun.params}
    )
    body = _fold_stmt_list(fun.body, fresh)
    return replace(fun, body=body)


def count_withloops(fun: ast.FunDef) -> int:
    """Number of WITH-loop expressions anywhere in a function (diagnostics)."""
    count = 0

    def visit_expr(e: ast.Expr) -> None:
        nonlocal count
        if isinstance(e, ast.WithLoop):
            count += 1
            for g in e.generators:
                visit_stmts(g.body)
                visit_expr(g.expr)
            op = e.operation
            if isinstance(op, ast.GenArray):
                visit_expr(op.shape)
                if op.default is not None:
                    visit_expr(op.default)
            elif isinstance(op, ast.ModArray):
                visit_expr(op.array)
            elif isinstance(op, ast.Fold):
                visit_expr(op.neutral)
            return
        for child in _children(e):
            visit_expr(child)

    def visit_stmts(stmts) -> None:
        for s in stmts:
            if isinstance(s, ast.Assign):
                visit_expr(s.value)
            elif isinstance(s, ast.IndexedAssign):
                visit_expr(s.index)
                visit_expr(s.value)
            elif isinstance(s, ast.Block):
                visit_stmts(s.stmts)
            elif isinstance(s, ast.ForLoop):
                visit_stmts((s.init, s.update))
                visit_expr(s.cond)
                visit_stmts(s.body)
            elif isinstance(s, ast.IfElse):
                visit_expr(s.cond)
                visit_stmts(s.then)
                visit_stmts(s.orelse)
            elif isinstance(s, ast.Return) and s.value is not None:
                visit_expr(s.value)

    visit_stmts(fun.body)
    return count


def _children(e: ast.Expr):
    if isinstance(e, ast.ArrayLit):
        yield from e.elements
    elif isinstance(e, ast.IndexExpr):
        yield e.array
        yield e.index
    elif isinstance(e, ast.BinExpr):
        yield e.lhs
        yield e.rhs
    elif isinstance(e, ast.UnExpr):
        yield e.operand
    elif isinstance(e, ast.Call):
        yield from e.args


# ---------------------------------------------------------------------------
# producer bookkeeping
# ---------------------------------------------------------------------------


class _Producer:
    def __init__(self, name: str, wl: ast.WithLoop):
        self.name = name
        self.wl = wl
        self.gen = wl.generators[0]
        # frame shape from the genarray shape (static by construction)
        from repro.sac.opt.withinfo import static_frame_shape

        shape = static_frame_shape(wl)
        assert shape is not None
        self.frame_shape = shape

    @property
    def rank(self) -> int:
        return len(self.frame_shape)


def _is_foldable_producer(e: ast.Expr) -> bool:
    return (
        isinstance(e, ast.WithLoop)
        and isinstance(e.operation, ast.GenArray)
        and is_full_coverage_single_generator(e)
    )


def _scalarised_index(e: ast.Expr) -> tuple[ast.Expr, ...] | None:
    """The index as a tuple of scalar component expressions, if available."""
    if isinstance(e, ast.ArrayLit):
        return e.elements
    if isinstance(e, ast.IntLit):
        return (e,)
    return None


# ---------------------------------------------------------------------------
# folding within a statement list
# ---------------------------------------------------------------------------


def _fold_stmt_list(stmts, fresh: FreshNames, levels: int = MAX_DEPTH) -> tuple[ast.Stmt, ...]:
    """Fold the statements of one list, each within ``levels`` of nesting."""
    producers: dict[str, _Producer] = {}
    out: list[ast.Stmt] = []

    def invalidate(name: str) -> None:
        producers.pop(name, None)

    def emit(s: ast.Stmt, pre: list[ast.Stmt], folded: ast.Stmt) -> ast.Stmt:
        """Append the folded statement, or ``s`` when it nests too deep."""
        if all(nests_within(x, levels) for x in (*pre, folded)):
            out.extend(pre)
            out.append(folded)
            return folded
        out.append(s)
        return s

    for s in stmts:
        if isinstance(s, ast.Assign):
            pre: list[ast.Stmt] = []
            value = _fold_expr(s.value, producers, pre, fresh)
            value = emit(s, pre, replace(s, value=value)).value
            invalidate(s.name)
            if _is_foldable_producer(value):
                producers[s.name] = _Producer(s.name, value)
        elif isinstance(s, ast.IndexedAssign):
            # the base array is mutated: it can no longer be folded from
            pre = []
            index = _fold_expr(s.index, producers, pre, fresh)
            value = _fold_expr(s.value, producers, pre, fresh)
            emit(s, pre, replace(s, index=index, value=value))
            invalidate(s.name)
        elif isinstance(s, ast.Return):
            pre = []
            value = (
                None
                if s.value is None
                else _fold_expr(s.value, producers, pre, fresh)
            )
            emit(s, pre, replace(s, value=value))
        elif isinstance(s, ast.Block):
            out.append(replace(s, stmts=_fold_stmt_list(s.stmts, fresh, levels - 1)))
        elif isinstance(s, ast.ForLoop):
            # the paper: WLF "does not attempt to fuse program constructs
            # other than WITH-loops" — for-loop internals are left alone,
            # and anything they mutate stops being a producer
            for name in assigned_names_stmts((s.init, s.update)) | assigned_names_stmts(
                s.body
            ):
                invalidate(name)
            out.append(replace(s, body=_fold_stmt_list(s.body, fresh, levels - 1)))
        elif isinstance(s, ast.IfElse):
            for name in assigned_names_stmts(s.then) | assigned_names_stmts(s.orelse):
                invalidate(name)
            out.append(
                replace(
                    s,
                    then=_fold_stmt_list(s.then, fresh, levels - 1),
                    orelse=_fold_stmt_list(s.orelse, fresh, levels - 1),
                )
            )
        else:
            out.append(s)
    return tuple(out)


def _fold_expr(e: ast.Expr, producers, pre: list[ast.Stmt], fresh) -> ast.Expr:
    """Rewrite selections from producers inside ``e``.

    ``pre`` collects the spliced producer statements for the current
    statement context.  WITH-loops switch the splice target to their own
    generator bodies.
    """
    if isinstance(e, ast.WithLoop):
        gens = []
        for g in e.generators:
            # names bound by the generator shadow outer producers
            shadowed = {
                k: v
                for k, v in producers.items()
                if k not in g.vars and k not in assigned_names_stmts(g.body)
            }
            body, body_producers = _fold_stmt_list_with(g.body, shadowed, fresh)
            gpre: list[ast.Stmt] = []
            # the cell expression sees producers defined in the body too
            expr = _fold_expr(g.expr, body_producers, gpre, fresh)
            gens.append(replace(g, body=tuple(body) + tuple(gpre), expr=expr))
        op = e.operation
        if isinstance(op, ast.GenArray):
            op = replace(
                op,
                shape=_fold_expr(op.shape, producers, pre, fresh),
                default=None
                if op.default is None
                else _fold_expr(op.default, producers, pre, fresh),
            )
        elif isinstance(op, ast.ModArray):
            op = replace(op, array=_fold_expr(op.array, producers, pre, fresh))
        elif isinstance(op, ast.Fold):
            op = replace(op, neutral=_fold_expr(op.neutral, producers, pre, fresh))
        return replace(e, generators=tuple(gens), operation=op)

    if isinstance(e, ast.IndexExpr):
        array = _fold_expr(e.array, producers, pre, fresh)
        index = _fold_expr(e.index, producers, pre, fresh)
        if isinstance(array, ast.Var) and array.name in producers:
            idx = _scalarised_index(index)
            prod = producers[array.name]
            if idx is not None and len(idx) >= prod.rank:
                return _inline_cell(prod, idx, pre, fresh)
        return replace(e, array=array, index=index)

    if isinstance(e, (ast.IntLit, ast.FloatLit, ast.BoolLit, ast.Var, ast.Dot)):
        return e
    if isinstance(e, ast.ArrayLit):
        return replace(
            e, elements=tuple(_fold_expr(x, producers, pre, fresh) for x in e.elements)
        )
    if isinstance(e, ast.BinExpr):
        return replace(
            e,
            lhs=_fold_expr(e.lhs, producers, pre, fresh),
            rhs=_fold_expr(e.rhs, producers, pre, fresh),
        )
    if isinstance(e, ast.UnExpr):
        return replace(e, operand=_fold_expr(e.operand, producers, pre, fresh))
    if isinstance(e, ast.Call):
        return replace(
            e, args=tuple(_fold_expr(a, producers, pre, fresh) for a in e.args)
        )
    return e


def _fold_stmt_list_with(stmts, producers, fresh):
    """Fold a generator body: outer producers are visible, and the body's
    own assignments may introduce new (nested) producers.

    Returns ``(statements, producers)`` where the producer map includes the
    body's own definitions (the cell expression folds against it).
    """
    inner = dict(producers)
    out: list[ast.Stmt] = []
    for s in stmts:
        if isinstance(s, ast.Assign):
            pre: list[ast.Stmt] = []
            value = _fold_expr(s.value, inner, pre, fresh)
            out.extend(pre)
            out.append(replace(s, value=value))
            inner.pop(s.name, None)
            if _is_foldable_producer(value):
                inner[s.name] = _Producer(s.name, value)
        elif isinstance(s, ast.IndexedAssign):
            pre = []
            index = _fold_expr(s.index, inner, pre, fresh)
            value = _fold_expr(s.value, inner, pre, fresh)
            out.extend(pre)
            out.append(replace(s, index=index, value=value))
            inner.pop(s.name, None)
        else:
            # loops/conditionals inside generator bodies: same rules as the
            # top level
            folded = _fold_stmt_list((s,), fresh)
            out.extend(folded)
    return tuple(out), inner


def _inline_cell(
    prod: _Producer, idx: tuple[ast.Expr, ...], pre: list[ast.Stmt], fresh
) -> ast.Expr:
    """Substitute the producer's cell computation at a selection index."""
    g = prod.gen
    take = idx[: prod.rank]
    rest = idx[prod.rank:]

    body, cell, _ = rename_locals(g.body, g.expr, fresh)
    if g.destructured:
        mapping = {v: t for v, t in zip(g.vars, take)}
    else:
        mapping = {g.var: ast.ArrayLit(elements=tuple(take), loc=g.loc)}
    body = tuple(
        _subst_stmt(s, mapping) for s in body
    )
    cell = substitute_vars(cell, mapping)

    pre.extend(body)
    if not rest:
        return cell
    if isinstance(cell, ast.Var):
        target = cell
    else:
        tmp = fresh.fresh(f"wlf_{prod.name}")
        pre.append(ast.Assign(name=tmp, value=cell, loc=g.loc))
        target = ast.Var(name=tmp, loc=g.loc)
    return ast.IndexExpr(
        array=target, index=ast.ArrayLit(elements=tuple(rest), loc=g.loc), loc=g.loc
    )


def _subst_stmt(s: ast.Stmt, mapping: dict[str, ast.Expr]) -> ast.Stmt:
    from repro.sac.opt.rewrite import map_stmt_exprs

    return map_stmt_exprs(s, lambda e: substitute_vars(e, mapping))
