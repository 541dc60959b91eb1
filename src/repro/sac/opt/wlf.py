"""WITH-Loop Folding (WLF).

The paper's crucial optimisation (Section VII, citing Scholz's original WLF
paper [12]): consecutive WITH-loops in a producer/consumer relationship are
fused so the intermediate array is never materialised — no allocation, no
copy, and on the GPU no extra kernel or device-memory round trip.

Mechanics: for a producer

    X = with { (0 <= iv < shape) { body } : cell; } : genarray(shape);

a *selection* ``X[[i0, …]]`` is replaced by the producer's cell with
``iv`` bound to the selection's first ``rank(X)`` index components, its
*take*: the alpha-renamed body statements are spliced in front of the
consuming statement, the cell is bound to a local unless it is one
already, and the occurrence becomes that local (indexed by the remaining
components, if any).  A later selection of ``X`` at a structurally equal
take reuses the splice instead of copying the body again:

* an array-valued cell (components remain past the frame, as in the
  filters' ``input[rep][k]`` reading one tile) is shared across the
  enclosing generator body, so each body splices a tile once;
* a scalar cell is shared within one statement only, so ``b[iv] +
  b[iv]`` reads one value and a chain of such WITH-loops folds in linear
  size.  Statements keep their own reads: sharing them would merge loads
  the program makes separately (the generic downscaler's overlapping
  taps) and change the emitted kernels;
* a shared cell is forgotten when its producer, its local or a name its
  take reads is rebound, and when the statement that spliced it is kept
  unfolded (below).  A nested generator starts with nothing shared, so an
  index variable it shadows is never confused with the outer one.

Folding applies when

* the producer is a single, dense generator covering its whole (static)
  frame — multi-generator producers would need generator intersection and
  stay unfolded, which is exactly why the horizontal filter's folded loop
  cannot swallow a *modarray* output tiler of an upstream filter;
* the selection's index is fully scalarised, with at least the frame
  rank's components (run :mod:`constant_fold` first);
* no name the producer reads has been rebound since, and the consumer's
  generator binds none of them;
* the paper's limitation is reproduced faithfully: constructs other than
  WITH-loops (the generic output tiler's for-loop nest) are never fused —
  selections inside for-loops are not rewritten.

A selection of a cell that is itself computed by a nested WITH-loop stays
``tmp[rest]`` over the bound local, which the next fold-WLF-DCE pipeline
round reduces.  Run the pipeline to fixpoint.

Folding composes the producer's cell into its consumer, so chained folds
add up nesting depth.  A statement whose folded form would nest deeper
than the parser admits (:data:`~repro.sac.parser.MAX_DEPTH`) is kept
unfolded, and the producers it reads stay in place: every tree the later
passes walk is one the parser could have built.
"""

from __future__ import annotations

from repro.sac import ast
from repro.sac.opt.rewrite import (
    FreshNames,
    assigned_names_stmts,
    free_vars_expr,
    nests_within,
    rename_locals,
    substitute_vars,
    used_names_stmts,
)
from repro.sac.opt.withinfo import is_full_coverage_single_generator, static_frame_shape
from repro.sac.parser import MAX_DEPTH

__all__ = ["wlf_function", "count_withloops"]


def wlf_function(fun: ast.FunDef) -> ast.FunDef:
    fresh = FreshNames(
        assigned_names_stmts(fun.body)
        | used_names_stmts(fun.body)
        | {p.name for p in fun.params}
    )
    return ast.rebuild(fun, body=_fold_stmt_list(fun.body, fresh))


def count_withloops(fun: ast.FunDef) -> int:
    """Number of WITH-loop expressions anywhere in a function (diagnostics)."""
    return sum(isinstance(node, ast.WithLoop) for node in ast.walk(fun))


# ---------------------------------------------------------------------------
# producer bookkeeping
# ---------------------------------------------------------------------------


class _Producer:
    def __init__(self, name: str, wl: ast.WithLoop):
        self.name = name
        self.wl = wl
        self.gen = wl.generators[0]
        # frame shape from the genarray shape (static by construction)
        shape = static_frame_shape(wl)
        assert shape is not None
        self.frame_shape = shape
        #: the names the cell reads: once one is rebound, the cell means
        #: something else where it would be spliced
        self.reads = free_vars_expr(wl)

    @property
    def rank(self) -> int:
        return len(self.frame_shape)


def _define(producers: dict[str, _Producer], name: str, value: ast.Expr) -> None:
    """Record ``name = value`` as a producer, unless it reads ``name``
    (the old value, which the assignment just replaced)."""
    if _is_foldable_producer(value):
        prod = _Producer(name, value)
        if name not in prod.reads:
            producers[name] = prod


def _drop(producers: dict[str, _Producer], names) -> None:
    """Forget the producers that ``names`` rebinds or that read one of them."""
    for k in [k for k, p in producers.items() if k in names or not p.reads.isdisjoint(names)]:
        del producers[k]


class _Scope:
    """The splices a selection may reuse instead of splicing again.

    Both tables map ``(producer, take)`` to the local bound to that cell
    and the names whose rebinding ends its meaning.  ``cells`` holds
    array-valued cells and is shared by every statement of the enclosing
    generator body (or statement list); ``scalars`` holds the scalar cells
    of one statement.
    """

    def __init__(self, cells: dict):
        self.cells = cells
        self.scalars: dict = {}


def _forget(cells: dict, names) -> None:
    """Drop the shared cells that read any of ``names``."""
    for key in [k for k, (_, reads) in cells.items() if not reads.isdisjoint(names)]:
        del cells[key]


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
    cells: dict = {}
    out: list[ast.Stmt] = []

    def invalidate(names) -> None:
        _drop(producers, names)
        _forget(cells, names)

    def emit(s: ast.Stmt, pre: list[ast.Stmt], folded: ast.Stmt) -> ast.Stmt:
        """Append the folded statement, or ``s`` when it nests too deep."""
        if all(nests_within(x, levels) for x in (*pre, folded)):
            out.extend(pre)
            out.append(folded)
            return folded
        # the splices are discarded, so no shared cell may point at them
        _forget(cells, assigned_names_stmts(pre))
        out.append(s)
        return s

    for s in stmts:
        scope = _Scope(cells)
        if isinstance(s, ast.Assign):
            pre: list[ast.Stmt] = []
            value = _fold_expr(s.value, producers, pre, fresh, scope)
            value = emit(s, pre, ast.rebuild(s, value=value)).value
            invalidate({s.name})
            _define(producers, s.name, value)
        elif isinstance(s, ast.IndexedAssign):
            # the base array is mutated: it can no longer be folded from
            pre = []
            index = _fold_expr(s.index, producers, pre, fresh, scope)
            value = _fold_expr(s.value, producers, pre, fresh, scope)
            emit(s, pre, ast.rebuild(s, index=index, value=value))
            invalidate({s.name})
        elif isinstance(s, ast.Return):
            pre = []
            value = (
                None
                if s.value is None
                else _fold_expr(s.value, producers, pre, fresh, scope)
            )
            emit(s, pre, ast.rebuild(s, value=value))
        elif isinstance(s, ast.Block):
            invalidate(assigned_names_stmts(s.stmts))
            out.append(ast.rebuild(s, stmts=_fold_stmt_list(s.stmts, fresh, levels - 1)))
        elif isinstance(s, ast.ForLoop):
            # the paper: WLF "does not attempt to fuse program constructs
            # other than WITH-loops" — for-loop internals are left alone,
            # and anything they mutate stops being a producer
            invalidate(assigned_names_stmts((s.init, s.update)) | assigned_names_stmts(s.body))
            out.append(ast.rebuild(s, body=_fold_stmt_list(s.body, fresh, levels - 1)))
        elif isinstance(s, ast.IfElse):
            invalidate(assigned_names_stmts(s.then) | assigned_names_stmts(s.orelse))
            out.append(
                ast.rebuild(
                    s,
                    then=_fold_stmt_list(s.then, fresh, levels - 1),
                    orelse=_fold_stmt_list(s.orelse, fresh, levels - 1),
                )
            )
        else:
            out.append(s)
    return tuple(out)


def _fold_expr(e: ast.Expr, producers, pre: list[ast.Stmt], fresh, scope: _Scope) -> ast.Expr:
    """Rewrite selections from producers inside ``e``.

    ``pre`` collects the spliced producer statements for the current
    statement context, and ``scope`` the splices its selections may reuse.
    WITH-loops switch both to their own generator bodies.
    """

    def fold(c: ast.Expr) -> ast.Expr:
        return _fold_expr(c, producers, pre, fresh, scope)

    if isinstance(e, ast.WithLoop):
        gens = []
        for g in e.generators:
            # names bound by the generator shadow outer producers, and
            # the producers that read them
            shadowed = dict(producers)
            _drop(shadowed, set(g.vars) | assigned_names_stmts(g.body))
            cells: dict = {}
            body, body_producers = _fold_stmt_list_with(g.body, shadowed, fresh, cells)
            gpre: list[ast.Stmt] = []
            # the cell expression sees producers defined in the body too
            expr = _fold_expr(g.expr, body_producers, gpre, fresh, _Scope(cells))
            gens.append(ast.rebuild(g, body=body + tuple(gpre), expr=expr))
        return ast.rebuild(e, generators=tuple(gens), operation=ast.map_children(e.operation, fold))

    e = ast.map_children(e, fold)
    if isinstance(e, ast.IndexExpr) and isinstance(e.array, ast.Var) and e.array.name in producers:
        idx = _scalarised_index(e.index)
        prod = producers[e.array.name]
        if idx is not None and len(idx) >= prod.rank:
            return _inline_cell(prod, idx, pre, fresh, scope)
    return e


def _fold_stmt_list_with(stmts, producers, fresh, cells: dict):
    """Fold a generator body: outer producers are visible, and the body's
    own assignments may introduce new (nested) producers.

    ``cells`` collects the body's shared array-valued cells.  Returns
    ``(statements, producers)`` where the producer map includes the body's
    own definitions (the cell expression folds against it).
    """
    inner = dict(producers)
    out: list[ast.Stmt] = []
    for s in stmts:
        scope = _Scope(cells)
        if isinstance(s, ast.Assign):
            pre: list[ast.Stmt] = []
            s = ast.rebuild(s, value=_fold_expr(s.value, inner, pre, fresh, scope))
            out.extend(pre)
            out.append(s)
        elif isinstance(s, ast.IndexedAssign):
            pre = []
            index = _fold_expr(s.index, inner, pre, fresh, scope)
            value = _fold_expr(s.value, inner, pre, fresh, scope)
            out.extend(pre)
            out.append(ast.rebuild(s, index=index, value=value))
        else:
            # loops/conditionals inside generator bodies: same rules as the
            # top level
            out.extend(_fold_stmt_list((s,), fresh))
        assigned = assigned_names_stmts((s,))
        _drop(inner, assigned)
        _forget(cells, assigned)
        if isinstance(s, ast.Assign):
            _define(inner, s.name, s.value)
    return tuple(out), inner


def _inline_cell(
    prod: _Producer, idx: tuple[ast.Expr, ...], pre: list[ast.Stmt], fresh, scope: _Scope
) -> ast.Expr:
    """The producer's cell at a selection index, spliced once per scope."""
    g = prod.gen
    take = idx[: prod.rank]
    rest = idx[prod.rank:]
    shared = scope.cells if rest else scope.scalars
    key = (prod.name, take)
    if key in shared:
        target = shared[key][0]
    else:
        body, cell, _ = rename_locals(g.body, g.expr, fresh)
        if g.destructured:
            mapping = {v: t for v, t in zip(g.vars, take)}
        else:
            mapping = {g.var: ast.ArrayLit(elements=tuple(take), loc=g.loc)}
        pre.extend(substitute_vars(s, mapping) for s in body)
        target = substitute_vars(cell, mapping)
        if not isinstance(target, ast.Var):
            tmp = fresh.fresh(f"wlf_{prod.name}")
            pre.append(ast.Assign(name=tmp, value=target, loc=g.loc))
            target = ast.Var(name=tmp, loc=g.loc)
        names = {prod.name, target.name}.union(*map(free_vars_expr, take))
        shared[key] = (target, names)
    if not rest:
        return target
    return ast.IndexExpr(
        array=target, index=ast.ArrayLit(elements=tuple(rest), loc=g.loc), loc=g.loc
    )
