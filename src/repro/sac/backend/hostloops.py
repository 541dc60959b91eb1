"""Host loop-nest vectorisation.

Constructs the paper's compiler keeps on the host — most importantly the
*generic output tiler*, a for-loop nest (Figure 6) that WLF cannot fold —
still have to execute functionally in the simulator.  A tree-walking
interpretation of a million-iteration nest is prohibitively slow, so the
backend lowers **static counted loop nests** to the same kernel IR used for
device code and executes them with the vectorised evaluator, while the
cost model keeps charging *sequential* host time for them.

A nest qualifies when every level is a canonical counted loop
(``for (v = a; v < b; v += c)`` with literal bounds) over a body of scalar
assignments and indexed assignments with scalarised index vectors.  The
evaluator's row-major store order matches the sequential nest's iteration
order, so overlapping writes resolve identically.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.kernel import ArrayParam, IndexSpace, Kernel
from repro.ir import stmt as irs
from repro.sac import ast
from repro.sac.backend.lowerexpr import LoweringContext, LoweringError, lower_expr

__all__ = ["HostLoopNest", "loop_bounds", "lower_host_fornest"]


@dataclass(frozen=True)
class HostLoopNest:
    """A vectorisable host loop nest.

    ``ops_per_item`` is the *unoptimised* per-iteration scalar-operation
    estimate (including the vector index temporaries partial evaluation
    inlined away) — the cost a naive host compilation of the nest pays.
    """

    kernel: Kernel
    reads: tuple[str, ...]
    writes: tuple[str, ...]
    ops_per_item: int = 1


def loop_bounds(s: ast.ForLoop) -> tuple[str, int, int, int] | None:
    """(var, start, stop_exclusive, step) of a canonical counted loop."""
    if not isinstance(s.init.value, ast.IntLit):
        return None
    var = s.init.name
    start = s.init.value.value
    cond = s.cond
    if not (
        isinstance(cond, ast.BinExpr)
        and cond.op in ("<", "<=")
        and isinstance(cond.lhs, ast.Var)
        and cond.lhs.name == var
        and isinstance(cond.rhs, ast.IntLit)
    ):
        return None
    stop = cond.rhs.value + (1 if cond.op == "<=" else 0)
    upd = s.update
    if not (
        isinstance(upd, ast.Assign)
        and upd.name == var
        and isinstance(upd.value, ast.BinExpr)
        and upd.value.op == "+"
        and isinstance(upd.value.lhs, ast.Var)
        and upd.value.lhs.name == var
        and isinstance(upd.value.rhs, ast.IntLit)
        and upd.value.rhs.value > 0
    ):
        return None
    return var, start, stop, upd.value.rhs.value


def lower_host_fornest(
    stmt: ast.ForLoop,
    shapes: dict[str, tuple[int, ...]],
    dtypes: dict[str, str] | None = None,
) -> HostLoopNest | None:
    """Lower a static counted for-nest to a host kernel, or ``None``."""
    dtypes = dtypes or {}
    loops: list[tuple[str, int, int, int]] = []
    cur: ast.Stmt = stmt
    body: tuple[ast.Stmt, ...] | None = None
    while isinstance(cur, ast.ForLoop):
        b = loop_bounds(cur)
        if b is None:
            return None
        loops.append(b)
        inner = [s for s in cur.body if not isinstance(s, ast.Block)] + [
            s2 for s in cur.body if isinstance(s, ast.Block) for s2 in s.stmts
        ]
        if len(inner) == 1 and isinstance(inner[0], ast.ForLoop):
            cur = inner[0]
            continue
        body = tuple(inner)
        break
    if body is None or not loops:
        return None

    # cost estimate from the body as written (vector temporaries included)
    from repro.sac.backend.estimates import estimate_ops

    ops_per_item = max(1, estimate_ops(body))

    # drop vector temporaries whose components were inlined by partial
    # evaluation (``off``/``iv`` in the paper's Figure 6) — only the
    # indexed assignments' effects must survive
    from repro.sac.opt.dce import dce_stmts

    live = {s.name for s in body if isinstance(s, ast.IndexedAssign)}
    body = dce_stmts(body, live)

    space = IndexSpace(
        lower=tuple(b[1] for b in loops),
        upper=tuple(b[2] for b in loops),
        step=tuple(b[3] for b in loops),
    )
    ctx = LoweringContext(
        index_vars=tuple(b[0] for b in loops),
        arrays=frozenset(shapes),
    )

    lowered: list[irs.Stmt] = []
    writes: set[str] = set()
    try:
        for s in body:
            if isinstance(s, ast.Assign):
                lowered.append(irs.Assign(s.name, lower_expr(s.value, ctx)))
                ctx.locals.add(s.name)
            elif isinstance(s, ast.IndexedAssign):
                if s.name not in shapes:
                    return None
                idx = s.index
                if isinstance(idx, ast.ArrayLit):
                    comps = tuple(lower_expr(x, ctx) for x in idx.elements)
                elif isinstance(idx, ast.Var) and idx.name in ctx.locals:
                    # an index vector local that stayed symbolic: give up
                    return None
                else:
                    comps = (lower_expr(idx, ctx),)
                if len(comps) != len(shapes[s.name]):
                    return None
                value = lower_expr(s.value, ctx)
                lowered.append(irs.Store(s.name, comps, value))
                writes.add(s.name)
            else:
                return None
    except LoweringError:
        return None
    if not writes:
        return None

    reads = irs.body_facts(lowered).arrays("read")

    arrays = []
    for name in sorted(reads | writes):
        intent = "inout" if name in writes else "in"
        arrays.append(
            ArrayParam(name, shapes[name], dtypes.get(name, "int32"), intent=intent)
        )
    kernel = Kernel(
        name=f"hostnest_{loops[0][0]}_{id(stmt) & 0xFFFF:x}",
        space=space,
        arrays=tuple(arrays),
        body=tuple(lowered),
        provenance="host loop nest",
    )
    return HostLoopNest(
        kernel=kernel,
        reads=tuple(sorted(reads)),
        writes=tuple(sorted(writes)),
        ops_per_item=ops_per_item,
    )
