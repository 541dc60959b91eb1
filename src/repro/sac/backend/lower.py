"""Lowering of CUDA-eligible WITH-loops to launchable generator kernels.

One WITH-loop lowers to one :class:`LoweredLoop` holding one
:class:`LoweredGenerator` per source generator (after width expansion) —
the unit the CUDA backend outlines as a kernel, following the paper's
"one kernel function per generator" rule (Section VII).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.ir import expr as ir
from repro.ir import stmt as irs
from repro.ir.kernel import IndexSpace
from repro.ir.stmt import BodyFacts, body_facts
from repro.sac import ast
from repro.sac.backend.lowerexpr import LoweringContext, LoweringError, lower_expr, lower_stmts
from repro.sac.opt.withinfo import (
    static_frame_shape,
    static_generator_range,
)

__all__ = ["LoweredGenerator", "LoweredLoop", "lower_withloop"]


@dataclass(frozen=True)
class LoweredGenerator:
    """One generator's kernel-ready form."""

    space: IndexSpace
    body: tuple[irs.Stmt, ...]  # includes the Store statements
    provenance: str = ""

    @cached_property
    def facts(self) -> BodyFacts:
        """:func:`~repro.ir.stmt.body_facts` of the body, walked on first
        read and kept in the instance ``__dict__``, as ``Kernel.facts`` is:
        ``==`` and ``hash`` never see it."""
        return body_facts(self.body)

    def reads(self) -> set[str]:
        return self.facts.arrays("read")

    def writes(self) -> set[str]:
        return self.facts.arrays("store")


@dataclass(frozen=True)
class LoweredLoop:
    """A whole WITH-loop, lowered."""

    result: str
    result_shape: tuple[int, ...]
    kind: str  # "genarray" | "modarray"
    generators: tuple[LoweredGenerator, ...]
    base: str | None = None  # modarray source variable
    default: int | float | None = None  # genarray default (None -> 0)
    full_coverage: bool = False
    result_dtype: str = "int32"

    def reads(self) -> set[str]:
        out: set[str] = set()
        for g in self.generators:
            out |= g.reads()
        return out


def _literal_array_shape(e: ast.Expr) -> tuple[int, ...] | None:
    """Shape of a (nested) array literal."""
    if isinstance(e, ast.ArrayLit):
        if not e.elements:
            return (0,)
        inner = _literal_array_shape(e.elements[0])
        return None if inner is None else (len(e.elements),) + inner
    if isinstance(e, (ast.IntLit, ast.FloatLit, ast.BoolLit)):
        return ()
    return None


def _const_scalar(e: ast.Expr | None):
    if e is None:
        return None
    if isinstance(e, ast.IntLit):
        return e.value
    if isinstance(e, ast.FloatLit):
        return e.value
    if isinstance(e, ast.UnExpr) and e.op == "-" and isinstance(e.operand, ast.IntLit):
        return -e.operand.value
    return None


#: numeric promotion order for result buffers
_PROMOTION = ("int32", "float32", "float64")


def promote_dtypes(dtypes) -> str:
    """Widest dtype of the given set (int32 < float32 < float64)."""
    best = 0
    for d in dtypes:
        if d not in _PROMOTION:
            raise LoweringError(f"unsupported buffer dtype {d!r}")
        best = max(best, _PROMOTION.index(d))
    return _PROMOTION[best]


def lower_withloop(
    wl: ast.WithLoop,
    result: str,
    shapes: dict[str, tuple[int, ...]],
    dtypes: dict[str, str] | None = None,
) -> LoweredLoop:
    """Lower a WITH-loop or raise :class:`LoweringError` (stay on host).

    ``dtypes`` maps known array names to buffer dtypes (default int32);
    the result buffer takes the widest dtype among the arrays the body
    reads, the modarray base, and the genarray default literal.
    """
    dtypes = dtypes or {}
    op = wl.operation
    if isinstance(op, ast.GenArray):
        frame_shape = static_frame_shape(wl)
        if frame_shape is None:
            raise LoweringError(f"{result}: genarray shape is not static")
        kind = "genarray"
        base = None
        default = _const_scalar(op.default) if op.default is not None else 0
        if default is None:
            raise LoweringError(f"{result}: genarray default is not a constant")
    elif isinstance(op, ast.ModArray):
        if isinstance(op.array, ast.Var):
            base = op.array.name
            frame_shape = shapes.get(base)
        else:
            # e.g. a constant-folded literal canvas: usable only when the
            # generators cover every cell (checked below)
            base = None
            frame_shape = _literal_array_shape(op.array)
        if frame_shape is None:
            raise LoweringError(f"{result}: modarray base has unknown shape")
        kind = "modarray"
        default = None
    else:
        raise LoweringError(f"{result}: fold WITH-loops execute on the host")

    cell_shape: tuple[int, ...] | None = None
    lowered: list[LoweredGenerator] = []
    covered_points = 0
    for gi, gen in enumerate(wl.generators):
        rng = static_generator_range(gen, frame_shape)
        if rng is None:
            raise LoweringError(f"{result}: generator {gi} has dynamic bounds")
        if rng.rank != len(frame_shape):
            raise LoweringError(
                f"{result}: generator {gi} rank {rng.rank} != frame rank "
                f"{len(frame_shape)}"
            )
        covered_points += rng.points()

        ctx = LoweringContext(
            index_vars=gen.vars if gen.destructured else (),
            vector_var=None if gen.destructured else gen.var,
            arrays=frozenset(shapes),
        )
        body = list(lower_stmts(gen.body, ctx))

        # the cell: scalar expression or a structural vector (ArrayLit)
        idx = tuple(ir.ThreadIdx(d) for d in range(len(frame_shape)))
        if isinstance(gen.expr, ast.ArrayLit):
            this_cell = (len(gen.expr.elements),)
            for k, elem in enumerate(gen.expr.elements):
                value = lower_expr(elem, ctx)
                body.append(irs.Store(result, idx + (ir.Const(k),), value))
        else:
            this_cell = ()
            value = lower_expr(gen.expr, ctx)
            body.append(irs.Store(result, idx, value))
        if cell_shape is None:
            cell_shape = this_cell
        elif cell_shape != this_cell:
            raise LoweringError(
                f"{result}: generators produce different cell shapes "
                f"{cell_shape} vs {this_cell}"
            )

        # width > 1: expand into one kernel space per width offset
        for offsets in _width_offsets(rng.width):
            lower = tuple(lo + o for lo, o in zip(rng.lower, offsets))
            space = IndexSpace(lower=lower, upper=rng.upper, step=rng.step)
            if space.is_empty():
                continue
            provenance = f"{result} generator {gi}" + (
                f" width-offset {offsets}" if any(offsets) else ""
            )
            lowered.append(
                LoweredGenerator(space=space, body=tuple(body), provenance=provenance)
            )

    assert cell_shape is not None
    result_shape = tuple(frame_shape) + tuple(cell_shape)
    if kind == "modarray" and cell_shape != ():
        raise LoweringError(f"{result}: modarray with non-scalar cells")

    full = covered_points == int(np.prod(frame_shape))
    if kind == "modarray" and base is None and not full:
        raise LoweringError(
            f"{result}: partial modarray over a non-variable base"
        )
    contributing = {dtypes.get(name, "int32") for g in lowered for name in g.reads()}
    if base is not None:
        contributing.add(dtypes.get(base, "int32"))
    if isinstance(default, float):
        contributing.add("float64")
    result_dtype = promote_dtypes(contributing or {"int32"})
    return LoweredLoop(
        result=result,
        result_shape=result_shape,
        kind=kind,
        generators=tuple(lowered),
        base=base,
        default=default,
        full_coverage=full,
        result_dtype=result_dtype,
    )


def _width_offsets(width: tuple[int, ...]):
    """All offset combinations inside a width block."""
    from itertools import product

    return product(*(range(w) for w in width))
