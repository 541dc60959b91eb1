"""Wrap-region splitting of lowered generators.

The tiler's modular addressing (``e = (o + F·i) mod shape``) survives WLF
as ``% extent`` operations inside the fused kernels' read indices.  For the
bulk of the index space the modulo is the identity; only the patterns that
overrun the frame edge actually wrap (paper Section IV's toroidal
semantics).

This pass analyses each lowered generator:

* modulos that never wrap anywhere in the generator's space are removed —
  restoring the affine, coalescing-friendly address form;
* when wrapping is confined to an axis-aligned boundary slab, the
  generator is **split** into a large affine bulk kernel and a small edge
  kernel that keeps the modulo.

Each ``% extent`` dividend is evaluated over the generator's whole space
by the interpreter without memory (:class:`~repro.ir.evalvec.
IndexEvaluator`), under the generator's top-level local bindings.  A
dividend with no value there (it reads memory or a loop variable, or
divides by zero) blocks the split; the generator keeps its modulos.

The split is what produces the paper's kernel counts: the horizontal
filter's 3 folded generators become 3 bulk + 2 edge = 5 kernels, the
vertical's 4 become 4 + 3 = 7 (Table II).
"""

from __future__ import annotations

import numpy as np

from repro.errors import IRError
from repro.ir import expr as ir
from repro.ir import stmt as irs
from repro.ir.evalvec import IndexEvaluator
from repro.ir.kernel import IndexSpace
from repro.sac.backend.lower import LoweredGenerator, LoweredLoop

__all__ = ["split_wrap_regions", "split_loop"]

_MAX_RECURSION = 8


def _collect_mods(body) -> list[ir.BinOp]:
    """All ``E % const`` nodes used inside Read index components."""
    mods: list[ir.BinOp] = []
    seen: set[int] = set()

    def scan(e: ir.Expr) -> None:
        for node in ir.walk(e):
            if isinstance(node, ir.Read):
                for comp in node.index:
                    for sub in ir.walk(comp):
                        if (
                            isinstance(sub, ir.BinOp)
                            and sub.op == "%"
                            and isinstance(sub.rhs, ir.Const)
                            and id(sub) not in seen
                        ):
                            seen.add(id(sub))
                            mods.append(sub)

    for s in irs.walk_stmts(body):
        if isinstance(s, irs.Assign):
            scan(s.value)
        elif isinstance(s, irs.Store):
            for comp in s.index:
                scan(comp)
            scan(s.value)
    return mods


def _replace_exprs(body, mapping: dict[ir.Expr, ir.Expr]):
    """Structural replacement of expressions in a statement list."""

    def rewrite(e: ir.Expr) -> ir.Expr:
        if e in mapping:
            return rewrite(mapping[e])
        if isinstance(e, ir.Read):
            return ir.Read(e.array, tuple(rewrite(x) for x in e.index))
        if isinstance(e, ir.BinOp):
            return ir.BinOp(e.op, rewrite(e.lhs), rewrite(e.rhs))
        if isinstance(e, ir.UnOp):
            return ir.UnOp(e.op, rewrite(e.operand))
        if isinstance(e, ir.Select):
            return ir.Select(rewrite(e.cond), rewrite(e.if_true), rewrite(e.if_false))
        return e

    def rewrite_stmt(s: irs.Stmt) -> irs.Stmt:
        if isinstance(s, irs.Assign):
            return irs.Assign(s.name, rewrite(s.value))
        if isinstance(s, irs.For):
            return irs.For(s.var, s.start, s.stop, tuple(rewrite_stmt(x) for x in s.body))
        if isinstance(s, irs.Store):
            return irs.Store(
                s.array, tuple(rewrite(x) for x in s.index), rewrite(s.value)
            )
        return s

    return tuple(rewrite_stmt(s) for s in body)


def split_wrap_regions(
    gen: LoweredGenerator, depth: int = 0
) -> list[LoweredGenerator]:
    """Split one generator into affine bulk + wrapping edge generators."""
    if gen.space.is_empty():
        return []
    mods = _collect_mods(gen.body)
    if not mods or depth >= _MAX_RECURSION:
        return [gen]

    ev = IndexEvaluator(gen.space)
    for s in gen.body:
        if isinstance(s, irs.Assign):
            ev.bind(s.name, s.value)

    clean: dict[ir.Expr, ir.Expr] = {}
    wrap_mask = np.zeros(gen.space.extent, dtype=bool)
    analysable = True
    for mod in mods:
        c = int(mod.rhs.value)
        try:
            val = ev.eval(mod.lhs)
        except IRError:  # depends on memory or loop variables, or divides by 0
            analysable = False
            continue
        val = np.broadcast_to(np.asarray(val), gen.space.extent)
        wraps = (val < 0) | (val >= c)
        if not wraps.any():
            clean[mod] = mod.lhs
        else:
            wrap_mask |= wraps

    if clean:
        gen = LoweredGenerator(
            space=gen.space,
            body=_replace_exprs(gen.body, clean),
            provenance=gen.provenance,
        )
    if not wrap_mask.any() or not analysable:
        return [gen]

    split = _axis_aligned_split(wrap_mask)
    if split is None:
        return [gen]  # wraps, but not separable: keep the modulo everywhere
    axis, t = split
    lo, hi, st = list(gen.space.lower), list(gen.space.upper), gen.space.step
    cut = lo[axis] + t * st[axis]
    bulk_space = IndexSpace(
        tuple(lo), tuple(cut if d == axis else hi[d] for d in range(len(hi))), st
    )
    edge_space = IndexSpace(
        tuple(cut if d == axis else lo[d] for d in range(len(lo))), tuple(hi), st
    )
    out: list[LoweredGenerator] = []
    if not bulk_space.is_empty():
        out.extend(
            split_wrap_regions(
                LoweredGenerator(bulk_space, gen.body, gen.provenance), depth + 1
            )
        )
    if not edge_space.is_empty():
        out.append(
            LoweredGenerator(
                edge_space, gen.body, gen.provenance + " [wrap edge]"
            )
        )
    return out


def _axis_aligned_split(mask: np.ndarray) -> tuple[int, int] | None:
    """Find (axis, first_true_index) when the mask is a contiguous suffix
    slab along exactly one axis."""
    for axis in range(mask.ndim):
        other = tuple(d for d in range(mask.ndim) if d != axis)
        line_any = mask.any(axis=other) if other else mask
        line_all = mask.all(axis=other) if other else mask
        if not np.array_equal(line_any, line_all):
            continue
        idx = np.flatnonzero(line_any)
        if idx.size == 0:
            continue
        t = int(idx[0])
        if np.array_equal(idx, np.arange(t, mask.shape[axis])):
            if t == 0:
                return None  # whole space wraps; nothing to split
            return axis, t
    return None


def split_loop(loop: LoweredLoop) -> LoweredLoop:
    """Apply wrap splitting to every generator of a lowered WITH-loop."""
    gens: list[LoweredGenerator] = []
    for g in loop.generators:
        gens.extend(split_wrap_regions(g))
    from dataclasses import replace

    return replace(loop, generators=tuple(gens))
