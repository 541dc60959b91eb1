"""SaC frontend lints: unused/shadowed bindings, overlapping generators.

These complement the hard checks in :mod:`repro.sac.semantics` (which raise
on the first violation) with soft findings over a whole
:class:`repro.sac.ast.Program`:

* **SAC001** — a parameter or local binding that is never read;
* **SAC002** — a WITH-loop index variable or generator-local binding that
  shadows an existing binding;
* **SAC003** — two static generators of one WITH-loop whose index sets
  overlap: under SaC's single-assignment semantics the cell value would
  depend on generator order, which the CUDA backend's one-launch-per-
  generator scheme (paper Section VII) turns into a real device race.

Unused WITH-loop index variables are deliberately *not* flagged — constant
fills (``[iv] : 0``) are idiomatic SaC.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.diagnostics import Diagnostic
from repro.sac import ast
from repro.sac.opt.withinfo import static_frame_shape, static_generator_range

__all__ = ["find_binding_lints", "find_generator_overlaps", "lint_sac_program"]

#: frames with more cells than this use bounding-box reasoning, not masks
_MASK_LIMIT = 4_000_000


# ---------------------------------------------------------------------------
# SAC001: unused bindings
# ---------------------------------------------------------------------------


def _used_names(fun: ast.FunDef) -> set[str]:
    used: set[str] = set()
    for node in ast.walk(fun):
        if isinstance(node, ast.Var):
            used.add(node.name)
        elif isinstance(node, ast.IndexedAssign):
            used.add(node.name)  # reads the base array
    return used


def _unused_bindings(fun: ast.FunDef) -> list[Diagnostic]:
    used = _used_names(fun)
    where = f"function {fun.name!r}"
    out: list[Diagnostic] = []
    for p in fun.params:
        if p.name and p.name not in used:
            out.append(
                Diagnostic(
                    code="SAC001",
                    severity="info",
                    message=f"parameter {p.name!r} is never used",
                    location=f"{where} at {p.loc}",
                    hint="drop the parameter or use it",
                )
            )
    first_assign: dict[str, ast.Assign] = {}
    for node in ast.walk(fun):
        if isinstance(node, ast.Assign):
            first_assign.setdefault(node.name, node)
    for name, node in first_assign.items():
        if name not in used:
            out.append(
                Diagnostic(
                    code="SAC001",
                    severity="warning",
                    message=f"binding {name!r} is assigned but never used",
                    location=f"{where} at {node.loc}",
                    hint="remove the dead assignment",
                )
            )
    return out


# ---------------------------------------------------------------------------
# SAC002: shadowing
# ---------------------------------------------------------------------------


class _ShadowScan:
    """Scope-aware walk flagging nested rebindings of enclosing names."""

    def __init__(self, fun: ast.FunDef):
        self.where = f"function {fun.name!r}"
        self.out: list[Diagnostic] = []
        defined = {p.name for p in fun.params if p.name}
        self.scan_stmts(fun.body, defined, enclosing=frozenset(), local=set())

    def flag(self, what: str, name: str, loc) -> None:
        self.out.append(
            Diagnostic(
                code="SAC002",
                severity="warning",
                message=f"{what} {name!r} shadows an existing binding",
                location=f"{self.where} at {loc}",
                hint=f"rename {name!r}",
            )
        )

    def scan_stmts(self, stmts, defined, enclosing, local) -> None:
        for s in stmts:
            for child in ast.children(s):
                if isinstance(child, ast.Expr):
                    self.scan_expr(child, defined)
            if isinstance(s, ast.Assign):
                if s.name in enclosing and s.name not in local:
                    self.flag("generator-local binding", s.name, s.loc)
                local.add(s.name)
                defined.add(s.name)
            elif isinstance(s, ast.IndexedAssign):
                local.add(s.name)
                defined.add(s.name)
            elif isinstance(s, ast.ForLoop):
                if s.init is not None:
                    local.add(s.init.name)
                    defined.add(s.init.name)
                if s.update is not None:
                    self.scan_stmts((s.update,), defined, enclosing, local)
                self.scan_stmts(s.body, defined, enclosing, local)
            elif isinstance(s, ast.IfElse):
                self.scan_stmts(s.then, defined, enclosing, local)
                self.scan_stmts(s.orelse, defined, enclosing, local)
            elif isinstance(s, ast.Block):
                self.scan_stmts(s.stmts, defined, enclosing, local)

    def scan_expr(self, e: ast.Node, defined) -> None:
        """Scan an expression, or a WITH-loop part (bound, operation)."""
        if isinstance(e, ast.WithLoop):
            self.scan_withloop(e, defined)
            return
        for child in ast.children(e):
            self.scan_expr(child, defined)

    def scan_withloop(self, wl: ast.WithLoop, defined) -> None:
        for gen in wl.generators:
            for part in (gen.lower, gen.upper, gen.step, gen.width):
                if part is not None:
                    self.scan_expr(part, defined)
            for v in gen.vars:
                if v in defined:
                    self.flag("WITH-loop index variable", v, gen.loc)
            inner = set(defined) | set(gen.vars)
            self.scan_stmts(
                gen.body, inner, enclosing=frozenset(defined), local=set()
            )
            if gen.expr is not None:
                self.scan_expr(gen.expr, inner)
        self.scan_expr(wl.operation, defined)


def find_binding_lints(program: ast.Program) -> list[Diagnostic]:
    """SAC001 (unused) and SAC002 (shadowed) findings for every function."""
    out: list[Diagnostic] = []
    for fun in program.functions:
        out.extend(_unused_bindings(fun))
        out.extend(_ShadowScan(fun).out)
    return out


# ---------------------------------------------------------------------------
# SAC003: overlapping generators
# ---------------------------------------------------------------------------


def find_generator_overlaps(program: ast.Program) -> list[Diagnostic]:
    """SAC003: statically overlapping generators of multi-generator loops."""
    out: list[Diagnostic] = []
    for fun in program.functions:
        where = f"function {fun.name!r}"
        for node in ast.walk(fun):
            if not isinstance(node, ast.WithLoop) or len(node.generators) < 2:
                continue
            frame = static_frame_shape(node)
            ranges = [static_generator_range(g, frame) for g in node.generators]
            shape = frame if frame is not None else _bounding_shape(ranges)
            if shape is None or int(np.prod(shape)) > _MASK_LIMIT:
                continue  # dynamic or too large to decide exactly
            masks = [
                r.point_mask(tuple(shape)) if r is not None else None
                for r in ranges
            ]
            for a in range(len(masks)):
                for b in range(a + 1, len(masks)):
                    if masks[a] is None or masks[b] is None:
                        continue
                    common = int(np.count_nonzero(masks[a] & masks[b]))
                    if common:
                        gen_b = node.generators[b]
                        out.append(
                            Diagnostic(
                                code="SAC003",
                                severity="error",
                                message=(
                                    f"generators {a} and {b} overlap on "
                                    f"{common} cell(s); the result depends on "
                                    f"generator order"
                                ),
                                location=f"{where} at {gen_b.loc}",
                                hint="make the generator ranges disjoint",
                            )
                        )
    return out


def _bounding_shape(ranges) -> tuple[int, ...] | None:
    known = [r for r in ranges if r is not None]
    if len(known) < 2:
        return None
    rank = known[0].rank
    if any(r.rank != rank for r in known):
        return None
    return tuple(max(max(r.upper[d] for r in known), 1) for d in range(rank))


def lint_sac_program(program: ast.Program) -> list[Diagnostic]:
    """All SaC frontend lints over ``program``."""
    return find_binding_lints(program) + find_generator_overlaps(program)
