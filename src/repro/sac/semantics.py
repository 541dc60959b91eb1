"""Static semantic checks for SaC programs.

Catches what the paper's language rules make illegal before anything runs:

* use of undefined variables (per control-flow path, conservatively),
* calls with wrong arity, or to undefined functions/builtins,
* ``fold`` with an unknown reduction function,
* generator index variables shadowing each other,
* generator bounds of different ranks, and a constant step that is not
  positive (the interpreter's run-time errors, with the same text),
* functions whose non-void control flow can fall off the end,
* duplicate parameter names.

The checker is flow-sensitive for straight-line code and joins branches
conservatively (a variable only counts as defined after ``if``/``else``
when both branches define it).
"""

from __future__ import annotations

from repro.errors import SacSemanticError
from repro.sac import ast
from repro.sac.builtins import BUILTINS, FOLD_FUNS

__all__ = ["check_program", "check_function"]


def check_program(program: ast.Program) -> None:
    """Raise :class:`SacSemanticError` on the first violation found."""
    functions = {f.name: f for f in program.functions}
    for f in program.functions:
        check_function(f, functions)


def check_function(fun: ast.FunDef, functions: dict[str, ast.FunDef]) -> None:
    names = [p.name for p in fun.params]
    if len(set(names)) != len(names):
        raise SacSemanticError(
            f"{fun.name}: duplicate parameter names {names}", fun.loc
        )
    checker = _Checker(fun, functions)
    defined = set(names)
    returns = checker.check_stmts(fun.body, defined)
    if fun.ret_type.base != "void" and not returns:
        raise SacSemanticError(
            f"{fun.name}: control flow can reach the end without returning",
            fun.loc,
        )


class _Checker:
    def __init__(self, fun: ast.FunDef, functions: dict[str, ast.FunDef]):
        self.fun = fun
        self.functions = functions

    def check_stmts(self, stmts, defined: set[str]) -> bool:
        """Check a statement list; returns whether it definitely returns."""
        returns = False
        for s in stmts:
            if returns:
                raise SacSemanticError(
                    f"{self.fun.name}: unreachable statement after return", s.loc
                )
            returns = self.check_stmt(s, defined)
        return returns

    def check_stmt(self, s: ast.Stmt, defined: set[str]) -> bool:
        if isinstance(s, ast.Assign):
            self.check_expr(s.value, defined)
            defined.add(s.name)
            return False
        if isinstance(s, ast.IndexedAssign):
            if s.name not in defined:
                raise SacSemanticError(
                    f"{self.fun.name}: indexed assignment to undefined "
                    f"{s.name!r}",
                    s.loc,
                )
            self.check_expr(s.index, defined)
            self.check_expr(s.value, defined)
            return False
        if isinstance(s, ast.Block):
            return self.check_stmts(s.stmts, defined)
        if isinstance(s, ast.ForLoop):
            self.check_stmt(s.init, defined)
            self.check_expr(s.cond, defined)
            # body + update see the loop variable; definitions made inside
            # the body are not guaranteed outside (zero-trip loops)
            inner = set(defined)
            self.check_stmts(s.body, inner)
            self.check_stmt(s.update, inner)
            return False
        if isinstance(s, ast.IfElse):
            self.check_expr(s.cond, defined)
            then_defs = set(defined)
            else_defs = set(defined)
            then_ret = self.check_stmts(s.then, then_defs)
            else_ret = self.check_stmts(s.orelse, else_defs)
            defined |= then_defs & else_defs
            if then_ret and not s.orelse:
                return False
            return then_ret and else_ret
        if isinstance(s, ast.Return):
            if s.value is not None:
                self.check_expr(s.value, defined)
                if self.fun.ret_type.base == "void":
                    raise SacSemanticError(
                        f"{self.fun.name}: void function returns a value", s.loc
                    )
            elif self.fun.ret_type.base != "void":
                raise SacSemanticError(
                    f"{self.fun.name}: non-void function returns nothing", s.loc
                )
            return True
        raise SacSemanticError(
            f"{self.fun.name}: unknown statement {type(s).__name__}", s.loc
        )

    # -- expressions ---------------------------------------------------------

    def check_expr(self, e: ast.Expr, defined: set[str]) -> None:
        if isinstance(e, (ast.IntLit, ast.FloatLit, ast.BoolLit, ast.Dot)):
            return
        if isinstance(e, ast.Var):
            if e.name not in defined:
                raise SacSemanticError(
                    f"{self.fun.name}: use of undefined variable {e.name!r}",
                    e.loc,
                )
            return
        if isinstance(e, ast.ArrayLit):
            for x in e.elements:
                self.check_expr(x, defined)
            return
        if isinstance(e, ast.IndexExpr):
            self.check_expr(e.array, defined)
            self.check_expr(e.index, defined)
            return
        if isinstance(e, ast.BinExpr):
            self.check_expr(e.lhs, defined)
            self.check_expr(e.rhs, defined)
            return
        if isinstance(e, ast.UnExpr):
            self.check_expr(e.operand, defined)
            return
        if isinstance(e, ast.Call):
            self.check_call(e, defined)
            return
        if isinstance(e, ast.WithLoop):
            self.check_withloop(e, defined)
            return
        raise SacSemanticError(
            f"{self.fun.name}: unknown expression {type(e).__name__}", e.loc
        )

    def check_call(self, e: ast.Call, defined: set[str]) -> None:
        for a in e.args:
            self.check_expr(a, defined)
        if e.name == "genarray":
            if len(e.args) not in (1, 2):
                raise SacSemanticError(
                    f"{self.fun.name}: genarray takes 1 or 2 arguments", e.loc
                )
            return
        if e.name in BUILTINS:
            _, arity = BUILTINS[e.name]
            if len(e.args) != arity:
                raise SacSemanticError(
                    f"{self.fun.name}: builtin {e.name!r} expects {arity} "
                    f"arguments, got {len(e.args)}",
                    e.loc,
                )
            return
        target = self.functions.get(e.name)
        if target is None:
            raise SacSemanticError(
                f"{self.fun.name}: call to undefined function {e.name!r}", e.loc
            )
        if len(e.args) != len(target.params):
            raise SacSemanticError(
                f"{self.fun.name}: {e.name!r} expects {len(target.params)} "
                f"arguments, got {len(e.args)}",
                e.loc,
            )

    def check_withloop(self, e: ast.WithLoop, defined: set[str]) -> None:
        op = e.operation
        if isinstance(op, ast.GenArray):
            self.check_expr(op.shape, defined)
            if op.default is not None:
                self.check_expr(op.default, defined)
        elif isinstance(op, ast.ModArray):
            self.check_expr(op.array, defined)
        elif isinstance(op, ast.Fold):
            if op.fun not in FOLD_FUNS:
                raise SacSemanticError(
                    f"{self.fun.name}: unknown fold function {op.fun!r} "
                    f"(expected one of {sorted(FOLD_FUNS)})",
                    op.loc,
                )
            self.check_expr(op.neutral, defined)
        for g in e.generators:
            if not isinstance(g.lower.expr, ast.Dot):
                self.check_expr(g.lower.expr, defined)
            if not isinstance(g.upper.expr, ast.Dot):
                self.check_expr(g.upper.expr, defined)
            if g.step is not None:
                self.check_expr(g.step, defined)
            if g.width is not None:
                self.check_expr(g.width, defined)
            self.check_generator_shape(e, g)
            inner = set(defined) | set(g.vars)
            self.check_stmts(g.body, inner)
            self.check_expr(g.expr, inner)

    def check_generator_shape(self, e: ast.WithLoop, g: ast.Generator) -> None:
        """Bound ranks and step signs that are known before the loop runs."""
        op = e.operation
        frame = None
        if isinstance(op, ast.GenArray) and isinstance(op.shape, ast.ArrayLit):
            frame = len(op.shape.elements)
        lower, upper = (_bound_rank(b.expr, frame) for b in (g.lower, g.upper))
        if lower is not None and upper is not None and lower != upper:
            raise SacSemanticError(
                f"generator bound ranks differ: {lower} vs {upper}", e.loc
            )
        rank = lower if lower is not None else upper
        step = _constant_step(g.step, rank)
        # the interpreter reports a destructuring mismatch before the step
        if g.destructured and len(g.vars) != rank:
            return
        if step is not None and any(v <= 0 for v in step):
            raise SacSemanticError(f"generator step must be positive: {step}", g.loc)


def _bound_rank(e: ast.Expr, frame: int | None) -> int | None:
    """The rank a generator bound has at run time, when known statically:
    a vector literal's length, else the frame's rank for ``.`` or a scalar."""
    if isinstance(e, ast.ArrayLit):
        return len(e.elements)
    if isinstance(e, (ast.Dot, ast.IntLit)):
        return frame
    return None


def _constant_step(e: ast.Expr | None, rank: int | None) -> list[int] | None:
    """A constant step of a rank-``rank`` generator as the interpreter
    expands it, else ``None``."""
    if e is None or rank is None:
        return None
    if isinstance(e, ast.ArrayLit):
        values = [_constant_int(x) for x in e.elements]
        return None if None in values or len(values) != rank else values
    value = _constant_int(e)
    return None if value is None else [value] * rank


def _constant_int(e: ast.Expr) -> int | None:
    if isinstance(e, ast.IntLit):
        return e.value
    if isinstance(e, ast.UnExpr) and e.op == "-":
        value = _constant_int(e.operand)
        return None if value is None else -value
    return None
