"""Lightweight rank/type inference for SaC programs.

SaC's type patterns constrain *ranks* (``int[.,.]`` is any rank-2 int
array) and sometimes extents (``int[1080,1920]``).  This checker infers a
conservative abstract type — base dtype plus rank when determinable — and
reports violations a parse cannot catch:

* arithmetic mixing booleans with numbers,
* conditions that are not boolean,
* selections deeper than an array's known rank,
* arguments whose known rank contradicts the callee's declared pattern,
* returning a value whose known rank contradicts the declared return type.

Unknown ranks propagate silently (``int[*]`` is always acceptable), so the
checker never rejects a dynamically-correct program.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SacTypeError
from repro.sac import ast
__all__ = ["typecheck_program", "typecheck_function", "AType"]


@dataclass(frozen=True)
class AType:
    """Abstract type: base dtype plus optional rank."""

    base: str  # "int" | "float" | "double" | "bool" | "unknown"
    rank: int | None  # None = unknown


_UNKNOWN = AType("unknown", None)
_INT = AType("int", 0)
_BOOL = AType("bool", 0)


def _of_typespec(t: ast.TypeSpec) -> AType:
    if t.is_scalar:
        return AType(t.base, 0)
    if t.dims == ("*",):
        return AType(t.base, None)
    if t.dims == ("+",):
        return AType(t.base, None)
    return AType(t.base, len(t.dims))


def typecheck_program(program: ast.Program) -> None:
    functions = {f.name: f for f in program.functions}
    for f in program.functions:
        typecheck_function(f, functions)


def typecheck_function(fun: ast.FunDef, functions: dict[str, ast.FunDef]) -> None:
    env = {p.name: _of_typespec(p.type) for p in fun.params}
    _Checker(fun, functions).stmts(fun.body, env)


class _Checker:
    def __init__(self, fun, functions):
        self.fun = fun
        self.functions = functions

    def fail(self, msg: str, loc) -> None:
        raise SacTypeError(f"{self.fun.name}: {msg}", loc)

    # -- statements ------------------------------------------------------------

    def stmts(self, body, env: dict[str, AType]) -> None:
        for s in body:
            self.stmt(s, env)

    def stmt(self, s: ast.Stmt, env) -> None:
        if isinstance(s, ast.Assign):
            env[s.name] = self.expr(s.value, env)
        elif isinstance(s, ast.IndexedAssign):
            base = env.get(s.name, _UNKNOWN)
            if base.rank == 0:
                self.fail(f"cannot index-assign scalar {s.name!r}", s.loc)
            self.expr(s.index, env)
            self.expr(s.value, env)
        elif isinstance(s, ast.Block):
            self.stmts(s.stmts, env)
        elif isinstance(s, ast.ForLoop):
            self.stmt(s.init, env)
            cond = self.expr(s.cond, env)
            if cond.base not in ("bool", "unknown"):
                self.fail("for-loop condition must be boolean", s.loc)
            inner = dict(env)
            self.stmts(s.body, inner)
            self.stmt(s.update, inner)
        elif isinstance(s, ast.IfElse):
            cond = self.expr(s.cond, env)
            if cond.base not in ("bool", "unknown"):
                self.fail("condition must be boolean", s.loc)
            then_env = dict(env)
            else_env = dict(env)
            self.stmts(s.then, then_env)
            self.stmts(s.orelse, else_env)
            for name in set(then_env) & set(else_env):
                a, b = then_env[name], else_env[name]
                env[name] = a if a == b else AType(
                    a.base if a.base == b.base else "unknown", None
                )
        elif isinstance(s, ast.Return):
            if s.value is None:
                return
            value = self.expr(s.value, env)
            declared = _of_typespec(self.fun.ret_type)
            if (
                value.rank is not None
                and declared.rank is not None
                and value.rank != declared.rank
            ):
                self.fail(
                    f"returns rank {value.rank}, declared {self.fun.ret_type}",
                    s.loc,
                )

    # -- expressions ---------------------------------------------------------------

    def expr(self, e: ast.Expr, env) -> AType:
        if isinstance(e, ast.IntLit):
            return _INT
        if isinstance(e, ast.FloatLit):
            return AType("double", 0)
        if isinstance(e, ast.BoolLit):
            return _BOOL
        if isinstance(e, ast.Dot):
            return _UNKNOWN
        if isinstance(e, ast.Var):
            return env.get(e.name, _UNKNOWN)
        if isinstance(e, ast.ArrayLit):
            elems = [self.expr(x, env) for x in e.elements]
            inner = elems[0] if elems else _INT
            rank = None if inner.rank is None else inner.rank + 1
            return AType(inner.base, rank)
        if isinstance(e, ast.UnExpr):
            operand = self.expr(e.operand, env)
            if e.op == "!" and operand.base not in ("bool", "unknown"):
                self.fail("'!' needs a boolean operand", e.loc)
            if e.op == "-" and operand.base == "bool":
                self.fail("'-' cannot negate a boolean", e.loc)
            return operand
        if isinstance(e, ast.BinExpr):
            return self.binexpr(e, env)
        if isinstance(e, ast.IndexExpr):
            return self.index(e, env)
        if isinstance(e, ast.Call):
            return self.call(e, env)
        if isinstance(e, ast.WithLoop):
            return self.withloop(e, env)
        return _UNKNOWN

    def binexpr(self, e: ast.BinExpr, env) -> AType:
        lhs = self.expr(e.lhs, env)
        rhs = self.expr(e.rhs, env)
        if e.op in ("&&", "||"):
            for side in (lhs, rhs):
                if side.base not in ("bool", "unknown"):
                    self.fail(f"{e.op!r} needs boolean operands", e.loc)
            return _BOOL
        if e.op in ("<", "<=", ">", ">=", "==", "!="):
            return AType("bool", _broadcast_rank(lhs.rank, rhs.rank))
        if e.op == "++":
            base = lhs.base if lhs.base != "unknown" else rhs.base
            rank = lhs.rank if lhs.rank not in (None, 0) else rhs.rank
            return AType(base, rank if rank != 0 else 1)
        # arithmetic
        for side in (lhs, rhs):
            if side.base == "bool":
                self.fail(f"arithmetic {e.op!r} on a boolean", e.loc)
        base = lhs.base if lhs.base != "unknown" else rhs.base
        return AType(base, _broadcast_rank(lhs.rank, rhs.rank))

    def index(self, e: ast.IndexExpr, env) -> AType:
        array = self.expr(e.array, env)
        index = self.expr(e.index, env)
        if array.rank == 0:
            self.fail("cannot select from a scalar", e.loc)
        if index.base == "bool":
            self.fail("array index must be integral", e.loc)
        if array.rank is None:
            return AType(array.base, None)
        if isinstance(e.index, ast.ArrayLit):
            depth = len(e.index.elements)
            if depth > array.rank:
                self.fail(
                    f"selection depth {depth} exceeds array rank {array.rank}",
                    e.loc,
                )
            return AType(array.base, array.rank - depth)
        if index.rank == 0:
            return AType(array.base, array.rank - 1)
        return AType(array.base, None)

    def call(self, e: ast.Call, env) -> AType:
        args = [self.expr(a, env) for a in e.args]
        if e.name == "genarray":
            return AType("int" if len(args) < 2 else args[1].base, None)
        if e.name in ("shape",):
            return AType("int", 1)
        if e.name == "dim":
            return _INT
        if e.name in ("sum", "prod"):
            return AType(args[0].base if args else "unknown", 0)
        if e.name in ("min", "max", "abs"):
            return args[0] if args else _UNKNOWN
        if e.name in ("MV",):
            return AType(args[0].base if args else "unknown", 1)
        if e.name in ("CAT",):
            return AType(args[0].base if args else "unknown", None)
        target = self.functions.get(e.name)
        if target is None:
            return _UNKNOWN
        for arg, param in zip(args, target.params):
            declared = _of_typespec(param.type)
            if (
                arg.rank is not None
                and declared.rank is not None
                and arg.rank != declared.rank
            ):
                self.fail(
                    f"argument {param.name!r} of {e.name!r} expects rank "
                    f"{declared.rank}, got rank {arg.rank}",
                    e.loc,
                )
        return _of_typespec(target.ret_type)

    def withloop(self, e: ast.WithLoop, env) -> AType:
        op = e.operation
        frame_rank: int | None = None
        base = "int"
        if isinstance(op, ast.GenArray):
            shape = self.expr(op.shape, env)
            if isinstance(op.shape, ast.ArrayLit):
                frame_rank = len(op.shape.elements)
            if op.default is not None:
                base = self.expr(op.default, env).base
        elif isinstance(op, ast.ModArray):
            arr = self.expr(op.array, env)
            frame_rank = arr.rank
            base = arr.base
        for g in e.generators:
            inner = dict(env)
            if g.destructured:
                for v in g.vars:
                    inner[v] = _INT
            else:
                inner[g.var] = AType("int", 1)
            self.stmts(g.body, inner)
            cell = self.expr(g.expr, inner)
            if isinstance(op, ast.Fold):
                return AType(cell.base, None)
            if isinstance(op, ast.GenArray) and frame_rank is not None:
                if cell.rank is not None:
                    return AType(
                        cell.base if base == "int" else base, frame_rank + cell.rank
                    )
        return AType(base, frame_rank if isinstance(op, ast.ModArray) else None)


def _broadcast_rank(a: int | None, b: int | None) -> int | None:
    if a is None or b is None:
        return None
    return max(a, b)
