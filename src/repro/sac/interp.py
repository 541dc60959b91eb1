"""Reference interpreter for the SaC subset.

A straightforward tree walker implementing the language's semantics exactly
as the paper describes them — single-assignment arrays (indexed assignment
is a functional cell update), deterministic WITH-loops with disjoint
generators, C integer arithmetic.  It is the semantic oracle the optimiser
and CUDA backend are tested against.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from repro.errors import IRError, SacRuntimeError
from repro.ir.expr import c_div, c_mod
from repro.sac import ast
from repro.sac.builtins import BUILTINS, FOLD_FUNS, call_builtin
from repro.sac.values import (
    BASE_DTYPES,
    Value,
    as_index_vector,
    is_scalar,
    select,
    shape_of,
    to_python,
    with_cell_set,
)

__all__ = ["Interpreter"]

_MAX_CALL_DEPTH = 64
_MAX_LOOP_ITERATIONS = 10_000_000


class _ReturnValue(Exception):
    def __init__(self, value: Value | None):
        self.value = value


class Interpreter:
    """Evaluates SaC programs.

    Parameters
    ----------
    program:
        The parsed (optionally optimised) program.
    check_disjoint:
        Verify that WITH-loop generators never write the same cell twice
        (the determinism condition); costs one byte per result cell.
    """

    def __init__(self, program: ast.Program, check_disjoint: bool = True):
        self.program = program
        self.functions = {f.name: f for f in program.functions}
        self.check_disjoint = check_disjoint

    # -- public API --------------------------------------------------------------

    def call(self, name: str, args: list[Value] | None = None) -> Value:
        """Call function ``name`` with the given argument values."""
        return self._call(name, list(args or []), depth=0)

    def execute_statements(self, stmts, env: dict[str, Value]) -> dict[str, Value]:
        """Execute a statement list against ``env`` (mutated and returned).

        Used by the CUDA backend's host-compute steps: constructs the
        compiler keeps on the host (for-loop nests, dynamic WITH-loops) run
        under the reference semantics with the surrounding arrays bound in
        ``env``.
        """
        self._exec_block(stmts, env, depth=0)
        return env

    # -- functions ----------------------------------------------------------------

    def _call(self, name: str, args: list[Value], depth: int) -> Value:
        if depth > _MAX_CALL_DEPTH:
            raise SacRuntimeError(f"call depth exceeded calling {name!r}")
        fun = self.functions.get(name)
        if fun is None:
            if name in BUILTINS:
                return call_builtin(name, args)
            raise SacRuntimeError(f"undefined function {name!r}")
        if len(args) != len(fun.params):
            raise SacRuntimeError(
                f"{name!r} expects {len(fun.params)} arguments, got {len(args)}"
            )
        env: dict[str, Value] = {}
        for p, a in zip(fun.params, args):
            env[p.name] = self._coerce_param(p, a)
        try:
            self._exec_block(fun.body, env, depth)
        except _ReturnValue as r:
            return r.value
        if fun.ret_type.base == "void":
            return None
        raise SacRuntimeError(f"function {name!r} finished without returning a value")

    def _coerce_param(self, p: ast.Param, a: Value) -> Value:
        t = p.type
        dtype = BASE_DTYPES.get(t.base)
        if dtype is None:
            raise SacRuntimeError(f"parameter {p.name!r} has unusable type {t}")
        if t.is_scalar:
            if not is_scalar(a):
                raise SacRuntimeError(
                    f"parameter {p.name!r} expects a scalar, got shape {shape_of(a)}"
                )
            return a
        arr = np.asarray(a, dtype=dtype)
        self._check_dims(p.name, t, arr.shape)
        return arr

    @staticmethod
    def _check_dims(name: str, t: ast.TypeSpec, shape: tuple[int, ...]) -> None:
        dims = t.dims
        assert dims is not None
        if dims == ("*",):
            return
        if dims == ("+",):
            if len(shape) < 1:
                raise SacRuntimeError(f"parameter {name!r}: expected rank >= 1")
            return
        if len(dims) != len(shape):
            raise SacRuntimeError(
                f"parameter {name!r}: expected rank {len(dims)}, got shape {shape}"
            )
        for d, (spec, ext) in enumerate(zip(dims, shape)):
            if isinstance(spec, int) and spec != ext:
                raise SacRuntimeError(
                    f"parameter {name!r}: axis {d} expects extent {spec}, got {ext}"
                )

    # -- statements -----------------------------------------------------------------

    def _exec_block(self, stmts, env: dict[str, Value], depth: int) -> None:
        for s in stmts:
            self._exec_stmt(s, env, depth)

    def _exec_stmt(self, s: ast.Stmt, env: dict[str, Value], depth: int) -> None:
        if isinstance(s, ast.Assign):
            env[s.name] = self._eval(s.value, env, depth)
        elif isinstance(s, ast.IndexedAssign):
            if s.name not in env:
                raise SacRuntimeError(f"indexed assignment to undefined {s.name!r}", s.loc)
            idx = self._eval(s.index, env, depth)
            val = self._eval(s.value, env, depth)
            base = env[s.name]
            if is_scalar(base):
                raise SacRuntimeError(f"cannot index scalar {s.name!r}", s.loc)
            env[s.name] = with_cell_set(base, idx, val)
        elif isinstance(s, ast.Block):
            self._exec_block(s.stmts, env, depth)
        elif isinstance(s, ast.ForLoop):
            self._exec_stmt(s.init, env, depth)
            iters = 0
            while self._truthy(self._eval(s.cond, env, depth), s.loc):
                self._exec_block(s.body, env, depth)
                self._exec_stmt(s.update, env, depth)
                iters += 1
                if iters > _MAX_LOOP_ITERATIONS:
                    raise SacRuntimeError("for-loop iteration limit exceeded", s.loc)
        elif isinstance(s, ast.IfElse):
            if self._truthy(self._eval(s.cond, env, depth), s.loc):
                self._exec_block(s.then, env, depth)
            else:
                self._exec_block(s.orelse, env, depth)
        elif isinstance(s, ast.Return):
            raise _ReturnValue(
                None if s.value is None else self._eval(s.value, env, depth)
            )
        else:
            raise SacRuntimeError(f"unknown statement {type(s).__name__}", s.loc)

    @staticmethod
    def _truthy(v: Value, loc) -> bool:
        v = to_python(v)
        if isinstance(v, (bool, np.bool_)):
            return bool(v)
        raise SacRuntimeError(f"condition is not boolean: {v!r}", loc)

    # -- expressions ------------------------------------------------------------------

    def _eval(self, e: ast.Expr, env: dict[str, Value], depth: int) -> Value:
        if isinstance(e, ast.IntLit):
            return e.value
        if isinstance(e, ast.FloatLit):
            return e.value
        if isinstance(e, ast.BoolLit):
            return e.value
        if isinstance(e, ast.Var):
            try:
                return env[e.name]
            except KeyError:
                raise SacRuntimeError(f"undefined variable {e.name!r}", e.loc) from None
        if isinstance(e, ast.ArrayLit):
            vals = [self._eval(x, env, depth) for x in e.elements]
            try:
                arr = np.asarray(vals)
            except ValueError:
                raise SacRuntimeError("ragged array literal", e.loc) from None
            if np.issubdtype(arr.dtype, np.integer):
                arr = arr.astype(np.int32)
            elif np.issubdtype(arr.dtype, np.floating):
                arr = arr.astype(np.float64)
            return arr
        if isinstance(e, ast.IndexExpr):
            arr = self._eval(e.array, env, depth)
            idx = self._eval(e.index, env, depth)
            try:
                return select(arr, idx)
            except SacRuntimeError as err:
                raise SacRuntimeError(str(err), e.loc) from None
        if isinstance(e, ast.BinExpr):
            return self._binop(e, env, depth)
        if isinstance(e, ast.UnExpr):
            v = self._eval(e.operand, env, depth)
            if e.op == "-":
                return to_python(np.negative(v)) if is_scalar(v) else np.negative(v)
            if e.op == "!":
                return to_python(np.logical_not(v)) if is_scalar(v) else np.logical_not(v)
            raise SacRuntimeError(f"unknown unary operator {e.op!r}", e.loc)
        if isinstance(e, ast.Call):
            args = [self._eval(a, env, depth) for a in e.args]
            return self._call(e.name, args, depth + 1)
        if isinstance(e, ast.WithLoop):
            return self._with_loop(e, env, depth)
        if isinstance(e, ast.Dot):
            raise SacRuntimeError("'.' is only valid inside generator bounds", e.loc)
        raise SacRuntimeError(f"unknown expression {type(e).__name__}", e.loc)

    def _binop(self, e: ast.BinExpr, env: dict[str, Value], depth: int) -> Value:
        lhs = self._eval(e.lhs, env, depth)
        # short-circuit logicals on scalars
        if e.op in ("&&", "||") and is_scalar(lhs):
            lb = self._truthy(lhs, e.loc)
            if e.op == "&&" and not lb:
                return False
            if e.op == "||" and lb:
                return True
            return self._truthy(self._eval(e.rhs, env, depth), e.loc)
        rhs = self._eval(e.rhs, env, depth)
        op = e.op
        try:
            if op == "++":
                return call_builtin("CAT", [lhs, rhs])
            if op == "+":
                out = np.add(lhs, rhs)
            elif op == "-":
                out = np.subtract(lhs, rhs)
            elif op == "*":
                out = np.multiply(lhs, rhs)
            elif op == "/":
                out = c_div(np.asarray(lhs), np.asarray(rhs))
            elif op == "%":
                out = c_mod(np.asarray(lhs), np.asarray(rhs))
            elif op == "<":
                out = np.less(lhs, rhs)
            elif op == "<=":
                out = np.less_equal(lhs, rhs)
            elif op == ">":
                out = np.greater(lhs, rhs)
            elif op == ">=":
                out = np.greater_equal(lhs, rhs)
            elif op == "==":
                out = np.equal(lhs, rhs)
            elif op == "!=":
                out = np.not_equal(lhs, rhs)
            elif op == "&&":
                out = np.logical_and(lhs, rhs)
            elif op == "||":
                out = np.logical_or(lhs, rhs)
            else:
                raise SacRuntimeError(f"unknown operator {op!r}", e.loc)
        except (ValueError, IRError) as err:
            raise SacRuntimeError(f"operator {op!r}: {err}", e.loc) from None
        if is_scalar(lhs) and is_scalar(rhs):
            return to_python(out)
        return np.asarray(out)

    # -- WITH-loops -----------------------------------------------------------------

    def _with_loop(self, e: ast.WithLoop, env: dict[str, Value], depth: int) -> Value:
        op = e.operation
        if isinstance(op, ast.GenArray):
            return self._genarray(e, op, env, depth)
        if isinstance(op, ast.ModArray):
            return self._modarray(e, op, env, depth)
        if isinstance(op, ast.Fold):
            return self._fold(e, op, env, depth)
        raise SacRuntimeError(f"unknown WITH-loop operation {type(op).__name__}", e.loc)

    def _genarray(self, e, op: ast.GenArray, env, depth) -> np.ndarray:
        frame_shape = tuple(
            as_index_vector(self._eval(op.shape, env, depth), "genarray shape")
        )
        if any(s < 0 for s in frame_shape):
            raise SacRuntimeError(f"negative genarray shape {frame_shape}", op.loc)
        default = (
            self._eval(op.default, env, depth) if op.default is not None else None
        )

        # determine the cell shape/dtype from the default or the first cell
        first_cell = None
        if default is None:
            first_cell = self._first_cell_value(e, frame_shape, env, depth)
            probe = first_cell if first_cell is not None else 0
        else:
            probe = default
        cell_shape = shape_of(probe)
        dtype = self._cell_dtype(probe)
        result = np.zeros(frame_shape + cell_shape, dtype=dtype)
        if default is not None and np.ndim(default) == 0 and default != 0:
            result[...] = default
        elif default is not None and np.ndim(default) > 0:
            result[...] = default

        seen = (
            np.zeros(frame_shape, dtype=bool)
            if (self.check_disjoint and len(e.generators) > 1)
            else None
        )
        for gen in e.generators:
            self._run_generator(gen, e, frame_shape, result, seen, env, depth)
        return result

    def _modarray(self, e, op: ast.ModArray, env, depth) -> np.ndarray:
        base = self._eval(op.array, env, depth)
        if is_scalar(base):
            raise SacRuntimeError("modarray expects an array", op.loc)
        result = np.array(base, copy=True)
        frame_shape = result.shape
        seen = (
            np.zeros(frame_shape, dtype=bool)
            if (self.check_disjoint and len(e.generators) > 1)
            else None
        )
        for gen in e.generators:
            self._run_generator(gen, e, frame_shape, result, seen, env, depth)
        return result

    def _fold(self, e, op: ast.Fold, env, depth) -> Value:
        if op.fun not in FOLD_FUNS:
            raise SacRuntimeError(
                f"fold function must be one of {sorted(FOLD_FUNS)}, got {op.fun!r}",
                op.loc,
            )
        fn, _ = FOLD_FUNS[op.fun]
        acc = self._eval(op.neutral, env, depth)
        for gen in e.generators:
            lo, hi, step, width = self._resolve_bounds(gen, None, env, depth, e.loc)
            for iv in _enumerate_indices(lo, hi, step, width):
                cell = self._cell_value(gen, iv, env, depth)
                acc = fn(acc, cell)
        return acc

    # -- generator machinery ------------------------------------------------------------

    def _resolve_bounds(self, gen: ast.Generator, frame_shape, env, depth, loc):
        """Resolve one generator's (lower, upper_exclusive, step, width)."""
        rank = None if frame_shape is None else len(frame_shape)

        def resolve(bound: ast.GenBound, which: str):
            if isinstance(bound.expr, ast.Dot):
                if frame_shape is None:
                    raise SacRuntimeError(
                        "'.' bounds need a genarray/modarray frame", bound.loc
                    )
                # '.' denotes the frame's extreme index: 0 below, shape-1
                # above — independent of the relational operator used.
                if which == "lower":
                    zeros = np.zeros(rank, dtype=np.int64)
                    return (zeros if bound.op == "<=" else zeros - 1), bound.op
                top = np.asarray(frame_shape, dtype=np.int64)
                return (top - 1 if bound.op == "<=" else top), bound.op
            v = self._eval(bound.expr, env, depth)
            if is_scalar(v):
                if rank is None:
                    raise SacRuntimeError(
                        "scalar generator bound needs a known frame rank", bound.loc
                    )
                return np.full(rank, int(v), dtype=np.int64), bound.op
            return np.asarray(as_index_vector(v, f"{which} bound"), dtype=np.int64), bound.op

        lo, lo_op = resolve(gen.lower, "lower")
        hi, hi_op = resolve(gen.upper, "upper")
        if lo.shape != hi.shape:
            raise SacRuntimeError(
                f"generator bound ranks differ: {lo.size} vs {hi.size}", loc
            )
        if gen.destructured and len(gen.vars) != lo.size:
            raise SacRuntimeError(
                f"generator destructures {len(gen.vars)} variables but the "
                f"bounds have rank {lo.size}",
                gen.loc,
            )
        if lo_op == "<":
            lo = lo + 1
        if hi_op == "<=":
            hi = hi + 1
        grank = lo.size

        def resolve_filter(expr, default):
            if expr is None:
                return np.full(grank, default, dtype=np.int64)
            v = self._eval(expr, env, depth)
            if is_scalar(v):
                return np.full(grank, int(v), dtype=np.int64)
            vec = np.asarray(as_index_vector(v, "step/width"), dtype=np.int64)
            if vec.size != grank:
                raise SacRuntimeError(
                    f"step/width rank {vec.size} differs from generator rank {grank}",
                    gen.loc,
                )
            return vec

        step = resolve_filter(gen.step, 1)
        width = resolve_filter(gen.width, 1)
        if np.any(step <= 0):
            raise SacRuntimeError(f"generator step must be positive: {step.tolist()}", gen.loc)
        if np.any(width <= 0) or np.any(width > step):
            raise SacRuntimeError(
                f"generator width must be in [1, step]: width {width.tolist()}, "
                f"step {step.tolist()}",
                gen.loc,
            )
        return lo, hi, step, width

    def _bind_index(self, gen: ast.Generator, iv: tuple[int, ...], env) -> dict:
        child = dict(env)
        if gen.destructured:
            for name, val in zip(gen.vars, iv):
                child[name] = int(val)
        else:
            child[gen.var] = np.asarray(iv, dtype=np.int32)
        return child

    def _cell_value(self, gen: ast.Generator, iv, env, depth) -> Value:
        child = self._bind_index(gen, iv, env)
        self._exec_block(gen.body, child, depth)
        return self._eval(gen.expr, child, depth)

    def _first_cell_value(self, e, frame_shape, env, depth):
        """Cell value at the first enumerated index (shape/dtype probe)."""
        for gen in e.generators:
            lo, hi, step, width = self._resolve_bounds(gen, frame_shape, env, depth, e.loc)
            for iv in _enumerate_indices(lo, hi, step, width):
                return self._cell_value(gen, iv, env, depth)
        return None

    @staticmethod
    def _cell_dtype(probe: Value) -> np.dtype:
        if isinstance(probe, np.ndarray):
            return probe.dtype
        if isinstance(probe, bool):
            return np.dtype(bool)
        if isinstance(probe, int):
            return np.dtype("int32")
        return np.dtype("float64")

    def _run_generator(self, gen, e, frame_shape, result, seen, env, depth) -> None:
        lo, hi, step, width = self._resolve_bounds(gen, frame_shape, env, depth, e.loc)
        if lo.size != len(frame_shape):
            raise SacRuntimeError(
                f"generator rank {lo.size} differs from frame rank {len(frame_shape)}",
                gen.loc,
            )
        # the exclusive upper bound may equal the extent; beyond is an error
        if np.any(lo < 0) or np.any(hi > np.asarray(frame_shape)):
            raise SacRuntimeError(
                f"generator range [{lo.tolist()}, {hi.tolist()}) outside frame "
                f"shape {tuple(frame_shape)}",
                gen.loc,
            )
        for iv in _enumerate_indices(lo, hi, step, width):
            if seen is not None:
                if seen[iv]:
                    raise SacRuntimeError(
                        f"generators overlap at index {list(iv)}", gen.loc
                    )
                seen[iv] = True
            cell = self._cell_value(gen, iv, env, depth)
            expected = np.shape(result[iv])
            if shape_of(cell) != expected:
                raise SacRuntimeError(
                    f"cell shape {shape_of(cell)} does not match result cell "
                    f"shape {expected} at {list(iv)}",
                    gen.loc,
                )
            # C integer semantics: stores wrap to the result's width
            result[iv] = np.asarray(cell).astype(result.dtype, casting="unsafe")


def _enumerate_indices(lo, hi, step, width):
    """Enumerate generator indices: base points lo + k*step plus widths."""
    axes = []
    for d in range(lo.size):
        vals = []
        base = int(lo[d])
        while base < int(hi[d]):
            for w in range(int(width[d])):
                v = base + w
                if v < int(hi[d]):
                    vals.append(v)
            base += int(step[d])
        axes.append(vals)
    return product(*axes)
