"""Partial evaluation: constant folding and small-vector scalarisation.

This pass is what lets the *generic* tiler abstractions of the paper
(Figure 4/6) compile to static GPU kernels: after inlining, the tiler's
origin/fitting/paving arguments are literal arrays, so

* ``shape(in_frame)`` folds to a constant vector (from static parameter
  types or known genarray shapes),
* ``MV(CAT(paving, fitting), rep++pat)`` is scalarised into per-component
  affine expressions of the index variables,
* ``tile = genarray(out_pattern, 0); tile[0] = e; ...`` turns into a
  symbolic vector whose elements are expressions — which WITH-loop folding
  can then select from, and
* WITH-loop bounds and genarray shapes become literal vectors the CUDA
  backend can translate into static launch index spaces.

The abstract domain tracks, per variable: a fully known value, a symbolic
vector of scalar expressions, a known shape, and scalarness.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.errors import OptimisationError
from repro.ir.expr import c_div, c_mod
from repro.sac import ast
from repro.sac.builtins import BUILTINS
from repro.sac.values import BASE_DTYPES

__all__ = ["fold_program", "fold_function", "AVal"]

#: arrays up to this many elements are literalised / tracked element-wise
SMALL_ARRAY = 64


@dataclass(frozen=True)
class AVal:
    """Abstract value: what is statically known about an expression."""

    value: object | None = None  # fully known NumPy/Python value
    elements: tuple | None = None  # symbolic vector elements (ast.Expr)
    shape: tuple[int, ...] | None = None  # known shape
    scalar: bool | None = None  # known scalarness

    @staticmethod
    def const(v) -> "AVal":
        arr = np.asarray(v)
        return AVal(value=v, shape=arr.shape, scalar=arr.ndim == 0)

    @staticmethod
    def vec(elements) -> "AVal":
        return AVal(elements=tuple(elements), shape=(len(elements),), scalar=False)

    @staticmethod
    def shaped(shape) -> "AVal":
        shape = tuple(int(s) for s in shape)
        return AVal(shape=shape, scalar=len(shape) == 0)

    @staticmethod
    def scalar_unknown() -> "AVal":
        return AVal(scalar=True, shape=())

    @staticmethod
    def top() -> "AVal":
        return AVal()

_TOP = AVal.top()


def _literal(value, loc) -> ast.Expr | None:
    """Re-literalise a known value as an AST expression (None if too big)."""
    if isinstance(value, (bool, np.bool_)):
        return ast.BoolLit(value=bool(value), loc=loc)
    if isinstance(value, (int, np.integer)):
        return ast.IntLit(value=int(value), loc=loc)
    if isinstance(value, (float, np.floating)):
        return ast.FloatLit(value=float(value), loc=loc)
    arr = np.asarray(value)
    if arr.ndim == 0:
        return _literal(arr[()], loc)
    if arr.size > SMALL_ARRAY:
        return None
    return ast.ArrayLit(
        elements=tuple(_literal(row, loc) for row in arr), loc=loc
    )


def _is_const_zero(aval: AVal) -> bool:
    return aval.value is not None and np.ndim(aval.value) == 0 and aval.value == 0


def _is_const_one(aval: AVal) -> bool:
    return aval.value is not None and np.ndim(aval.value) == 0 and aval.value == 1


class _Folder:
    def __init__(self, env: dict[str, AVal], copies: dict[str, str] | None = None):
        self.env = env
        #: flow-sensitive copy propagation: name -> the variable it is a
        #: plain copy of (inlining leaves long ``x = y`` chains behind,
        #: which would otherwise hide producers from WITH-loop folding)
        self.copies: dict[str, str] = dict(copies or {})

    def _invalidate_copies(self, name: str) -> None:
        self.copies.pop(name, None)
        for k in [k for k, v in self.copies.items() if v == name]:
            del self.copies[k]

    # -- expression folding ----------------------------------------------------

    def fold(self, e: ast.Expr) -> tuple[ast.Expr, AVal]:
        if isinstance(e, ast.IntLit):
            return e, AVal.const(e.value)
        if isinstance(e, ast.FloatLit):
            return e, AVal.const(e.value)
        if isinstance(e, ast.BoolLit):
            return e, AVal.const(e.value)
        if isinstance(e, ast.Dot):
            return e, _TOP
        if isinstance(e, ast.Var):
            aval = self.env.get(e.name, _TOP)
            if aval.value is not None:
                lit = _literal(aval.value, e.loc)
                if lit is not None:
                    return lit, aval
            if e.name in self.copies:
                return ast.Var(name=self.copies[e.name], loc=e.loc), aval
            return e, aval
        if isinstance(e, ast.ArrayLit):
            return self._fold_array_lit(e)
        if isinstance(e, ast.BinExpr):
            return self._fold_binexpr(e)
        if isinstance(e, ast.UnExpr):
            return self._fold_unexpr(e)
        if isinstance(e, ast.IndexExpr):
            return self._fold_index(e)
        if isinstance(e, ast.Call):
            return self._fold_call(e)
        if isinstance(e, ast.WithLoop):
            return self._fold_withloop(e)
        raise OptimisationError(f"cannot fold {type(e).__name__}")

    def _fold_array_lit(self, e: ast.ArrayLit):
        folded = [self.fold(x) for x in e.elements]
        exprs = tuple(f for f, _ in folded)
        out = replace(e, elements=exprs)
        avals = [a for _, a in folded]
        if avals and all(a.value is not None for a in avals):
            shapes = {np.shape(a.value) for a in avals}
            if len(shapes) == 1:  # uniform rows: scalars or nested arrays
                arr = np.asarray([np.asarray(a.value) for a in avals])
                if np.issubdtype(arr.dtype, np.integer):
                    arr = arr.astype(np.int32)
                return out, AVal.const(arr)
        if all(a.scalar for a in avals):
            return out, AVal.vec(exprs)
        # vector of vectors with symbolic entries — only the extent is known
        return out, AVal(shape=None, scalar=False)

    def _vector_form(self, expr: ast.Expr, aval: AVal) -> tuple | None:
        """Elements of a known-length vector as scalar expressions."""
        if aval.elements is not None:
            return aval.elements
        if (
            aval.value is not None
            and np.ndim(aval.value) == 1
            and np.asarray(aval.value).size <= SMALL_ARRAY
        ):
            return tuple(_literal(v, expr.loc) for v in np.asarray(aval.value))
        if (
            isinstance(expr, ast.Var)
            and aval.shape is not None
            and len(aval.shape) == 1
            and aval.shape[0] <= SMALL_ARRAY
        ):
            # an opaque index vector of known length (e.g. a generator
            # variable): expand to component selections
            return tuple(
                ast.IndexExpr(
                    array=expr,
                    index=ast.ArrayLit(elements=(ast.IntLit(value=k, loc=expr.loc),),
                                       loc=expr.loc),
                    loc=expr.loc,
                )
                for k in range(aval.shape[0])
            )
        return None

    def _fold_binexpr(self, e: ast.BinExpr):
        lhs, la = self.fold(e.lhs)
        rhs, ra = self.fold(e.rhs)
        op = e.op

        # fully constant, unless it divides by zero: the program may never
        # run that division (``false && 1 / 0 == 0`` is valid)
        zero_divisor = op in ("/", "%") and _is_const_zero(ra)
        if la.value is not None and ra.value is not None and not zero_divisor:
            val = _apply_op(op, la.value, ra.value, e.loc)
            lit = _literal(val, e.loc)
            if lit is not None:
                return lit, AVal.const(val)

        if op == "++":
            lv = self._vector_form(lhs, la)
            rv = self._vector_form(rhs, ra)
            if lv is not None and rv is not None:
                out = ast.ArrayLit(elements=lv + rv, loc=e.loc)
                return out, AVal.vec(lv + rv)
            return replace(e, lhs=lhs, rhs=rhs), _TOP

        # scalar identities
        if la.scalar and ra.scalar:
            if op == "+" and _is_const_zero(la):
                return rhs, ra
            if op in ("+", "-") and _is_const_zero(ra):
                return lhs, la
            if op == "*" and _is_const_one(la):
                return rhs, ra
            if op in ("*", "/") and _is_const_one(ra):
                return lhs, la
            if op == "*" and (_is_const_zero(la) or _is_const_zero(ra)):
                return ast.IntLit(value=0, loc=e.loc), AVal.const(0)
            return replace(e, lhs=lhs, rhs=rhs), AVal.scalar_unknown()

        # element-wise over symbolic vectors
        if op in ("+", "-", "*", "/", "%"):
            lv = self._vector_form(lhs, la)
            rv = self._vector_form(rhs, ra)
            if lv is not None and rv is not None and len(lv) == len(rv):
                elems = tuple(
                    self.fold(ast.BinExpr(op=op, lhs=a, rhs=b, loc=e.loc))[0]
                    for a, b in zip(lv, rv)
                )
                return ast.ArrayLit(elements=elems, loc=e.loc), AVal.vec(elems)
            if lv is not None and ra.scalar:
                elems = tuple(
                    self.fold(ast.BinExpr(op=op, lhs=a, rhs=rhs, loc=e.loc))[0]
                    for a in lv
                )
                return ast.ArrayLit(elements=elems, loc=e.loc), AVal.vec(elems)
            if rv is not None and la.scalar:
                elems = tuple(
                    self.fold(ast.BinExpr(op=op, lhs=lhs, rhs=b, loc=e.loc))[0]
                    for b in rv
                )
                return ast.ArrayLit(elements=elems, loc=e.loc), AVal.vec(elems)

        out_aval = _TOP
        if op in ("<", "<=", ">", ">=", "==", "!=", "&&", "||"):
            if la.scalar and ra.scalar:
                out_aval = AVal.scalar_unknown()
        elif la.shape is not None and ra.scalar:
            out_aval = AVal.shaped(la.shape)
        elif ra.shape is not None and la.scalar:
            out_aval = AVal.shaped(ra.shape)
        elif la.shape is not None and la.shape == ra.shape:
            out_aval = AVal.shaped(la.shape)
        return replace(e, lhs=lhs, rhs=rhs), out_aval

    def _fold_unexpr(self, e: ast.UnExpr):
        operand, aval = self.fold(e.operand)
        if aval.value is not None:
            val = np.negative(aval.value) if e.op == "-" else np.logical_not(aval.value)
            lit = _literal(val, e.loc)
            if lit is not None:
                return lit, AVal.const(val)
        if isinstance(operand, ast.UnExpr) and operand.op == e.op:
            inner, ia = self.fold(operand.operand)
            return inner, ia
        return replace(e, operand=operand), AVal(scalar=aval.scalar, shape=aval.shape)

    def _const_index(self, aval: AVal) -> tuple[int, ...] | None:
        if aval.value is None:
            return None
        v = np.asarray(aval.value)
        if v.ndim == 0:
            return (int(v),)
        if v.ndim == 1 and np.issubdtype(v.dtype, np.integer):
            return tuple(int(x) for x in v)
        return None

    def _fold_index(self, e: ast.IndexExpr):
        array, aa = self.fold(e.array)
        index, ia = self.fold(e.index)
        idx = self._const_index(ia)
        if idx is not None:
            # full constant selection
            if aa.value is not None:
                v = np.asarray(aa.value)
                if len(idx) <= v.ndim and all(
                    0 <= i < s for i, s in zip(idx, v.shape)
                ):
                    sel = v[idx]
                    lit = _literal(sel, e.loc)
                    if lit is not None:
                        return lit, AVal.const(sel)
            # symbolic vector element
            if aa.elements is not None and len(idx) == 1:
                if 0 <= idx[0] < len(aa.elements):
                    return aa.elements[idx[0]], AVal.scalar_unknown()
            # selection from a nested array literal
            if isinstance(array, ast.ArrayLit):
                cur: ast.Expr = array
                consumed = 0
                for i in idx:
                    if isinstance(cur, ast.ArrayLit) and 0 <= i < len(cur.elements):
                        cur = cur.elements[i]
                        consumed += 1
                    else:
                        break
                if consumed == len(idx):
                    return self.fold(cur)
        # canonicalise: index vectors of known length become ArrayLits of
        # scalar component expressions (what WLF substitutes on); scalar
        # indices become singleton vectors (same SaC selection semantics)
        if idx is None and not isinstance(index, ast.ArrayLit):
            vf = self._vector_form(index, ia)
            if vf is not None:
                index = ast.ArrayLit(elements=vf, loc=index.loc)
            elif ia.scalar:
                index = ast.ArrayLit(elements=(index,), loc=index.loc)
        out = replace(e, array=array, index=index)
        # scalarness: selecting with a full-rank index yields a scalar
        if aa.shape is not None and ia.shape is not None and len(ia.shape) == 1:
            if ia.shape[0] == len(aa.shape):
                return out, AVal.scalar_unknown()
            if ia.shape[0] < len(aa.shape):
                return out, AVal.shaped(aa.shape[ia.shape[0]:])
        if aa.shape is not None and ia.scalar and len(aa.shape) >= 1:
            if len(aa.shape) == 1:
                return out, AVal.scalar_unknown()
            return out, AVal.shaped(aa.shape[1:])
        return out, _TOP

    def _fold_call(self, e: ast.Call):
        folded = [self.fold(a) for a in e.args]
        exprs = [f for f, _ in folded]
        avals = [a for _, a in folded]
        out = replace(e, args=tuple(exprs))
        name = e.name

        if name == "shape" and len(avals) == 1:
            if avals[0].shape is not None:
                val = np.asarray(avals[0].shape, dtype=np.int32)
                lit = _literal(val, e.loc)
                if lit is not None:
                    return lit, AVal.const(val)
            return out, _TOP
        if name == "dim" and len(avals) == 1 and avals[0].shape is not None:
            return (
                ast.IntLit(value=len(avals[0].shape), loc=e.loc),
                AVal.const(len(avals[0].shape)),
            )
        if name == "genarray" and len(avals) in (1, 2):
            shp = self._const_index(avals[0])
            default = avals[1].value if len(avals) == 2 else 0
            if shp is not None and default is not None and np.ndim(default) == 0:
                size = int(np.prod(shp))
                if 0 < size <= SMALL_ARRAY:
                    if isinstance(default, (int, np.integer)):
                        arr = np.full(shp, int(default), dtype=np.int32)
                    else:
                        arr = np.full(shp, default)
                    lit = _literal(arr, e.loc)
                    if lit is not None:
                        return lit, AVal.const(arr)
                if size > 0:
                    return out, AVal.shaped(shp)
            return out, _TOP
        if name == "CAT" and len(folded) == 2:
            lv = self._vector_form(exprs[0], avals[0])
            rv = self._vector_form(exprs[1], avals[1])
            if lv is not None and rv is not None:
                elems = lv + rv
                return ast.ArrayLit(elements=elems, loc=e.loc), AVal.vec(elems)
            if avals[0].value is not None and avals[1].value is not None:
                val = BUILTINS["CAT"][0](avals[0].value, avals[1].value)
                lit = _literal(val, e.loc)
                if lit is not None:
                    return lit, AVal.const(val)
            return out, _TOP
        if name == "MV" and len(folded) == 2:
            mat = avals[0].value
            vec = self._vector_form(exprs[1], avals[1])
            if mat is not None and np.ndim(mat) == 2 and vec is not None:
                m = np.asarray(mat)
                if m.shape[0] == len(vec):
                    cols = [
                        [(m[k, d], vec[k]) for k in range(m.shape[0])]
                        for d in range(m.shape[1])
                    ]
                elif m.shape[1] == len(vec):
                    cols = [
                        [(m[d, k], vec[k]) for k in range(m.shape[1])]
                        for d in range(m.shape[0])
                    ]
                else:
                    raise OptimisationError(
                        f"MV shape mismatch: {m.shape} x {len(vec)}"
                    )
                elems = tuple(self._affine_sum(terms, e.loc) for terms in cols)
                return ast.ArrayLit(elements=elems, loc=e.loc), AVal.vec(elems)
            return out, _TOP
        if name in BUILTINS and all(a.value is not None for a in avals):
            fn, arity = BUILTINS[name]
            if len(avals) == arity:
                val = fn(*[a.value for a in avals])
                lit = _literal(val, e.loc)
                if lit is not None:
                    return lit, AVal.const(val)
        return out, _TOP

    def _affine_sum(self, terms, loc) -> ast.Expr:
        """Fold sum(coef * expr) dropping zero and one coefficients."""
        acc: ast.Expr | None = None
        for coef, expr in terms:
            c = int(coef)
            if c == 0:
                continue
            if c == 1:
                term = expr
            else:
                term = self.fold(
                    ast.BinExpr(op="*", lhs=ast.IntLit(value=c, loc=loc), rhs=expr, loc=loc)
                )[0]
            acc = term if acc is None else ast.BinExpr(op="+", lhs=acc, rhs=term, loc=loc)
        return acc if acc is not None else ast.IntLit(value=0, loc=loc)

    # -- WITH-loops ---------------------------------------------------------------

    def _generator_rank(self, gen: ast.Generator, lo_aval, hi_aval, frame_rank):
        if gen.destructured:
            return len(gen.vars)
        for aval in (lo_aval, hi_aval):
            if aval is not None and aval.shape is not None and len(aval.shape) == 1:
                return aval.shape[0]
        return frame_rank

    @staticmethod
    def _resolve_dots(gen: ast.Generator, frame_shape) -> ast.Generator:
        loc = gen.loc
        lower, upper = gen.lower, gen.upper
        if isinstance(lower.expr, ast.Dot):
            base = 0 if lower.op == "<=" else -1
            lower = replace(
                lower,
                expr=ast.ArrayLit(
                    elements=tuple(ast.IntLit(value=base, loc=loc) for _ in frame_shape),
                    loc=loc,
                ),
            )
        if isinstance(upper.expr, ast.Dot):
            off = -1 if upper.op == "<=" else 0
            upper = replace(
                upper,
                expr=ast.ArrayLit(
                    elements=tuple(
                        ast.IntLit(value=s + off, loc=loc) for s in frame_shape
                    ),
                    loc=loc,
                ),
            )
        return replace(gen, lower=lower, upper=upper)

    def _fold_withloop(self, e: ast.WithLoop):
        op = e.operation
        frame_shape: tuple[int, ...] | None = None
        cell_shape: tuple[int, ...] | None = None
        if isinstance(op, ast.GenArray):
            shape_e, shape_a = self.fold(op.shape)
            default_e, default_a = (None, None)
            if op.default is not None:
                default_e, default_a = self.fold(op.default)
            op = replace(op, shape=shape_e, default=default_e)
            shp = self._const_index(shape_a)
            if shp is not None:
                frame_shape = shp
            if op.default is not None and default_a is not None:
                cell_shape = default_a.shape
        elif isinstance(op, ast.ModArray):
            arr_e, arr_a = self.fold(op.array)
            op = replace(op, array=arr_e)
            if arr_a.shape is not None:
                frame_shape = arr_a.shape
                cell_shape = ()
        elif isinstance(op, ast.Fold):
            neutral_e, _ = self.fold(op.neutral)
            op = replace(op, neutral=neutral_e)

        frame_rank = None if frame_shape is None else len(frame_shape)
        gens = []
        first_cell_aval: AVal | None = None
        for gen in e.generators:
            # resolve '.' bounds against a known frame shape so that WLF and
            # the CUDA backend only ever see literal bounds
            if frame_shape is not None:
                gen = self._resolve_dots(gen, frame_shape)
            lo_e, lo_a = self.fold(gen.lower.expr)
            hi_e, hi_a = self.fold(gen.upper.expr)
            step_e = width_e = None
            if gen.step is not None:
                step_e, _ = self.fold(gen.step)
            if gen.width is not None:
                width_e, _ = self.fold(gen.width)
            rank = self._generator_rank(
                gen,
                None if isinstance(gen.lower.expr, ast.Dot) else lo_a,
                None if isinstance(gen.upper.expr, ast.Dot) else hi_a,
                frame_rank,
            )
            child = dict(self.env)
            child_copies = {
                k: v
                for k, v in self.copies.items()
                if k not in gen.vars and v not in gen.vars
            }
            if gen.destructured:
                for v in gen.vars:
                    child[v] = AVal.scalar_unknown()
            elif rank is not None:
                child[gen.var] = AVal.shaped((rank,))
            else:
                child[gen.var] = _TOP
            sub = _Folder(child, child_copies)
            body = sub.fold_stmts(gen.body)
            expr_f, expr_a = sub.fold(gen.expr)
            # expose vector cells structurally (the backend stores each
            # component; DCE then drops the now-dead vector temporary)
            if expr_a.elements is not None and not isinstance(expr_f, ast.ArrayLit):
                expr_f = ast.ArrayLit(elements=expr_a.elements, loc=gen.loc)
            if first_cell_aval is None:
                first_cell_aval = expr_a
            gens.append(
                replace(
                    gen,
                    lower=replace(gen.lower, expr=lo_e),
                    upper=replace(gen.upper, expr=hi_e),
                    step=step_e,
                    width=width_e,
                    body=body,
                    expr=expr_f,
                )
            )

        out = replace(e, generators=tuple(gens), operation=op)
        if isinstance(op, ast.Fold):
            return out, AVal.scalar_unknown()
        if frame_shape is not None:
            if cell_shape is None and first_cell_aval is not None:
                cell_shape = first_cell_aval.shape if not first_cell_aval.scalar else ()
                if first_cell_aval.scalar:
                    cell_shape = ()
            if cell_shape is not None:
                return out, AVal.shaped(tuple(frame_shape) + tuple(cell_shape))
        return out, _TOP

    # -- statements ------------------------------------------------------------------

    def fold_stmts(self, stmts) -> tuple[ast.Stmt, ...]:
        out: list[ast.Stmt] = []
        for s in stmts:
            out.extend(self.fold_stmt(s))
        return tuple(out)

    def fold_stmt(self, s: ast.Stmt) -> list[ast.Stmt]:
        if isinstance(s, ast.Assign):
            value, aval = self.fold(s.value)
            self.env[s.name] = aval
            self._invalidate_copies(s.name)
            if isinstance(value, ast.Var) and value.name != s.name:
                self.copies[s.name] = value.name
            return [replace(s, value=value)]
        if isinstance(s, ast.IndexedAssign):
            self._invalidate_copies(s.name)
            index, ia = self.fold(s.index)
            value, va = self.fold(s.value)
            # canonicalise the index to a vector of scalar components (the
            # host loop-nest vectoriser consumes this form)
            if self._const_index(ia) is None and not isinstance(index, ast.ArrayLit):
                vf = self._vector_form(index, ia)
                if vf is not None:
                    index = ast.ArrayLit(elements=vf, loc=index.loc)
            base = self.env.get(s.name, _TOP)
            idx = self._const_index(ia)
            # known-content single-cell updates turn into plain assignments
            if idx is not None and len(idx) == 1 and va.scalar:
                if (
                    base.value is not None
                    and va.value is not None
                    and np.ndim(base.value) == 1
                    and 0 <= idx[0] < np.asarray(base.value).size
                ):
                    arr = np.array(base.value, copy=True)
                    arr[idx[0]] = va.value
                    self.env[s.name] = AVal.const(arr)
                    lit = _literal(arr, s.loc)
                    if lit is not None:
                        return [ast.Assign(name=s.name, value=lit, loc=s.loc)]
                # symbolic elements: either tracked already, or expandable
                # from a small constant vector
                elems_form = base.elements
                if (
                    elems_form is None
                    and base.value is not None
                    and np.ndim(base.value) == 1
                    and np.asarray(base.value).size <= SMALL_ARRAY
                ):
                    elems_form = tuple(
                        _literal(v, s.loc) for v in np.asarray(base.value)
                    )
                if elems_form is not None and 0 <= idx[0] < len(elems_form):
                    elems = list(elems_form)
                    elems[idx[0]] = value
                    self.env[s.name] = AVal.vec(tuple(elems))
                    return [
                        ast.Assign(
                            name=s.name,
                            value=ast.ArrayLit(elements=tuple(elems), loc=s.loc),
                            loc=s.loc,
                        )
                    ]
            # otherwise: content unknown from here on, but shape survives
            self.env[s.name] = (
                AVal.shaped(base.shape) if base.shape is not None else _TOP
            )
            return [replace(s, index=index, value=value)]
        if isinstance(s, ast.Block):
            return [replace(s, stmts=self.fold_stmts(s.stmts))]
        if isinstance(s, ast.ForLoop):
            return [self._fold_for(s)]
        if isinstance(s, ast.IfElse):
            cond, ca = self.fold(s.cond)
            if ca.value is not None and np.ndim(ca.value) == 0:
                branch = s.then if bool(ca.value) else s.orelse
                return list(self.fold_stmts(branch))
            then_env = dict(self.env)
            else_env = dict(self.env)
            then_folder = _Folder(then_env, dict(self.copies))
            else_folder = _Folder(else_env, dict(self.copies))
            then = then_folder.fold_stmts(s.then)
            orelse = else_folder.fold_stmts(s.orelse)
            self._join(then_env, else_env)
            self.copies = {
                k: v
                for k, v in then_folder.copies.items()
                if else_folder.copies.get(k) == v
            }
            return [replace(s, cond=cond, then=then, orelse=orelse)]
        if isinstance(s, ast.Return):
            if s.value is None:
                return [s]
            value, _ = self.fold(s.value)
            return [replace(s, value=value)]
        raise OptimisationError(f"cannot fold statement {type(s).__name__}")

    def _fold_for(self, s: ast.ForLoop) -> ast.Stmt:
        from repro.sac.opt.rewrite import assigned_names_stmts

        init = self.fold_stmt(s.init)[0]
        # everything assigned inside the loop becomes unknown (we keep the
        # shape when an array variable is only updated element-wise)
        mutated = assigned_names_stmts(s.body) | assigned_names_stmts(
            (s.init, s.update)
        )
        for name in mutated:
            base = self.env.get(name, _TOP)
            self.env[name] = (
                AVal.shaped(base.shape)
                if base.shape is not None and not base.scalar
                else (AVal.scalar_unknown() if base.scalar else _TOP)
            )
            self._invalidate_copies(name)
        cond, _ = self.fold(s.cond)
        update = self.fold_stmt(s.update)[0]
        body = _Folder(dict(self.env), dict(self.copies)).fold_stmts(s.body)
        return replace(s, init=init, cond=cond, update=update, body=body)

    def _join(self, a: dict[str, AVal], b: dict[str, AVal]) -> None:
        """Merge two branch environments into self.env (meet over paths)."""
        names = set(a) | set(b)
        for n in names:
            va = a.get(n, _TOP)
            vb = b.get(n, _TOP)
            if va == vb:
                self.env[n] = va
            elif va.shape is not None and va.shape == vb.shape:
                self.env[n] = AVal.shaped(va.shape)
            else:
                self.env[n] = _TOP


def _apply_op(op: str, a, b, loc):
    try:
        if op == "+":
            return np.add(a, b)
        if op == "-":
            return np.subtract(a, b)
        if op == "*":
            return np.multiply(a, b)
        if op == "/":
            return c_div(np.asarray(a), np.asarray(b))
        if op == "%":
            return c_mod(np.asarray(a), np.asarray(b))
        if op == "<":
            return np.less(a, b)
        if op == "<=":
            return np.less_equal(a, b)
        if op == ">":
            return np.greater(a, b)
        if op == ">=":
            return np.greater_equal(a, b)
        if op == "==":
            return np.equal(a, b)
        if op == "!=":
            return np.not_equal(a, b)
        if op == "&&":
            return np.logical_and(a, b)
        if op == "||":
            return np.logical_or(a, b)
        if op == "++":
            return BUILTINS["CAT"][0](a, b)
    except (ValueError, ZeroDivisionError) as err:
        raise OptimisationError(f"constant folding failed at {loc}: {err}") from None
    raise OptimisationError(f"unknown operator {op!r} at {loc}")


def _param_aval(p: ast.Param) -> AVal:
    t = p.type
    if t.base not in BASE_DTYPES and t.base != "void":
        return _TOP
    if t.is_scalar:
        return AVal.scalar_unknown()
    if t.is_static:
        return AVal.shaped(tuple(d for d in t.dims))  # type: ignore[misc]
    return _TOP


def fold_function(fun: ast.FunDef) -> ast.FunDef:
    env = {p.name: _param_aval(p) for p in fun.params}
    folder = _Folder(env)
    return replace(fun, body=folder.fold_stmts(fun.body))


def fold_program(program: ast.Program) -> ast.Program:
    return replace(
        program, functions=tuple(fold_function(f) for f in program.functions)
    )
