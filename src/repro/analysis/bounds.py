"""Interval-analysis bounds checker for kernel array accesses.

Proves every ``Read``/``Store`` index of a kernel in-bounds against the
declared array shapes, or emits a diagnostic with the offending interval.

Two phases per kernel:

1. **Interval abstraction** — every scalar expression is mapped to an
   integer :class:`~repro.analysis.intervals.Interval`; ``ThreadIdx(d)``
   ranges over the actual first/last index values of the launch space
   (honouring ``step``), C division/modulo use the truncating semantics of
   the evaluator.  This proves the affine and modulo-wrapped indices both
   backends emit (``(o + F·i) mod shape``, the wrap-split bulk kernels).
2. **Numeric fallback** — accesses the interval domain cannot prove (lost
   correlations like ``x/6 - x%6``) are evaluated *exactly* over the whole
   index space with NumPy (the idiom of :mod:`repro.sac.backend.split`),
   unless the index is data-dependent (contains a ``Read``), in which case
   a *cannot-prove* diagnostic is emitted instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.intervals import TOP, Interval
from repro.errors import IRError
from repro.ir.expr import (
    BinOp,
    Const,
    Expr,
    LocalRef,
    ParamRef,
    Read,
    Select,
    ThreadIdx,
    UnOp,
    c_div,
    c_mod,
)
from repro.ir.kernel import Kernel
from repro.ir.stmt import Assign, For, Store

__all__ = ["AccessCheck", "check_kernel_bounds"]

#: grids larger than this skip the exact numeric fallback
_NUMERIC_LIMIT = 1 << 26


@dataclass(frozen=True)
class AccessCheck:
    """Result of checking one index component of one access site."""

    kind: str  # "read" | "store"
    array: str
    dim: int
    extent: int
    proven: bool
    interval: Interval | None  # abstract range (None when unanalysable)
    exact: tuple[int, int] | None  # numeric min/max (None when data-dependent)

    @property
    def out_of_bounds(self) -> bool:
        return self.exact is not None and (
            self.exact[0] < 0 or self.exact[1] >= self.extent
        )


class _Unanalysable(Exception):
    """The expression depends on array contents (or an unknown construct)."""


# -- interval evaluation -----------------------------------------------------


def _interval_of(e: Expr, env: dict[str, Interval]) -> Interval:
    if isinstance(e, Const):
        return Interval.point(e.value)
    if isinstance(e, ThreadIdx):
        return env[f"@iv{e.dim}"]
    if isinstance(e, LocalRef):
        return env.get(e.name, TOP)
    if isinstance(e, ParamRef):
        return env.get(f"@param:{e.name}", TOP)
    if isinstance(e, Read):
        return TOP
    if isinstance(e, Select):
        return _interval_of(e.if_true, env).union(_interval_of(e.if_false, env))
    if isinstance(e, UnOp):
        v = _interval_of(e.operand, env)
        if e.op == "-":
            return -v
        if e.op == "abs":
            return v.abs()
        return Interval(0, 1)  # "!": boolean
    if isinstance(e, BinOp):
        lhs = _interval_of(e.lhs, env)
        rhs = _interval_of(e.rhs, env)
        if e.op == "+":
            return lhs + rhs
        if e.op == "-":
            return lhs - rhs
        if e.op == "*":
            return lhs * rhs
        if e.op == "/":
            return lhs.c_div(rhs)
        if e.op == "%":
            return lhs.c_mod(rhs)
        if e.op == "min":
            return lhs.min(rhs)
        if e.op == "max":
            return lhs.max(rhs)
        return Interval(0, 1)  # comparisons / logicals
    return TOP


# -- exact numeric evaluation -------------------------------------------------


def _numeric_of(e: Expr, idx_values, env: dict):
    """Evaluate an index expression over the whole space; poison on Reads."""
    if isinstance(e, Const):
        return np.asarray(e.value)
    if isinstance(e, ThreadIdx):
        return idx_values[e.dim]
    if isinstance(e, LocalRef):
        v = env.get(e.name, None)
        if v is None:
            raise _Unanalysable(e.name)
        return v
    if isinstance(e, ParamRef):
        v = env.get(f"@param:{e.name}", None)
        if v is None:
            raise _Unanalysable(e.name)
        return np.asarray(v)
    if isinstance(e, Read):
        raise _Unanalysable(e.array)
    if isinstance(e, Select):
        cond = _numeric_of(e.cond, idx_values, env)
        return np.where(
            cond,
            _numeric_of(e.if_true, idx_values, env),
            _numeric_of(e.if_false, idx_values, env),
        )
    if isinstance(e, UnOp):
        v = _numeric_of(e.operand, idx_values, env)
        if e.op == "-":
            return -v
        if e.op == "abs":
            return np.abs(v)
        return np.logical_not(v)
    if isinstance(e, BinOp):
        lhs = _numeric_of(e.lhs, idx_values, env)
        rhs = _numeric_of(e.rhs, idx_values, env)
        fns = {
            "+": np.add, "-": np.subtract, "*": np.multiply,
            "/": c_div, "%": c_mod,
            "min": np.minimum, "max": np.maximum,
            "<": np.less, "<=": np.less_equal,
            ">": np.greater, ">=": np.greater_equal,
            "==": np.equal, "!=": np.not_equal,
            "&&": np.logical_and, "||": np.logical_or,
        }
        return fns[e.op](lhs, rhs)
    raise _Unanalysable(type(e).__name__)


# -- the checker ---------------------------------------------------------------


class _BoundsWalk:
    """One traversal of a kernel body under one abstract/numeric domain."""

    def __init__(self, kernel: Kernel, scalars: dict[str, int | float]):
        self.kernel = kernel
        self.shapes = {a.name: a.shape for a in kernel.arrays}
        self.scalars = dict(scalars)
        self.sites: dict[int, AccessCheck] = {}
        self._site_counter = 0

    # interval phase -------------------------------------------------------

    def run_intervals(self) -> None:
        space = self.kernel.space
        env: dict[str, Interval] = {}
        for d in range(space.rank):
            last = space.lower[d] + (space.extent[d] - 1) * space.step[d]
            env[f"@iv{d}"] = Interval(space.lower[d], last)
        for name, value in self.scalars.items():
            env[f"@param:{name}"] = Interval.point(value)
        self._site_counter = 0
        self._walk_intervals(self.kernel.body, env)

    def _walk_intervals(self, stmts, env: dict[str, Interval]) -> None:
        for s in stmts:
            if isinstance(s, Assign):
                self._scan_exprs_intervals([s.value], env)
                env[s.name] = _interval_of(s.value, env)
            elif isinstance(s, For):
                if s.trip_count > 0:
                    env[s.var] = Interval(s.start, s.stop - 1)
                    self._walk_intervals(s.body, env)
            elif isinstance(s, Store):
                self._check_access_intervals("store", s.array, s.index, env)
                self._scan_exprs_intervals(list(s.index) + [s.value], env)

    def _scan_exprs_intervals(self, roots, env) -> None:
        """Check nested Reads appearing anywhere in the given expressions."""
        for root in roots:
            for e in _walk_reads(root):
                self._check_access_intervals("read", e.array, e.index, env)

    def _check_access_intervals(self, kind, array, index, env) -> None:
        shape = self.shapes.get(array)
        if shape is None or len(index) != len(shape):
            return  # validate_kernel's domain
        for d, comp in enumerate(index):
            site = self._site_counter
            self._site_counter += 1
            iv = _interval_of(comp, env)
            proven = Interval(0, shape[d] - 1).contains(iv)
            self.sites[site] = AccessCheck(
                kind=kind,
                array=array,
                dim=d,
                extent=shape[d],
                proven=proven,
                interval=iv if iv.is_bounded else None,
                exact=None,
            )

    # numeric phase --------------------------------------------------------

    def run_numeric(self) -> None:
        space = self.kernel.space
        if space.is_empty() or space.size > _NUMERIC_LIMIT:
            return
        idx_values = space.index_values()
        env: dict = {f"@param:{k}": v for k, v in self.scalars.items()}
        self._site_counter = 0
        self._walk_numeric(self.kernel.body, idx_values, env)

    def _walk_numeric(self, stmts, idx_values, env) -> None:
        for s in stmts:
            if isinstance(s, Assign):
                self._scan_exprs_numeric([s.value], idx_values, env)
                try:
                    env[s.name] = _numeric_of(s.value, idx_values, env)
                except (_Unanalysable, IRError):  # IRError: a scalar zero divisor
                    env[s.name] = None  # poisoned: depends on memory
            elif isinstance(s, For):
                # the interval phase numbers the body's sites once; replay
                # every iteration over the same site ids so ranges widen
                body_start = self._site_counter
                for v in range(s.start, s.stop):
                    self._site_counter = body_start
                    env[s.var] = np.asarray(v)
                    self._walk_numeric(s.body, idx_values, env)
            elif isinstance(s, Store):
                self._check_access_numeric("store", s.array, s.index, idx_values, env)
                self._scan_exprs_numeric(list(s.index) + [s.value], idx_values, env)

    def _scan_exprs_numeric(self, roots, idx_values, env) -> None:
        for root in roots:
            for e in _walk_reads(root):
                self._check_access_numeric("read", e.array, e.index, idx_values, env)

    def _check_access_numeric(self, kind, array, index, idx_values, env) -> None:
        shape = self.shapes.get(array)
        if shape is None or len(index) != len(shape):
            return
        for comp in index:
            site = self._site_counter
            self._site_counter += 1
            prev = self.sites.get(site)
            if prev is None or prev.proven:
                continue
            try:
                val = np.asarray(_numeric_of(comp, idx_values, env))
            except (_Unanalysable, IRError):  # IRError: a scalar zero divisor
                continue  # stays data-dependent
            lo, hi = int(val.min()), int(val.max())
            if prev.exact is not None:  # For-loop revisit: widen
                lo, hi = min(lo, prev.exact[0]), max(hi, prev.exact[1])
            self.sites[site] = AccessCheck(
                kind=prev.kind,
                array=prev.array,
                dim=prev.dim,
                extent=prev.extent,
                proven=prev.proven,
                interval=prev.interval,
                exact=(lo, hi),
            )


def _walk_reads(root: Expr):
    from repro.ir.expr import walk

    for e in walk(root):
        if isinstance(e, Read):
            yield e


def check_kernel_bounds(
    kernel: Kernel,
    scalars: dict[str, int | float] | None = None,
    location: str = "",
) -> list[Diagnostic]:
    """Diagnostics for every access of ``kernel`` not provably in-bounds.

    ``scalars`` supplies launch-time scalar argument values (from
    :class:`~repro.ir.program.LaunchKernel`); without them scalar parameters
    are unbounded.
    """
    if kernel.space.is_empty():
        return []
    walkb = _BoundsWalk(kernel, scalars or {})
    walkb.run_intervals()
    if any(not c.proven for c in walkb.sites.values()):
        walkb.run_numeric()

    where = location or f"kernel {kernel.name!r}"
    out: list[Diagnostic] = []
    for check in walkb.sites.values():
        if check.proven:
            continue
        if check.exact is not None and not check.out_of_bounds:
            continue  # numerically proven in-bounds
        valid = f"[0, {check.extent - 1}]"
        code = "BOUNDS001" if check.kind == "read" else "BOUNDS002"
        if check.exact is not None:
            lo, hi = check.exact
            out.append(
                Diagnostic(
                    code=code,
                    severity="error",
                    message=(
                        f"{check.kind} of {check.array!r} dim {check.dim}: index "
                        f"range [{lo}, {hi}] exceeds {valid}"
                    ),
                    location=where,
                    hint="shrink the index space or clamp/wrap the index",
                )
            )
        else:
            shown = str(check.interval) if check.interval is not None else "unbounded"
            out.append(
                Diagnostic(
                    code="BOUNDS003",
                    severity="warning",
                    message=(
                        f"{check.kind} of {check.array!r} dim {check.dim}: cannot "
                        f"prove interval {shown} within {valid} "
                        f"(data-dependent index)"
                    ),
                    location=where,
                    hint="bound the index with min/max or a modulo",
                )
            )
    return out
