"""Per-kernel NumPy plans: the static part of a launch, worked out once.

SaC WITH-loops and ArrayOL tilers keep every array access statically
known: an index is affine or modular arithmetic over the work-item's
generator index and constants.  The interpreter in :mod:`repro.ir.evalvec`
would recompute those indices, check them and gather through them on
every launch.  A :class:`KernelPlan` does the static part once, on the
kernel's first launch, and keeps the result on the kernel object:

* every sub-expression that depends only on ``ThreadIdx``, constants and
  locals bound to such values (unrolled ``For`` variables included) is
  evaluated once over the open index grid, by the interpreter itself, so
  its values are the interpreter's by construction;
* each read and store index gets the interpreter's rank, integrality and
  bounds checks once, against the declared array shapes.  That is exact:
  :func:`~repro.ir.evalvec.evaluate_kernel` rejects a buffer whose shape
  differs from its declaration before any plan runs, and a static index
  does not depend on data;
* an index whose components are each a scalar or vary along one grid
  axis, no two along the same axis, is lowered to basic slicing (an
  arithmetic progression, descending ones included) plus ``np.take`` along
  an axis for a component that is not a progression (a ``% n`` that wraps
  in the last column).  Any other read keeps its precomputed open-grid
  fancy index.  A store is sliced only when it is injective — every grid
  axis of extent > 1 maps to exactly one component — so work-items that
  share an element keep the interpreter's row-major last-writer-wins
  scatter;
* a read of one array at one static index is performed once per launch,
  until the next store (any store: two parameters may be bound to one
  buffer), and released after its last use;
* a sliced read is a view of its buffer, not the interpreter's copy.  Only
  a local read after a later store (again any store) can tell the two
  apart, so the ``Assign`` that binds a local to a sliced read, or to a
  local bound to one through ``y = x`` chains, copies the value exactly
  when that local is read after a later store (:attr:`KernelPlan.copies`
  counts them).  Nothing else needs a copy: arithmetic, ``np.take``, fancy
  reads and ``Select`` make fresh arrays, shared reads end at every store,
  and NumPy reads a store's overlapping value before it writes, on the
  sliced and the fancy path alike.

What is left per launch is the data-dependent arithmetic, through the
interpreter's operator table, with one difference: a ``/`` or ``%`` whose
divisor is a static Python ``int`` in ``1 … 2**31 − 1`` gets it as
``np.int32``, so a C ``int`` dividend divides at int32 instead of
promoting to int64.  Quotient and remainder of a C ``int`` by a positive C
``int`` fit 32 bits, and every later operation is right modulo 2**32 or
cuts with :func:`~repro.ir.expr.c_int` first, so every stored value is the
interpreter's.  A zero or negative divisor stays a Python ``int``: at
int32, ``INT_MIN / -1`` would overflow with a warning.

A kernel with an index that depends on data or on a scalar parameter, a
construct the plan does not lower, or a failed static check gets no plan:
``evaluate_kernel`` then runs the interpreter, which raises its own error
at its own point.  Any other exception while building a plan is a bug in
this module and propagates.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import IRError
from repro.ir.evalvec import (
    _INT_MAX,
    _Evaluator,
    binary_function,
    broadcast_index,
    check_component,
    check_rank,
    stored,
    unary_function,
)
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
    c_int,
    walk,
)
from repro.ir.kernel import Kernel
from repro.ir.stmt import Assign, For, Store

__all__ = ["KernelPlan", "plan_of"]

#: a compiled step or expression: ``fn(arrays, scalars, registers)``
_Fn = Callable[[dict, dict, list], object]

#: the instance-dict key under which :func:`plan_of` keeps a kernel's plan
_PLAN = "_kernel_plan"
_UNBUILT = object()


class KernelPlan:
    """A kernel lowered to straight-line NumPy steps over its launch space.

    ``accesses`` names how each distinct read and each store was lowered:
    ``("read", "slice" | "take" | "fancy")`` or ``("store", "slice" |
    "fancy")``, in program order.  ``copies`` counts the assignments (with
    ``For`` unrolled) that copy a view, because their local is read after
    a later store.
    """

    __slots__ = ("steps", "nregisters", "accesses", "copies")

    def __init__(self, steps: tuple, nregisters: int, accesses: tuple, copies: int):
        self.steps = steps
        self.nregisters = nregisters
        self.accesses = accesses
        self.copies = copies

    def run(self, arrays: dict[str, np.ndarray], scalars: dict) -> None:
        """Execute one launch against ``arrays`` (mutated in place)."""
        registers = [None] * self.nregisters
        for step in self.steps:
            step(arrays, scalars, registers)


def plan_of(kernel: Kernel) -> KernelPlan | None:
    """The plan of ``kernel``, built on the first call; ``None`` when the
    kernel must run in the interpreter.

    The plan is kept in the kernel's instance ``__dict__``, as
    :func:`repro.runtime.cache.canonical` keeps its text, so finding it
    never hashes the kernel tree, and ``==``, ``hash``, ``repr``,
    ``canonical`` and ``dataclasses.replace`` never see it.
    """
    memo = kernel.__dict__
    plan = memo.get(_PLAN, _UNBUILT)
    if plan is _UNBUILT:
        try:
            plan = _Compiler(kernel).compile()
        except (IRError, _NoPlan):  # the interpreter reports a failed check
            plan = None
        memo[_PLAN] = plan
    return plan


class _NoPlan(Exception):
    """The kernel has a construct the plan does not lower."""


class _SharedRead:
    """One read of an array at a static index, shared by its occurrences
    until the next store; the last occurrence releases the value.  ``view``:
    the value may be a view of the buffer (a sliced read)."""

    __slots__ = ("array", "load", "register", "view", "uses")

    def __init__(self, array: str, load, register: int, view: bool):
        self.array, self.load, self.register, self.view = array, load, register, view
        self.uses = 0

    def occurrence(self) -> _Fn:
        n = self.uses
        self.uses += 1
        array, load, reg = self.array, self.load, self.register
        if n == 0:

            def first(arrays, scalars, registers):
                value = load(arrays[array])
                if self.uses > 1:
                    registers[reg] = value
                return value

            return first

        def again(arrays, scalars, registers):
            value = registers[reg]
            if n == self.uses - 1:
                registers[reg] = None
            return value

        return again


def _assign(reg: int, fn: _Fn, copy: bool = False) -> _Fn:
    """The step binding register ``reg`` to the value of ``fn``, copied
    when ``copy``."""
    if copy:

        def assign_copy(arrays, scalars, registers):
            registers[reg] = fn(arrays, scalars, registers).copy()

        return assign_copy

    def assign(arrays, scalars, registers):
        registers[reg] = fn(arrays, scalars, registers)

    return assign


class _Compiler:
    """Walks a kernel body once, in program order, with ``For`` unrolled."""

    def __init__(self, kernel: Kernel):
        self.shapes = {a.name: a.shape for a in kernel.arrays}
        self.scalar_names = {s.name for s in kernel.scalars}
        self.kernel = kernel
        self.extent = kernel.space.extent
        # evaluates static expressions; its env holds the static locals
        self.static = _Evaluator({}, {}, kernel.space)
        self.tokens: dict[str, tuple] = {}  # static local -> its binding
        self.dynamic: dict[str, int] = {}  # data-dependent local -> register
        self.nregisters = 0
        self.bindings = 0
        self.components: dict[tuple, _Component] = {}  # by (expr, bindings)
        self.reads: dict[tuple, _SharedRead] = {}
        self.steps: list[_Fn] = []
        self.accesses: list[tuple[str, str]] = []
        self.stores = 0  # stores built so far
        # local -> (step, register, value fn, stores before it) of a binding
        # whose value may be a view of a buffer and is not copied (yet)
        self.views: dict[str, tuple] = {}
        self.copies = 0

    def compile(self) -> KernelPlan:
        self.stmts(self.kernel.body)
        return KernelPlan(
            tuple(self.steps), self.nregisters, tuple(self.accesses), self.copies
        )

    def register(self) -> int:
        self.nregisters += 1
        return self.nregisters - 1

    # -- statements ----------------------------------------------------------

    def stmts(self, body) -> None:
        for s in body:
            if isinstance(s, Assign):
                self.assign(s)
            elif isinstance(s, For):
                for v in range(s.start, s.stop):
                    self.bind_static(s.var, v, ("for", v))
                    self.stmts(s.body)
            elif isinstance(s, Store):
                self.store(s)
            else:
                raise _NoPlan(f"statement {type(s).__name__}")

    def bind_static(self, name: str, value, token: tuple) -> None:
        self.static.env[name] = value
        self.tokens[name] = token
        self.dynamic.pop(name, None)
        self.views.pop(name, None)

    def assign(self, s: Assign) -> None:
        fn = self.expr(s.value)
        if fn is None:
            self.bindings += 1
            self.bind_static(s.name, self.static.eval(s.value), ("let", self.bindings))
            return
        reg = self.dynamic.get(s.name)
        if reg is None:
            reg = self.register()
        if self.may_view(s.value):
            self.views[s.name] = (len(self.steps), reg, fn, self.stores)
        else:
            self.views.pop(s.name, None)
        self.steps.append(_assign(reg, fn))
        self.static.env.pop(s.name, None)
        self.tokens.pop(s.name, None)
        self.dynamic[s.name] = reg

    def may_view(self, e: Expr) -> bool:
        """Whether the value of ``e`` may be a view of a buffer: a sliced
        read, or a local bound to one, directly or through ``y = x`` chains,
        by a binding that does not copy (yet).  Any other expression makes
        a fresh array or scalar."""
        if isinstance(e, LocalRef):
            return e.name in self.views
        return isinstance(e, Read) and self.reads[self.read_key(e)].view

    def read_local(self, name: str) -> None:
        """A read of local ``name``: after a store that came after its
        binding, the binding copies its value if that may be a view."""
        view = self.views.get(name)
        if view is None:
            return
        step, reg, fn, stores = view
        if stores < self.stores:
            del self.views[name]
            self.steps[step] = _assign(reg, fn, copy=True)
            self.copies += 1

    def store(self, s: Store) -> None:
        shape = self.shapes.get(s.array)
        if shape is None:
            raise _NoPlan(f"store to undeclared array {s.array!r}")
        comps = self.index(s.index, self.bindings_of(s.index), shape, s.array, "store")
        value = self.operand(s.value, self.expr(s.value))
        write, how = _lower_store(comps, self.extent)
        self.accesses.append(("store", how))
        self.reads.clear()
        self.stores += 1
        array = s.array

        def store(arrays, scalars, registers):
            buf = arrays[array]
            write(buf, stored(value(arrays, scalars, registers), buf))

        self.steps.append(store)

    # -- expressions ---------------------------------------------------------

    def expr(self, e: Expr) -> _Fn | None:
        """A closure computing ``e`` per launch; ``None`` when ``e`` is static."""
        if isinstance(e, (Const, ThreadIdx)):
            return None
        if isinstance(e, LocalRef):
            reg = self.dynamic.get(e.name)
            if reg is None:
                if e.name not in self.tokens:
                    raise _NoPlan(f"unbound local {e.name!r}")
                return None
            self.read_local(e.name)
            return lambda arrays, scalars, registers: registers[reg]
        if isinstance(e, ParamRef):
            if e.name not in self.scalar_names:
                raise _NoPlan(f"undeclared scalar {e.name!r}")
            name = e.name
            return lambda arrays, scalars, registers: scalars[name]
        if isinstance(e, Read):
            return self.read(e)
        if isinstance(e, BinOp):
            lhs, rhs = self.expr(e.lhs), self.expr(e.rhs)
            if lhs is None and rhs is None:
                return None
            lhs = self.operand(e.lhs, lhs)
            rhs = self.operand(e.rhs, rhs, divisor=e.op in ("/", "%"))
            fn = binary_function(e.op)
            return lambda arrays, scalars, registers: fn(
                lhs(arrays, scalars, registers), rhs(arrays, scalars, registers)
            )
        if isinstance(e, UnOp):
            operand = self.expr(e.operand)
            if operand is None:
                return None
            fn = unary_function(e.op)
            return lambda arrays, scalars, registers: fn(
                operand(arrays, scalars, registers)
            )
        if isinstance(e, Select):
            parts = [self.expr(x) for x in (e.cond, e.if_true, e.if_false)]
            if all(p is None for p in parts):
                return None
            cond, if_true, if_false = (
                self.operand(x, p) for x, p in zip((e.cond, e.if_true, e.if_false), parts)
            )
            return lambda arrays, scalars, registers: np.where(
                c_int(cond(arrays, scalars, registers)),
                if_true(arrays, scalars, registers),
                if_false(arrays, scalars, registers),
            )
        raise _NoPlan(f"expression {type(e).__name__}")

    def operand(self, e: Expr, fn: _Fn | None, divisor: bool = False) -> _Fn:
        """``fn``, or a closure returning the static value of ``e``; a
        positive C ``int`` ``divisor`` as ``np.int32``, so that a C ``int``
        dividend divides at int32."""
        if fn is not None:
            return fn
        value = self.static.eval(e)
        if divisor and type(value) is int and 0 < value <= _INT_MAX:
            value = np.int32(value)
        return lambda arrays, scalars, registers: value

    def read(self, e: Read) -> _Fn:
        shape = self.shapes.get(e.array)
        if shape is None:
            raise _NoPlan(f"read of undeclared array {e.array!r}")
        key = self.read_key(e)
        shared = self.reads.get(key)
        if shared is None:
            comps = self.index(e.index, key[2], shape, e.array, "read")
            load, how = _lower_read(comps, len(self.extent))
            self.accesses.append(("read", how))
            shared = self.reads[key] = _SharedRead(
                e.array, load, self.register(), how == "slice"
            )
        return shared.occurrence()

    def read_key(self, e: Read) -> tuple:
        """The key of ``e``'s shared read: equal keys read equal values
        until the next store."""
        return e.array, e.index, self.bindings_of(e.index)

    def bindings_of(self, index) -> tuple[tuple, ...]:
        """Per component of a static index, the bindings of the locals it
        uses: equal components with equal bindings have equal values."""
        out = []
        for comp in index:
            tokens = []
            for x in walk(comp):
                if isinstance(x, (Read, ParamRef)):
                    raise _NoPlan("data-dependent index")
                if isinstance(x, LocalRef):
                    token = self.tokens.get(x.name)
                    if token is None:
                        raise _NoPlan(f"index uses data-dependent local {x.name!r}")
                    tokens.append(token)
            out.append(tuple(tokens))
        return tuple(out)

    def index(self, index, bindings, shape, array: str, what: str):
        """The checked components of a static index."""
        check_rank(index, shape, array, what)
        comps = []
        for d, key in enumerate(zip(index, bindings)):
            comp = self.components.get(key)
            if comp is None:
                value = self.static.eval(key[0])
                comp = self.components[key] = _Component(value, len(self.extent))
            if shape[d] not in comp.checked:
                check_component(comp.value, d, shape[d], array, what)
                comp.checked.add(shape[d])
            comps.append(comp)
        return comps


# -- lowering -------------------------------------------------------------------


class _Component:
    """One static index component: its values over the open grid and how
    they vary along it (``lane``: an ``int`` when it is one value,
    ``(axis, values)`` when it varies along one grid axis only, ``None``
    otherwise; ``slice`` when those values are an arithmetic progression)."""

    __slots__ = ("value", "lane", "slice", "checked")

    def __init__(self, value, rank: int):
        c = self.value = np.asarray(value)
        axes = [rank - c.ndim + p for p, n in enumerate(c.shape) if n > 1]
        self.slice = None
        if len(axes) > 1:
            self.lane = None
        elif not axes:
            self.lane = int(c.reshape(-1)[0])
        else:
            self.lane = axes[0], c.reshape(-1)
            self.slice = _progression(self.lane[1])
        self.checked: set[int] = set()  # extents its values were checked against


def _progression(values: np.ndarray) -> slice | None:
    """The slice enumerating ``values`` (two or more), when they form an
    arithmetic progression with a nonzero step."""
    start = int(values[0])
    step = int(values[1]) - start
    n = len(values)
    if not step or not np.array_equal(values, start + step * np.arange(n)):
        return None
    stop = start + step * n
    return slice(start, stop if stop >= 0 else None, step)


def _lower_read(comps: list[_Component], rank: int):
    """(load, how): ``load(buffer)`` returns what the interpreter's read
    returns — same values, dtype and shape — through slicing and
    ``np.take`` when the components allow it; a ``"slice"`` load may
    return a view of the buffer."""
    values = tuple(c.value for c in comps)
    shape = np.broadcast_shapes(*(v.shape for v in values))
    slicer, takes, axes = [], [], []
    for c in comps:
        if isinstance(c.lane, int):
            slicer.append(c.lane)
            continue
        if c.lane is None or c.lane[0] in axes:
            return (lambda buf: buf[values]), "fancy"
        if c.slice is None:
            takes.append((len(axes), c.lane[1]))
        slicer.append(c.slice or slice(None))
        axes.append(c.lane[0])
    slicer = tuple(slicer)
    if not axes:  # one element for the whole launch
        if not shape:
            return (lambda buf: buf[slicer]), "slice"
        return (lambda buf: np.reshape(buf[slicer], shape)), "slice"
    perm = tuple(sorted(range(len(axes)), key=axes.__getitem__))

    def load(buf):
        v = buf[slicer]
        for pos, index in takes:
            v = v.take(index, axis=pos)
        return v.transpose(perm).reshape(shape)

    return load, ("take" if takes else "slice")


def _lower_store(comps: list[_Component], extent: tuple[int, ...]):
    """(write, how): ``write(buffer, value)`` stores a value broadcastable
    to ``extent`` as the interpreter's scatter does, through a slice when
    the store is injective."""
    slicer, axes = [], []
    for c in comps:
        if isinstance(c.lane, int):
            slicer.append(c.lane)
        elif c.slice is not None and c.lane[0] not in axes:
            slicer.append(c.slice)
            axes.append(c.lane[0])
        else:
            break
    if len(slicer) < len(comps) or sorted(axes) != [
        a for a, n in enumerate(extent) if n > 1
    ]:
        idx = broadcast_index(tuple(c.value for c in comps), extent)

        def scatter(buf, value):
            buf[idx] = value

        return scatter, "fancy"
    slicer = tuple(slicer)
    squeezed = tuple(n for n in extent if n > 1)
    # value axes (grid order) -> the sliced view's axes (array-dim order)
    order = tuple(sorted(axes).index(a) for a in axes)

    def write(buf, value):
        buf[slicer] = np.reshape(np.broadcast_to(value, extent), squeezed).transpose(order)

    return write, "slice"
