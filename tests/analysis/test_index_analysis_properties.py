"""Property tests: the index analysis is sound, and exact where it says so.

Random kernels run through a point-by-point reference that logs every
access, out-of-bounds ones included, under random memory and the
interpreter's semantics (a ``Select`` evaluates both branches, and a zero
divisor gives 0).  Then, per (array, kind):

* every in-bounds access lies in a box of :func:`kernel_access_boxes`;
* every element of an exact box is accessed;
* a kernel :func:`check_kernel_bounds` reports nothing for never indexes
  out of bounds.

Random tilers check :func:`tiler_access_box` against the occupancy of
:func:`~repro.tilers.analysis.multiplicity` the same way: the box holds
every addressed element, and an exact box's count is the occupancy count.
"""

from collections import defaultdict
from itertools import count, product

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import check_kernel_bounds, kernel_access_boxes
from repro.ir import (
    ArrayParam,
    Assign,
    BinOp,
    Const,
    For,
    IndexSpace,
    Kernel,
    LocalRef,
    ParamRef,
    Read,
    ScalarParam,
    Select,
    Store,
    ThreadIdx,
    UnOp,
)
from repro.tilers import Tiler, tiler_access_box
from repro.tilers.analysis import multiplicity

# -- point-by-point reference ------------------------------------------------


def _c_div(a: int, b: int) -> int:
    if b == 0:
        return 0  # the interpreter's zero lane
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b > 0) else -q


_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": _c_div,
    "%": lambda a, b: a - _c_div(a, b) * b if b else 0,
    "min": min,
    "max": max,
    "<": lambda a, b: int(a < b),
    "<=": lambda a, b: int(a <= b),
    "==": lambda a, b: int(a == b),
}


def _inside(idx, shape) -> bool:
    return all(0 <= i < n for i, n in zip(idx, shape))


class _Reference:
    """Runs a kernel one work-item at a time, logging every access.

    Read arrays are never stored to, so work-items are independent and an
    out-of-bounds read can simply yield 0 and go on.
    """

    def __init__(self, kernel: Kernel, memory: dict, scalars: dict):
        self.kernel, self.memory, self.scalars = kernel, memory, scalars
        self.log: list[tuple[str, str, tuple]] = []

    def run(self) -> list:
        sp = self.kernel.space
        axes = [range(lo, hi, st_) for lo, hi, st_ in zip(sp.lower, sp.upper, sp.step)]
        for point in product(*axes):
            self.point, self.env = point, {}
            self.stmts(self.kernel.body)
        return self.log

    def stmts(self, body) -> None:
        for s in body:
            if isinstance(s, Assign):
                self.env[s.name] = self.value(s.value)
            elif isinstance(s, For):
                for v in range(s.start, s.stop):
                    self.env[s.var] = v
                    self.stmts(s.body)
            else:
                idx = tuple(self.value(c) for c in s.index)
                self.log.append(("store", s.array, idx))
                self.value(s.value)

    def value(self, e) -> int:
        if isinstance(e, Const):
            return e.value
        if isinstance(e, ThreadIdx):
            return self.point[e.dim]
        if isinstance(e, LocalRef):
            return self.env[e.name]
        if isinstance(e, ParamRef):
            return self.scalars[e.name]
        if isinstance(e, Read):
            idx = tuple(self.value(c) for c in e.index)
            self.log.append(("read", e.array, idx))
            buf = self.memory[e.array]
            return int(buf[idx]) if _inside(idx, buf.shape) else 0
        if isinstance(e, Select):  # both branches run, as in the interpreter
            cond, t, f = (self.value(x) for x in (e.cond, e.if_true, e.if_false))
            return t if cond else f
        if isinstance(e, UnOp):
            v = self.value(e.operand)
            return -v if e.op == "-" else abs(v)
        return _OPS[e.op](self.value(e.lhs), self.value(e.rhs))


# -- random kernels -------------------------------------------------------------


@st.composite
def _exprs(draw, rank: int, names: tuple, arrays: dict, depth: int = 0):
    """An integer expression over the work-item's indices, the locals in
    scope, the scalar ``s`` and reads of the input arrays."""
    if depth >= 3 or draw(st.integers(0, 2)) == 0:
        leaf = draw(st.sampled_from(["iv", "iv", "const", "name", "scalar", "read"]))
        if leaf == "iv":
            return ThreadIdx(draw(st.integers(0, rank - 1)))
        if leaf == "name" and names:
            return LocalRef(draw(st.sampled_from(names)))
        if leaf == "scalar":
            return ParamRef("s")
        if leaf == "read" and depth < 3:
            array = draw(st.sampled_from(sorted(arrays)))
            return Read(array, draw(_subscripts(rank, names, arrays, arrays[array], depth + 1)))
        return Const(draw(st.integers(-3, 9)))
    sub = _exprs(rank, names, arrays, depth + 1)
    op = draw(st.sampled_from(["+", "-", "*", "/", "%", "min", "max", "sel", "-u", "abs"]))
    if op in ("/", "%"):  # by constants, zero and negatives included
        return BinOp(op, draw(sub), Const(draw(st.integers(-4, 4))))
    if op in ("*", "min", "max"):  # by a constant, or a general product/clamp
        rhs = draw(st.one_of(st.builds(Const, st.integers(-3, 9)), sub))
        return BinOp(op, draw(sub), rhs)
    if op == "sel":
        cmp = draw(st.sampled_from(["<", "<=", "=="]))
        return Select(BinOp(cmp, draw(sub), draw(sub)), draw(sub), draw(sub))
    if op in ("-u", "abs"):
        return UnOp("-" if op == "-u" else "abs", draw(sub))
    return BinOp(op, draw(sub), draw(sub))


@st.composite
def _subscripts(draw, rank, names, arrays, shape, depth=0):
    comps = [draw(_exprs(rank, names, arrays, depth)) for _ in shape]
    if len(shape) == 2 and draw(st.booleans()):  # coupled: (t, t) or (t, t + c)
        c = draw(st.integers(0, 2))
        comps[1] = comps[0] if c == 0 else BinOp("+", comps[0], Const(c))
    return tuple(comps)


@st.composite
def _body(draw, rank, names, arrays, out_shape, fresh, depth=0):
    """Statements, and the names they leave bound.  A let may rebind a name
    in scope (inside a loop, the next iteration sees it); a loop's names
    stay bound after it if it runs."""
    body = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["let", "store", "for"] if depth < 2 else ["let", "store"]))
        if kind == "let":
            rebind = names and draw(st.integers(0, 3)) == 0
            name = draw(st.sampled_from(names)) if rebind else f"t{next(fresh)}"
            body.append(Assign(name, draw(_exprs(rank, names, arrays))))
            names += () if rebind else (name,)
        elif kind == "store":
            index = draw(_subscripts(rank, names, arrays, out_shape))
            body.append(Store("dst", index, draw(_exprs(rank, names, arrays))))
        else:
            var = f"j{next(fresh)}"
            start, trip = draw(st.integers(-1, 2)), draw(st.integers(0, 3))
            inner, inner_names = draw(
                _body(rank, names + (var,), arrays, out_shape, fresh, depth + 1)
            )
            body.append(For(var, start, start + trip, tuple(inner)))
            if trip:
                names = inner_names
    return body, names


_shapes = st.lists(st.integers(1, 8), min_size=1, max_size=2).map(tuple)


@st.composite
def kernel_cases(draw):
    """``(kernel, memory, scalar, bound)``: whether the analysis is told
    the scalar's value is ``bound``; the reference always uses it."""
    rank = draw(st.integers(1, 2))
    lower = tuple(draw(st.integers(0, 3)) for _ in range(rank))
    step = tuple(draw(st.integers(1, 3)) for _ in range(rank))
    upper = tuple(lo + st_ * draw(st.integers(1, 4)) - draw(st.integers(0, st_ - 1))
                  for lo, st_ in zip(lower, step))
    arrays = {"a": draw(_shapes), "idx": (draw(st.integers(1, 8)),)}
    out_shape = draw(_shapes)
    body, _ = draw(_body(rank, (), arrays, out_shape, count()))
    kernel = Kernel(
        name="k",
        space=IndexSpace(lower, upper, step),
        arrays=(
            ArrayParam("a", arrays["a"], intent="in"),
            ArrayParam("idx", arrays["idx"], intent="in"),
            ArrayParam("dst", out_shape, intent="out"),
        ),
        scalars=(ScalarParam("s"),),
        body=tuple(body),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    memory = {name: rng.integers(-2, 10, size=shape) for name, shape in arrays.items()}
    return kernel, memory, draw(st.integers(-2, 8)), draw(st.booleans())


def _in_box(box, idx) -> bool:
    return all(
        s.lo <= x <= s.hi and (x - s.lo) % s.step == 0 for s, x in zip(box.segs, idx)
    )


def _box_elements(box):
    return set(product(*(range(s.lo, s.hi + 1, s.step) for s in box.segs)))


_DIAGONAL = Kernel(  # dst[i, i]: the store box spans 4x4 but holds 4 elements
    name="diag",
    space=IndexSpace((0,), (4,)),
    arrays=(
        ArrayParam("a", (1,), intent="in"),
        ArrayParam("idx", (1,), intent="in"),
        ArrayParam("dst", (4, 4), intent="out"),
    ),
    scalars=(ScalarParam("s"),),
    body=(Store("dst", (ThreadIdx(0), ThreadIdx(0)), Const(0)),),
)


@given(kernel_cases())
@example((_DIAGONAL, {"a": np.zeros(1, int), "idx": np.zeros(1, int)}, 0, False))
@settings(max_examples=250, deadline=None)
def test_kernel_boxes_and_bounds_are_sound_and_exact(case):
    kernel, memory, scalar, bound = case
    log = _Reference(kernel, memory, {"s": scalar}).run()
    args = (("s", scalar),) if bound else ()
    boxes = kernel_access_boxes(kernel, args)
    touched = defaultdict(set)
    for kind, array, idx in log:
        touched[kind, array].add(idx)
    for (kind, array), points in touched.items():
        shape = kernel.array(array).shape
        acc = boxes[array]
        table = acc.writes if kind == "store" else acc.reads
        for idx in points:
            if _inside(idx, shape):
                assert any(_in_box(b, idx) for b in table), (kind, array, idx, table)
        for b in table:
            if b.exact:
                assert _box_elements(b) <= points, (kind, array, b)
    if any(not _inside(idx, kernel.array(array).shape) for _, array, idx in log):
        assert check_kernel_bounds(kernel, scalars=dict(args))


# -- random tilers -----------------------------------------------------------------


@st.composite
def tilers(draw):
    shape = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=3)))
    pattern = tuple(draw(st.lists(st.integers(1, 4), max_size=2)))
    repetition = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=2)))
    coef = st.integers(-2, 3)
    return Tiler(
        origin=tuple(draw(st.integers(0, n - 1)) for n in shape),
        fitting=tuple(tuple(draw(coef) for _ in pattern) for _ in shape),
        paving=tuple(tuple(draw(coef) for _ in repetition) for _ in shape),
        array_shape=shape,
        pattern_shape=pattern,
        repetition_shape=repetition,
    )


@given(tilers())
@example(Tiler((0, 0), ((), ()), ((1,), (1,)), (4, 4), (), (4,)))  # a diagonal
@settings(max_examples=250, deadline=None)
def test_tiler_box_is_sound_and_exact(tiler):
    box = tiler_access_box(tiler)
    occupied = multiplicity(tiler).reshape(tiler.array_shape) > 0
    for idx in zip(*np.nonzero(occupied)):
        assert _in_box(box, idx)
    if box.exact:
        assert box.count == int(occupied.sum())
