"""Property tests: the vectorised evaluators equal per-point evaluation.

A naive scalar reference evaluator executes the kernel body with plain
Python arithmetic cut to C ``int`` after every integer operation, one
index point at a time per statement (the lock-step
order the vectorised evaluators implement: a statement finishes for every
work-item before the next starts, and a store reads all its values before
it writes).  Random kernels over random buffers must agree exactly on
both vectorised paths: the compiled plan (:mod:`repro.ir.plan`) and the
interpreter.  This is the semantic foundation the whole simulator rests on.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import (
    ArrayParam,
    Assign,
    BinOp,
    Const,
    For,
    IndexSpace,
    Kernel,
    KernelEvaluationError,
    LocalRef,
    Read,
    Select,
    Store,
    ThreadIdx,
    UnOp,
    evaluate_kernel,
    probe_access_profile,
    unique_access_bytes,
)
from repro.ir.evalvec import _Evaluator
from repro.ir.expr import walk
from repro.ir.plan import plan_of

N = 10  # 1-D buffer extent


# -- scalar reference evaluator -------------------------------------------------


def _ref_expr(e, iv, env, bufs):
    if isinstance(e, Const):
        return e.value
    if isinstance(e, ThreadIdx):
        return iv[e.dim]
    if isinstance(e, LocalRef):
        return env[e.name]
    if isinstance(e, Read):
        idx = tuple(int(_ref_expr(c, iv, env, bufs)) for c in e.index)
        return int(bufs[e.array][idx])
    if isinstance(e, UnOp):
        v = _ref_expr(e.operand, iv, env, bufs)
        if e.op == "!":
            return not v
        return _wrap32(-v if e.op == "-" else abs(v))
    if isinstance(e, Select):
        return (
            _ref_expr(e.if_true, iv, env, bufs)
            if _ref_expr(e.cond, iv, env, bufs)
            else _ref_expr(e.if_false, iv, env, bufs)
        )
    if isinstance(e, BinOp):
        a = _ref_expr(e.lhs, iv, env, bufs)
        b = _ref_expr(e.rhs, iv, env, bufs)
        if e.op == "+":
            return _wrap32(a + b)
        if e.op == "-":
            return _wrap32(a - b)
        if e.op == "*":
            return _wrap32(a * b)
        if e.op == "/":
            q = abs(a) // abs(b)
            return _wrap32(q if (a >= 0) == (b >= 0) else -q)
        if e.op == "%":
            q = abs(a) // abs(b)
            q = q if (a >= 0) == (b >= 0) else -q
            return _wrap32(a - q * b)
        if e.op == "min":
            return min(a, b)
        if e.op == "max":
            return max(a, b)
        if e.op == "<":
            return a < b
        if e.op == "<=":
            return a <= b
        if e.op == ">":
            return a > b
        if e.op == ">=":
            return a >= b
        if e.op == "==":
            return a == b
        if e.op == "!=":
            return a != b
    raise AssertionError(e)


def _wrap32(x: int) -> int:  # C int: two's complement, 32 bits
    return ((int(x) + 2**31) % 2**32) - 2**31


def _points(space):
    """Every index point of ``space``, in row-major order."""
    points = [()]
    for lo, hi, step in zip(space.lower, space.upper, space.step):
        points = [p + (v,) for p in points for v in range(lo, hi, step)]
    return points


def _ref_kernel(kernel, bufs):
    """Run ``kernel`` point by point over object-dtype buffers (int32 stores)."""
    points = _points(kernel.space)
    envs = [{} for _ in points]

    def run(stmts):
        for s in stmts:
            if isinstance(s, Assign):
                for iv, env in zip(points, envs):
                    env[s.name] = _ref_expr(s.value, iv, env, bufs)
            elif isinstance(s, For):
                for t in range(s.start, s.stop):
                    for env in envs:
                        env[s.var] = t
                    run(s.body)
            elif isinstance(s, Store):
                writes = []
                for iv, env in zip(points, envs):
                    idx = tuple(int(_ref_expr(c, iv, env, bufs)) for c in s.index)
                    writes.append((idx, _ref_expr(s.value, iv, env, bufs)))
                for idx, value in writes:  # row-major: the last writer wins
                    bufs[s.array][idx] = _wrap32(value)

    run(kernel.body)


# -- random kernels ----------------------------------------------------------------


@st.composite
def rand_exprs(draw, depth=0):
    if depth >= 3:
        choice = draw(st.integers(0, 3))
        if choice == 0:
            return Const(draw(st.integers(-9, 9)))
        if choice == 1:
            return ThreadIdx(0)
        if choice == 2:  # truncating-division index: several threads share one
            return Read("src", (BinOp("/", ThreadIdx(0), Const(draw(st.integers(1, 4)))),))
        return Read(
            "src",
            (BinOp("%", BinOp("+", ThreadIdx(0), Const(draw(st.integers(0, N - 1)))),
                   Const(N)),),
        )
    op = draw(st.sampled_from(["+", "-", "*", "min", "max", "div", "mod", "sel", "leaf"]))
    if op == "leaf":
        return draw(rand_exprs(depth=3))
    if op == "sel":
        return Select(
            BinOp("<", ThreadIdx(0), Const(draw(st.integers(0, N)))),
            draw(rand_exprs(depth=depth + 1)),
            draw(rand_exprs(depth=depth + 1)),
        )
    a = draw(rand_exprs(depth=depth + 1))
    b = draw(rand_exprs(depth=depth + 1))
    if op == "div":
        return BinOp("/", a, Const(draw(st.integers(1, 7))))
    if op == "mod":
        return BinOp("%", a, Const(draw(st.integers(1, 7))))
    return BinOp(op, a, b)


@st.composite
def rand_kernels(draw):
    n_locals = draw(st.integers(0, 2))
    body = []
    for i in range(n_locals):
        body.append(Assign(f"t{i}", draw(rand_exprs(depth=1))))
    value = draw(rand_exprs())
    for i in range(n_locals):
        value = BinOp("+", value, LocalRef(f"t{i}"))
    lo = draw(st.integers(0, 2))
    step = draw(st.integers(1, 3))
    body.append(Store("dst", (ThreadIdx(0),), value))
    return Kernel(
        name="k",
        space=IndexSpace((lo,), (N,), (step,)),
        arrays=(
            ArrayParam("src", (N,), intent="in"),
            ArrayParam("dst", (N,), intent="out"),
        ),
        body=tuple(body),
    )


@given(rand_kernels(), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_vectorised_equals_scalar_reference(kernel, seed):
    rng = np.random.default_rng(seed)
    src = rng.integers(-40, 40, size=N).astype(np.int32)
    dst_vec = np.zeros(N, dtype=np.int32)
    evaluate_kernel(kernel, {"src": src.copy(), "dst": dst_vec})
    bufs = {"src": src.astype(object), "dst": np.zeros(N, dtype=object)}
    _ref_kernel(kernel, bufs)
    np.testing.assert_array_equal(dst_vec, bufs["dst"].astype(np.int32))


# -- 2-D kernels: plan, interpreter and reference --------------------------------

SRC, DST = (7, 9), (6, 8)  # buffer shapes of the 2-D kernels


def _affine(a, t, c):
    return BinOp("+", BinOp("*", Const(a), t), Const(c))


@st.composite
def index_components(draw, extent, spans):
    """One index component whose values lie in ``[0, extent)`` over the
    space: a progression (ascending or descending), a ``%`` wrap, a
    constant, a truncating division, or a mix of both grid axes."""
    kind = draw(st.sampled_from(["asc", "desc", "wrap", "const", "div", "mixed"]))
    ax = draw(st.integers(0, 1))
    t = draw(st.sampled_from([ThreadIdx(ax), LocalRef(f"i{ax}")]))  # via a static local
    lo, last = spans[ax]
    a = draw(st.integers(1, 3))
    if kind == "const":
        return Const(draw(st.integers(0, extent - 1)))
    if kind == "asc":
        c = draw(st.integers(-a * lo, max(-a * lo, extent - 1 - a * last)))
        e = _affine(a, t, c)
        return e if a * last + c < extent else BinOp("%", e, Const(extent))
    if kind == "desc":
        c = draw(st.integers(a * last, max(a * last, extent - 1 + a * lo)))
        e = BinOp("-", Const(c), BinOp("*", Const(a), t))
        return e if c - a * lo < extent else BinOp("%", e, Const(extent))
    if kind == "wrap":  # wraps inside the space: np.take, not a slice
        return BinOp("%", _affine(a, t, draw(st.integers(0, extent))), Const(extent))
    if kind == "div":  # several work-items share one value
        return BinOp("%", BinOp("/", t, Const(a)), Const(extent))
    mixed = BinOp("+", ThreadIdx(0), _affine(a, ThreadIdx(1), draw(st.integers(0, 3))))
    return BinOp("%", mixed, Const(extent))


@st.composite
def index_tuples(draw, shape, spans):
    """An in-bounds index of an array of ``shape``; sometimes transposed
    (dim 0 along grid axis 1) or with both components on one axis."""
    form = draw(st.sampled_from(["free", "transposed", "same-axis"]))
    if form == "free":
        return tuple(draw(index_components(n, spans)) for n in shape)
    axes = (1, 0) if form == "transposed" else (0, 0)
    return tuple(
        BinOp("%", _affine(draw(st.integers(1, 2)), ThreadIdx(ax), draw(st.integers(0, 4))),
              Const(n))
        for ax, n in zip(axes, shape)
    )


@st.composite
def values_2d(draw, spans, depth=0):
    """A data-dependent value: reads (of the output and its alias too),
    arithmetic, and selects whose untaken branch divides by zero."""
    if depth >= 2:
        array = draw(st.sampled_from(["src", "src", "dst", "alias"]))
        shape = SRC if array == "src" else DST
        return draw(st.one_of(
            st.builds(Read, st.just(array), index_tuples(shape, spans)),
            st.sampled_from([ThreadIdx(0), ThreadIdx(1), LocalRef("i1")]),
            st.integers(-9, 9).map(Const),
        ))
    op = draw(st.sampled_from(["+", "-", "*", "min", "max", "/", "%", "sel", "dead", "neg"]))
    a = draw(values_2d(spans, depth + 1))
    if op == "neg":
        return UnOp(draw(st.sampled_from(["-", "abs"])), a)
    b = draw(values_2d(spans, depth + 1))
    if op in ("/", "%"):
        return BinOp(op, a, Const(draw(st.sampled_from([-3, -2, 1, 2, 5]))))
    if op == "sel":
        return Select(BinOp("<", a, b), a, b)
    if op == "dead":  # the divisor is zero exactly where the branch is not taken
        d = draw(st.sampled_from([b, BinOp("-", ThreadIdx(0), Const(2)), Const(0)]))
        return Select(BinOp("!=", d, Const(0)), BinOp(draw(st.sampled_from("/%")), a, d), b)
    return BinOp(op, a, b)


@st.composite
def kernels_2d(draw):
    lower = tuple(draw(st.integers(0, 2)) for _ in range(2))
    step = tuple(draw(st.integers(1, 3)) for _ in range(2))
    upper = tuple(lo + draw(st.integers(1, 7)) for lo in lower)
    space = IndexSpace(lower, upper, step)
    spans = [(lo, lo + (n - 1) * st_) for lo, n, st_ in zip(lower, space.extent, step)]
    body = [Assign("i0", ThreadIdx(0)), Assign("i1", ThreadIdx(1))]  # static locals
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["store", "local", "loop", "reread"]))
        if kind == "store":  # possibly shared by several work-items
            body.append(Store("dst", draw(index_tuples(DST, spans)), draw(values_2d(spans))))
        elif kind == "reread":  # one read before and after a store to its buffer
            again = Read(draw(st.sampled_from(["dst", "alias"])), draw(index_tuples(DST, spans)))
            body += [
                Assign("before", again),
                Store("dst", draw(index_tuples(DST, spans)), BinOp("+", again, Const(1))),
                Store("dst", draw(index_tuples(DST, spans)),
                      BinOp("-", BinOp("*", again, Const(2)), LocalRef("before"))),
            ]
        elif kind == "local":
            body.append(Assign("v", draw(values_2d(spans))))
            body.append(Store("dst", draw(index_tuples(DST, spans)), LocalRef("v")))
        else:  # an unrolled loop whose variable enters the read index
            trip = draw(st.integers(1, 3))
            row = BinOp("%", BinOp("+", ThreadIdx(0), LocalRef("k")), Const(SRC[0]))
            col = draw(index_components(SRC[1], spans))
            body += [
                Assign("acc", Const(0)),
                For("k", 0, trip, (
                    Assign("acc", BinOp("+", LocalRef("acc"), Read("src", (row, col)))),
                )),
                Store("dst", draw(index_tuples(DST, spans)), LocalRef("acc")),
            ]
    return Kernel(
        name="k2",
        space=space,
        arrays=(
            ArrayParam("src", SRC, intent="in"),
            ArrayParam("dst", DST, intent="inout"),
            ArrayParam("alias", DST, intent="in"),
        ),
        body=tuple(body),
    )


@given(kernels_2d(), st.integers(0, 2**31 - 1), st.booleans())
@settings(max_examples=150, deadline=None)
def test_plan_interpreter_and_reference_agree(kernel, seed, alias_src):
    """``alias`` is bound to the buffer of ``dst``, or to one of its own
    when ``alias_src``: a store to ``dst`` must then show in later reads
    of ``alias`` exactly when the two share a buffer."""
    assert plan_of(kernel) is not None
    rng = np.random.default_rng(seed)
    src = rng.integers(-40, 40, size=SRC).astype(np.int32)
    dst = rng.integers(-40, 40, size=DST).astype(np.int32)
    other = rng.integers(-40, 40, size=DST).astype(np.int32)

    def buffers(copy):
        d = copy(dst)
        return {"src": copy(src), "dst": d, "alias": copy(other) if alias_src else d}

    planned, interpreted = buffers(np.copy), buffers(np.copy)
    evaluate_kernel(kernel, planned)  # a launch: the plan
    _Evaluator(interpreted, {}, kernel.space).exec(kernel.body)
    ref = buffers(lambda a: a.astype(object))
    _ref_kernel(kernel, ref)
    for name in ("dst", "alias"):
        np.testing.assert_array_equal(planned[name], interpreted[name])
        np.testing.assert_array_equal(planned[name], ref[name].astype(np.int32))


def _error_kernels():
    space = IndexSpace((0, 0), (4, 6))
    arrays = (ArrayParam("a", (4, 6), intent="in"), ArrayParam("b", (4, 6), intent="out"))
    copy = Store("b", (ThreadIdx(0), ThreadIdx(1)), Read("a", (ThreadIdx(0), ThreadIdx(1))))
    bad = {
        "oob-read": Read("a", (ThreadIdx(0), BinOp("+", ThreadIdx(1), Const(1)))),
        "thread-idx-rank": Read("a", (ThreadIdx(0), ThreadIdx(2))),
        "unbound-array": Read("nope", (ThreadIdx(0), ThreadIdx(1))),
    }
    return {
        name: Kernel("bad", space, arrays, body=(copy, Store("b", (ThreadIdx(1), Const(0)), e)))
        for name, e in bad.items()
    } | {
        "oob-store": Kernel("bad", space, arrays, body=(
            copy, Store("b", (Const(4), ThreadIdx(1)), Const(1)),
        )),
    }


@pytest.mark.parametrize("name", sorted(_error_kernels()))
def test_plan_path_raises_what_the_interpreter_raises(name):
    """A kernel whose static check fails gets no plan: the interpreter
    raises, after the same earlier stores, the same error as always."""
    kernel = _error_kernels()[name]
    assert plan_of(kernel) is None
    errors, results = [], []
    for run in (evaluate_kernel, lambda k, a: _Evaluator(a, {}, k.space).exec(k.body)):
        arrays = {"a": np.arange(24, dtype=np.int32).reshape(4, 6),
                  "b": np.zeros((4, 6), np.int32)}
        with pytest.raises(KernelEvaluationError) as exc:
            run(kernel, arrays)
        errors.append((type(exc.value), str(exc.value)))
        results.append(arrays["b"])
    assert errors[0] == errors[1]
    np.testing.assert_array_equal(results[0], results[1])
    np.testing.assert_array_equal(results[0], np.arange(24).reshape(4, 6))


# -- access metrics ------------------------------------------------------------------


def _ref_accesses(kernel, points):
    """Every access of ``kernel`` as ``(kind, array, [index at each of
    points])``, in program order, each loop trip in turn and both branches
    of a ``Select`` read.  Indices come from ``_ref_expr`` on zero buffers:
    no index of the strategies reads memory."""
    envs = [{} for _ in points]
    zeros = {a.name: np.zeros(a.shape, dtype=object) for a in kernel.arrays}
    out = []

    def touch(kind, array, index):
        out.append((kind, array, [
            tuple(int(_ref_expr(c, iv, env, zeros)) for c in index)
            for iv, env in zip(points, envs)
        ]))

    def reads(*exprs):
        for e in exprs:
            for sub in walk(e):
                if isinstance(sub, Read):
                    touch("read", sub.array, sub.index)

    def run(stmts):
        for s in stmts:
            if isinstance(s, Assign):
                reads(s.value)
                for iv, env in zip(points, envs):
                    env[s.name] = _ref_expr(s.value, iv, env, zeros)
            elif isinstance(s, For):
                for t in range(s.start, s.stop):
                    for env in envs:
                        env[s.var] = t
                    run(s.body)
            elif isinstance(s, Store):
                touch("store", s.array, s.index)
                reads(*s.index, s.value)

    run(kernel.body)
    return out


def _address_set_bytes(kernel):
    """Pure-Python reference: distinct (array, index) tuples per access
    kind over every point of the space."""
    seen = {"read": set(), "store": set()}
    for kind, array, indices in _ref_accesses(kernel, _points(kernel.space)):
        seen[kind].update((array, index) for index in indices)
    itemsize = {a.name: np.dtype(a.dtype).itemsize for a in kernel.arrays}
    return tuple(
        sum(itemsize[array] for array, _ in seen[kind]) for kind in ("read", "store")
    )


def _two_point_strides(kernel):
    """Pure-Python reference: each access's flat-address delta from the
    space's first point to the next one along the last dimension (0 when
    that dimension has one point)."""
    first = tuple(kernel.space.lower)
    points = [first]
    if kernel.space.extent[-1] >= 2:
        points.append(first[:-1] + (first[-1] + kernel.space.step[-1],))
    shapes = {a.name: a.shape for a in kernel.arrays}
    strides = {"read": [], "store": []}
    for kind, array, indices in _ref_accesses(kernel, points):
        flat = [int(np.ravel_multi_index(index, shapes[array])) for index in indices]
        strides[kind].append(flat[-1] - flat[0])
    return tuple(strides["read"]), tuple(strides["store"])


@given(st.one_of(rand_kernels(), kernels_2d()))
@settings(max_examples=150, deadline=None)
def test_unique_access_bytes_equals_address_set(kernel):
    assert unique_access_bytes(kernel) == _address_set_bytes(kernel)


@given(st.one_of(rand_kernels(), kernels_2d()))
@settings(max_examples=150, deadline=None)
def test_probe_strides_equal_the_two_point_reference(kernel):
    profile = probe_access_profile(kernel)
    assert (profile.read_strides, profile.write_strides) == _two_point_strides(kernel)
