"""Property test: the vectorised evaluator equals per-point evaluation.

A naive scalar reference evaluator executes the kernel body one index
point at a time with plain Python arithmetic; random kernels over random
buffers must agree exactly.  This is the semantic foundation the whole
simulator rests on.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import (
    ArrayParam,
    Assign,
    BinOp,
    Const,
    IndexSpace,
    Kernel,
    LocalRef,
    Read,
    Select,
    Store,
    ThreadIdx,
    UnOp,
    evaluate_kernel,
    unique_access_bytes,
)
from repro.ir import expr as ir
from repro.ir import stmt as irs

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
        return {"-": lambda x: -x, "abs": abs, "!": lambda x: not x}[e.op](v)
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
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            q = abs(a) // abs(b)
            return q if (a >= 0) == (b >= 0) else -q
        if e.op == "%":
            q = abs(a) // abs(b)
            q = q if (a >= 0) == (b >= 0) else -q
            return a - q * b
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


def _ref_kernel(kernel, bufs):
    lo, hi, st_ = kernel.space.lower, kernel.space.upper, kernel.space.step
    points = []

    def rec(d, cur):
        if d == len(lo):
            points.append(tuple(cur))
            return
        v = lo[d]
        while v < hi[d]:
            rec(d + 1, cur + [v])
            v += st_[d]

    rec(0, [])
    for iv in points:
        env = {}
        for s in kernel.body:
            if isinstance(s, Assign):
                env[s.name] = _ref_expr(s.value, iv, env, bufs)
            elif isinstance(s, irs.For):
                for t in range(s.start, s.stop):
                    env[s.var] = t
                    for inner in s.body:
                        assert isinstance(inner, Assign)
                        env[inner.name] = _ref_expr(inner.value, iv, env, bufs)
            elif isinstance(s, Store):
                idx = tuple(int(_ref_expr(c, iv, env, bufs)) for c in s.index)
                bufs[s.array][idx] = _ref_expr(s.value, iv, env, bufs)


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
    def wrap32(x: int) -> int:  # C int32 store semantics
        return ((int(x) + 2**31) % 2**32) - 2**31

    expected = np.array([wrap32(x) for x in bufs["dst"]], dtype=np.int32)
    np.testing.assert_array_equal(dst_vec, expected)


# -- footprint counting ------------------------------------------------------------


def _address_set_bytes(kernel):
    """Pure-Python reference: distinct (array, index) tuples per access kind."""
    seen = {"read": set(), "store": set()}

    def observer(kind, array, idx):
        cols = [c.reshape(-1).tolist() for c in np.broadcast_arrays(*idx)]
        seen[kind].update((array, *point) for point in zip(*cols))

    bufs = {a.name: np.zeros(a.shape, dtype=a.dtype) for a in kernel.arrays}
    evaluate_kernel(kernel, bufs, observer=observer)
    itemsize = {a.name: np.dtype(a.dtype).itemsize for a in kernel.arrays}
    return tuple(
        sum(itemsize[point[0]] for point in seen[kind]) for kind in ("read", "store")
    )


@given(rand_kernels())
@settings(max_examples=80, deadline=None)
def test_unique_access_bytes_equals_address_set(kernel):
    assert unique_access_bytes(kernel) == _address_set_bytes(kernel)
