"""Unit tests for IR expressions and C arithmetic helpers."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IRError
from repro.ir import BinOp, Const, Read, Select, ThreadIdx, UnOp, c_div, c_mod
from repro.ir.expr import LocalRef, walk


class TestCArithmetic:
    @pytest.mark.parametrize(
        "a,b,q,r",
        [
            (7, 2, 3, 1),
            (-7, 2, -3, -1),
            (7, -2, -3, 1),
            (-7, -2, 3, -1),
            (6, 6, 1, 0),
            (0, 5, 0, 0),
        ],
    )
    def test_c_division_semantics(self, a, b, q, r):
        assert int(c_div(np.int64(a), np.int64(b))) == q
        assert int(c_mod(np.int64(a), np.int64(b))) == r

    def test_c_div_matches_c_identity(self):
        rng = np.random.default_rng(42)
        a = rng.integers(-1000, 1000, size=500)
        b = rng.integers(1, 50, size=500) * rng.choice([-1, 1], size=500)
        q = c_div(a, b)
        r = c_mod(a, b)
        np.testing.assert_array_equal(q * b + r, a)
        # remainder has the sign of the dividend (or is zero)
        assert ((r == 0) | (np.sign(r) == np.sign(a))).all()

    def test_float_division_is_true_division(self):
        assert c_div(np.float64(7.0), np.float64(2.0)) == 3.5

    def test_paper_filter_formula(self):
        # out = tmp/6 - tmp%6 with C semantics (paper Figure 5)
        tmp = np.arange(0, 256 * 6, dtype=np.int64)
        out = c_div(tmp, 6) - c_mod(tmp, 6)
        expected = tmp // 6 - tmp % 6  # positive operands: same as Python
        np.testing.assert_array_equal(out, expected)


def _trunc_divmod(a: int, b: int) -> tuple[int, int]:
    """Pure-Python C division: the quotient truncates towards zero."""
    q = abs(a) // abs(b)
    q = q if (a < 0) == (b < 0) else -q
    return q, a - q * b


# INT64_MIN / -1 overflows int64 (undefined behaviour in C), so it is left out
_DIVIDENDS = st.integers(-(2**63) + 1, 2**63 - 1)
_DIVISORS = st.one_of(st.integers(-9, 9), _DIVIDENDS).filter(bool)


class TestCArithmeticProperties:
    @given(st.lists(st.tuples(_DIVIDENDS, _DIVISORS), min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_matches_truncating_reference(self, pairs):
        a = np.array([x for x, _ in pairs], dtype=np.int64)
        b = np.array([y for _, y in pairs], dtype=np.int64)
        want = [_trunc_divmod(x, y) for x, y in pairs]
        # array / array
        q, r = c_div(a, b), c_mod(a, b)
        assert q.dtype == r.dtype == np.int64
        assert list(zip(q.tolist(), r.tolist())) == want
        # scalar / scalar
        for (x, y), (wq, wr) in zip(pairs, want):
            assert int(c_div(np.int64(x), np.int64(y))) == wq
            assert int(c_mod(np.int64(x), np.int64(y))) == wr
        # array / scalar divisor, the `tmp/6 - tmp%6` shape
        y = pairs[0][1]
        assert c_div(a, y).tolist() == [_trunc_divmod(x, y)[0] for x, _ in pairs]
        assert c_mod(a, y).tolist() == [_trunc_divmod(x, y)[1] for x, _ in pairs]

    def test_operand_dtype_is_kept(self):
        a = np.arange(-20, 20, dtype=np.int32)
        assert c_div(a, np.int32(6)).dtype == np.int32
        assert c_mod(a, np.int32(6)).dtype == np.int32
        assert c_div(a, 6).dtype == c_mod(a, 6).dtype == np.int64

    def test_scalar_zero_divisor_raises(self):
        for fn in (c_div, c_mod):
            with pytest.raises(IRError, match="by zero"):
                fn([-7, -1, 0, 1, 7], 0)
            with pytest.raises(IRError, match="by zero"):
                fn(np.int32(5), np.int32(0))

    def test_zero_lanes_of_array_divisor_give_zero(self):
        # a lane of an array divisor may be dead (Select evaluates both
        # branches), so it gets a defined value and no warning
        a, b = np.array([-7, 7, 9, -9]), np.array([2, 0, 0, 4])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert c_div(a, b).tolist() == [-3, 0, 0, -2]
            assert c_mod(a, b).tolist() == [-1, 0, 0, -1]


class TestNodeValidation:
    def test_const_rejects_bool_and_str(self):
        with pytest.raises(IRError):
            Const(True)
        with pytest.raises(IRError):
            Const("x")

    def test_threadidx_rejects_negative(self):
        with pytest.raises(IRError):
            ThreadIdx(-1)

    def test_binop_rejects_unknown_op(self):
        with pytest.raises(IRError):
            BinOp("**", Const(1), Const(2))

    def test_binop_rejects_non_expr(self):
        with pytest.raises(IRError):
            BinOp("+", Const(1), 2)

    def test_unop_rejects_unknown_op(self):
        with pytest.raises(IRError):
            UnOp("sqrt", Const(1))

    def test_read_requires_expr_indices(self):
        with pytest.raises(IRError):
            Read("a", (0,))

    def test_expressions_are_hashable_values(self):
        a = BinOp("+", ThreadIdx(0), Const(1))
        b = BinOp("+", ThreadIdx(0), Const(1))
        assert a == b
        assert hash(a) == hash(b)


class TestWalk:
    def test_walk_covers_all_nodes(self):
        e = Select(
            BinOp("<", ThreadIdx(0), Const(4)),
            Read("a", (ThreadIdx(0), BinOp("+", LocalRef("j"), Const(1)))),
            UnOp("-", Const(9)),
        )
        nodes = list(walk(e))
        assert sum(isinstance(n, Const) for n in nodes) == 3
        assert sum(isinstance(n, ThreadIdx) for n in nodes) == 2
        assert sum(isinstance(n, Read) for n in nodes) == 1
        assert sum(isinstance(n, LocalRef) for n in nodes) == 1
