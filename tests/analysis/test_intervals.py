"""Unit tests for the interval-arithmetic domain behind the bounds checker."""

import math

import pytest

from repro.analysis import intervals
from repro.analysis.intervals import TOP, Interval


class TestConstruction:
    def test_point(self):
        iv = Interval.point(3)
        assert iv.lo == iv.hi == 3
        assert iv.contains(Interval.point(3))
        assert not iv.contains(Interval.point(4))
        assert TOP.contains(iv)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Interval(2, 1)

    def test_top_unbounded(self):
        assert not TOP.is_bounded
        assert Interval(0, 5).is_bounded


class TestArithmetic:
    def test_add_sub_neg(self):
        a, b = Interval(1, 3), Interval(-2, 4)
        assert a + b == Interval(-1, 7)
        assert a - b == Interval(-3, 5)
        assert -a == Interval(-3, -1)

    def test_mul_signs(self):
        assert Interval(-2, 3) * Interval(4, 5) == Interval(-10, 15)
        assert Interval(-2, -1) * Interval(-3, -2) == Interval(2, 6)

    def test_mul_zero_times_inf_is_zero(self):
        assert Interval.point(0) * TOP == Interval.point(0)

    def test_union_abs_min_max(self):
        assert Interval(0, 1).union(Interval(5, 6)) == Interval(0, 6)
        assert Interval(-4, 2).abs() == Interval(0, 4)
        assert Interval(1, 5).min(Interval(3, 9)) == Interval(1, 5)
        assert Interval(1, 5).max(Interval(3, 9)) == Interval(3, 9)


class TestCDivMod:
    def test_c_div_truncates_toward_zero(self):
        # C semantics: -7/2 == -3, not -4
        iv = Interval.point(-7).c_div(Interval.point(2))
        assert iv == Interval.point(-3)

    def test_c_div_divisor_spanning_zero_is_top(self):
        assert Interval(1, 2).c_div(Interval(-1, 1)) == TOP

    def test_c_mod_sign_follows_dividend(self):
        iv = Interval(0, 100).c_mod(Interval.point(8))
        assert iv.lo >= 0 and iv.hi <= 7
        neg = Interval(-100, -1).c_mod(Interval.point(8))
        assert neg.lo >= -7 and neg.hi <= 0

    def test_c_mod_bounded_by_dividend(self):
        # |a % b| can never exceed |a|
        iv = Interval(0, 3).c_mod(Interval.point(100))
        assert iv.hi <= 3

    def test_c_mod_is_bounded_by_the_dividend_on_each_side(self):
        # the remainder keeps the dividend's sign and never passes it
        assert Interval(-2, 10).c_mod(Interval.point(8)) == Interval(-2, 7)
        # every |dividend| below every |divisor|: the identity
        assert Interval(-5, -3).c_mod(Interval(8, 9)) == Interval(-5, -3)

    def test_str_formats_infinities(self):
        assert "inf" in str(TOP)
        assert str(Interval(0, 3)) == "[0, 3]"
        assert not math.isnan(intervals.TOP.lo)
