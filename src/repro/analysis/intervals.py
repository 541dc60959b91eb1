"""Integer interval arithmetic with C semantics.

The region oracle's affine evaluator (:mod:`repro.analysis.regions`)
abstracts every kernel scalar expression it cannot keep affine to an
:class:`Interval` ``[lo, hi]`` (endpoints may be ``±inf``); the bounds
checker proves indices with the same evaluator.  Division and modulo
follow the C truncation semantics of :func:`repro.ir.expr.c_div` /
:func:`repro.ir.expr.c_mod`, matching what the vectorised evaluator and the
emitted CUDA/OpenCL actually compute.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

__all__ = ["Interval", "TOP"]


def _trunc_div(a: float, b: float) -> float:
    """C division on (possibly infinite) endpoint values."""
    if a in (inf, -inf):
        sign = 1 if (a > 0) == (b > 0) else -1
        return sign * inf
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b > 0) else -q


@dataclass(frozen=True)
class Interval:
    """A closed integer interval ``[lo, hi]`` (``±inf`` endpoints allowed)."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def point(v: float) -> "Interval":
        return Interval(v, v)

    @property
    def is_bounded(self) -> bool:
        return self.lo != -inf and self.hi != inf

    def contains(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def union(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __mul__(self, other: "Interval") -> "Interval":
        cands = [
            _mul(a, b) for a in (self.lo, self.hi) for b in (other.lo, other.hi)
        ]
        return Interval(min(cands), max(cands))

    def abs(self) -> "Interval":
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return Interval(0, max(-self.lo, self.hi))

    def min(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), min(self.hi, other.hi))

    def max(self, other: "Interval") -> "Interval":
        return Interval(max(self.lo, other.lo), max(self.hi, other.hi))

    def c_div(self, other: "Interval") -> "Interval":
        """C (truncating) division; TOP when the divisor may be zero."""
        if other.lo <= 0 <= other.hi:
            return TOP
        cands = [
            _trunc_div(a, b)
            for a in (self.lo, self.hi)
            for b in (other.lo, other.hi)
        ]
        return Interval(min(cands), max(cands))

    def c_mod(self, other: "Interval") -> "Interval":
        """C remainder; TOP when the divisor may be zero.

        The remainder keeps the dividend's sign, so with ``m`` the largest
        divisor magnitude it lies in ``[max(lo, -(m-1)), min(hi, m-1)]``,
        a side the dividend does not reach clipped to 0.  It is the
        dividend itself when every ``|dividend|`` is below every
        ``|divisor|``.
        """
        if other.lo <= 0 <= other.hi:
            return TOP
        if max(-self.lo, self.hi) < min(abs(other.lo), abs(other.hi)):
            return self
        m = max(abs(other.lo), abs(other.hi))
        lo = max(self.lo, -(m - 1)) if self.lo < 0 else 0
        hi = min(self.hi, m - 1) if self.hi > 0 else 0
        return Interval(lo, hi)

    def __str__(self) -> str:
        def fmt(v: float) -> str:
            if v == inf:
                return "+inf"
            if v == -inf:
                return "-inf"
            return str(int(v))

        return f"[{fmt(self.lo)}, {fmt(self.hi)}]"


def _mul(a: float, b: float) -> float:
    if a == 0 or b == 0:
        return 0  # 0 * inf -> 0: the sup is attained at the other endpoint
    return a * b


#: The unbounded interval (analysis knows nothing).
TOP = Interval(-inf, inf)
