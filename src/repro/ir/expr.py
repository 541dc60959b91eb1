"""Scalar expression IR for GPU kernels.

Kernels produced by both backends (SaC → CUDA, ArrayOL → OpenCL) share this
representation.  An expression denotes a per-work-item scalar value; the
vectorised evaluator (:mod:`repro.ir.evalvec`) maps it over the whole index
space at once with NumPy.

Integer arithmetic follows **C semantics** — ``/`` truncates towards zero
and ``%`` is the matching remainder — because the paper's filter
(``tmp/6 - tmp%6``) is defined in C terms.  Helpers :func:`c_div` and
:func:`c_mod` implement these semantics for NumPy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import IRError

__all__ = [
    "Expr",
    "Const",
    "ThreadIdx",
    "LocalRef",
    "ParamRef",
    "Read",
    "BinOp",
    "UnOp",
    "Select",
    "BINARY_OPS",
    "COMPARISON_OPS",
    "UNARY_OPS",
    "c_div",
    "c_mod",
    "walk",
]

#: Arithmetic binary operators (result has operand dtype).
BINARY_OPS = frozenset({"+", "-", "*", "/", "%", "min", "max"})
#: Comparison operators (result is boolean).
COMPARISON_OPS = frozenset({"<", "<=", ">", ">=", "==", "!="})
#: Logical operators over booleans.
LOGICAL_OPS = frozenset({"&&", "||"})
#: Unary operators.
UNARY_OPS = frozenset({"-", "abs", "!"})

_ALL_BINOPS = BINARY_OPS | COMPARISON_OPS | LOGICAL_OPS


def c_div(a, b):
    """C integer division (truncation towards zero), elementwise."""
    a, b = np.asarray(a), np.asarray(b)
    if "f" in (a.dtype.kind, b.dtype.kind):
        return a / b
    if b.ndim == 0 and b > 0 and a.min(initial=0) >= 0:  # floor is truncation here
        return a // b
    with np.errstate(divide="ignore"):
        # a - c_mod(a, b) is an exact multiple of b, so floor division truncates
        return (a - c_mod(a, b)) // b


def c_mod(a, b):
    """C remainder (sign of the dividend), elementwise: ``np.fmod``.

    A scalar integer zero divisor raises :class:`IRError`.  Zero lanes of
    an array divisor give 0, for ``c_div`` too: such a lane need not be
    live (a vectorised ``Select`` evaluates both branches).
    """
    a, b = np.asarray(a), np.asarray(b)
    if b.ndim == 0 and not b and "f" not in (a.dtype.kind, b.dtype.kind):
        raise IRError("integer division or modulo by zero")
    with np.errstate(divide="ignore"):  # a float zero divisor still warns
        return np.fmod(a, b)


class Expr:
    """Base class of all IR expressions (immutable value objects)."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(Expr):
    """A compile-time constant."""

    value: int | float

    def __post_init__(self) -> None:
        if isinstance(self.value, bool) or not isinstance(self.value, (int, float)):
            raise IRError(f"Const value must be int or float, got {self.value!r}")


@dataclass(frozen=True)
class ThreadIdx(Expr):
    """The logical index value of the work-item along dimension ``dim``.

    This is the *generator index* ``iv[dim]`` — already scaled by the index
    space's lower bound and step, not the raw hardware thread id.
    """

    dim: int

    def __post_init__(self) -> None:
        if self.dim < 0:
            raise IRError(f"ThreadIdx dim must be >= 0, got {self.dim}")


@dataclass(frozen=True)
class LocalRef(Expr):
    """Reference to a kernel-local variable bound by ``Assign`` or ``For``."""

    name: str


@dataclass(frozen=True)
class ParamRef(Expr):
    """Reference to a scalar kernel parameter."""

    name: str


@dataclass(frozen=True)
class Read(Expr):
    """Read one element of a device array parameter."""

    array: str
    index: tuple[Expr, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "index", tuple(self.index))
        for e in self.index:
            if not isinstance(e, Expr):
                raise IRError(f"Read index component must be an Expr, got {e!r}")


@dataclass(frozen=True)
class BinOp(Expr):
    """Binary operation; see BINARY_OPS / COMPARISON_OPS / LOGICAL_OPS."""

    op: str
    lhs: Expr
    rhs: Expr

    def __post_init__(self) -> None:
        if self.op not in _ALL_BINOPS:
            raise IRError(f"unknown binary operator {self.op!r}")
        if not isinstance(self.lhs, Expr) or not isinstance(self.rhs, Expr):
            raise IRError("BinOp operands must be Expr instances")


@dataclass(frozen=True)
class UnOp(Expr):
    """Unary operation; see UNARY_OPS."""

    op: str
    operand: Expr

    def __post_init__(self) -> None:
        if self.op not in UNARY_OPS:
            raise IRError(f"unknown unary operator {self.op!r}")
        if not isinstance(self.operand, Expr):
            raise IRError("UnOp operand must be an Expr instance")


@dataclass(frozen=True)
class Select(Expr):
    """Ternary select: ``cond ? if_true : if_false``."""

    cond: Expr
    if_true: Expr
    if_false: Expr

    def __post_init__(self) -> None:
        for e in (self.cond, self.if_true, self.if_false):
            if not isinstance(e, Expr):
                raise IRError("Select operands must be Expr instances")


def walk(expr: Expr):
    """Yield ``expr`` and every sub-expression, depth first, pre-order."""
    yield expr
    if isinstance(expr, Read):
        for e in expr.index:
            yield from walk(e)
    elif isinstance(expr, BinOp):
        yield from walk(expr.lhs)
        yield from walk(expr.rhs)
    elif isinstance(expr, UnOp):
        yield from walk(expr.operand)
    elif isinstance(expr, Select):
        yield from walk(expr.cond)
        yield from walk(expr.if_true)
        yield from walk(expr.if_false)
