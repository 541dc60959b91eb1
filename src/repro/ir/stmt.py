"""Statement IR for GPU kernels.

A kernel body is a sequence of statements executed once per work-item:

* :class:`Assign` binds a kernel-local scalar;
* :class:`For` is a counted loop with *static* bounds (the only loop form
  GPU kernels in this system need — e.g. the tiler pattern-filling loop of
  the paper's Figure 11).  The vectorised evaluator unrolls it;
* :class:`Store` writes one element of an output array.

:func:`body_facts` answers the static questions about a body in one walk.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import IRError
from repro.ir.expr import BinOp, Expr, LocalRef, ParamRef, Read, Select, ThreadIdx, UnOp

__all__ = ["Stmt", "Assign", "For", "Store", "walk_stmts", "BodyFacts", "body_facts"]


class Stmt:
    """Base class of all IR statements."""

    __slots__ = ()


@dataclass(frozen=True)
class Assign(Stmt):
    """Bind local variable ``name`` to the value of ``value``."""

    name: str
    value: Expr

    def __post_init__(self) -> None:
        if not isinstance(self.value, Expr):
            raise IRError(f"Assign value must be an Expr, got {self.value!r}")


@dataclass(frozen=True)
class For(Stmt):
    """Counted loop ``for (var = start; var < stop; var += 1) body``.

    Bounds are compile-time constants; the loop variable is visible in the
    body as a :class:`~repro.ir.expr.LocalRef`.
    """

    var: str
    start: int
    stop: int
    body: tuple[Stmt, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "body", tuple(self.body))
        if not isinstance(self.start, int) or not isinstance(self.stop, int):
            raise IRError("For bounds must be compile-time integers")
        if self.stop < self.start:
            raise IRError(f"For has negative trip count: [{self.start}, {self.stop})")
        for s in self.body:
            if not isinstance(s, Stmt):
                raise IRError(f"For body element must be a Stmt, got {s!r}")

    @property
    def trip_count(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class Store(Stmt):
    """Write ``value`` to ``array[index]``."""

    array: str
    index: tuple[Expr, ...]
    value: Expr

    def __post_init__(self) -> None:
        object.__setattr__(self, "index", tuple(self.index))
        for e in self.index:
            if not isinstance(e, Expr):
                raise IRError(f"Store index component must be an Expr, got {e!r}")
        if not isinstance(self.value, Expr):
            raise IRError(f"Store value must be an Expr, got {self.value!r}")


def walk_stmts(stmts):
    """Yield every statement, depth first, including loop bodies."""
    for s in stmts:
        yield s
        if isinstance(s, For):
            yield from walk_stmts(s.body)


@dataclass(frozen=True)
class BodyFacts:
    """What one walk of a statement body finds (:func:`body_facts`)."""

    #: each distinct ``(kind, array, index rank)``, kind ``"read"`` or
    #: ``"store"``, in program order: a store before the reads nested in it
    accesses: tuple[tuple[str, str, int], ...]
    scalars: frozenset[str]  # scalar parameters used
    unbound_locals: frozenset[str]  # locals used before any binding
    highest_thread_dim: int  # of any ThreadIdx, -1 when the body uses none
    #: array-element reads, stores and scalar operations (BinOp, UnOp,
    #: Select) one work-item performs, static loops unrolled
    reads: int
    writes: int
    flops: int

    def arrays(self, kind: str) -> set[str]:
        """Names of the arrays accessed as ``kind`` (``"read"`` or ``"store"``)."""
        return {array for k, array, _ in self.accesses if k == kind}


def body_facts(stmts) -> BodyFacts:
    """Walk ``stmts`` (loop bodies included) once, depth first in program
    order, and return their :class:`BodyFacts`.

    A local is bound from the statement after its ``Assign`` on, and a
    loop variable inside and after its ``For``.
    """
    accesses: dict[tuple[str, str, int], None] = {}
    scalars: set[str] = set()
    bound: set[str] = set()
    free: set[str] = set()
    max_dim = -1
    reads = writes = flops = 0

    def expr(e: Expr, mult: int) -> None:
        nonlocal max_dim, reads, flops
        if isinstance(e, Read):
            accesses.setdefault(("read", e.array, len(e.index)))
            reads += mult
            for c in e.index:
                expr(c, mult)
        elif isinstance(e, BinOp):
            flops += mult
            expr(e.lhs, mult)
            expr(e.rhs, mult)
        elif isinstance(e, UnOp):
            flops += mult
            expr(e.operand, mult)
        elif isinstance(e, Select):
            flops += mult
            expr(e.cond, mult)
            expr(e.if_true, mult)
            expr(e.if_false, mult)
        elif isinstance(e, ThreadIdx):
            max_dim = max(max_dim, e.dim)
        elif isinstance(e, LocalRef):
            if e.name not in bound:
                free.add(e.name)
        elif isinstance(e, ParamRef):
            scalars.add(e.name)

    def body(block, mult: int) -> None:
        nonlocal writes
        for s in block:
            if isinstance(s, Assign):
                expr(s.value, mult)
                bound.add(s.name)
            elif isinstance(s, Store):
                accesses.setdefault(("store", s.array, len(s.index)))
                writes += mult
                for c in s.index:
                    expr(c, mult)
                expr(s.value, mult)
            elif isinstance(s, For):
                bound.add(s.var)
                body(s.body, mult * s.trip_count)

    body(stmts, 1)
    return BodyFacts(
        accesses=tuple(accesses),
        scalars=frozenset(scalars),
        unbound_locals=frozenset(free),
        highest_thread_dim=max_dim,
        reads=reads,
        writes=writes,
        flops=flops,
    )
