"""Abstract syntax of the SaC subset.

The subset covers what the paper's programs (Figures 4-7) exercise, plus
enough generality to write other array programs:

* functions over multidimensional arrays with SaC type patterns
  (``int[*]``, ``int[.]``, ``int[.,.]``, ``int[1080,1920]``, scalars);
* WITH-loops with multiple generators, relational bounds (``<=``/``<``),
  dot bounds, ``step``/``width`` filters and ``genarray``/``modarray``/
  ``fold`` operations;
* C-style ``for`` loops, ``if``/``else``, assignments (including indexed
  assignment sugar), ``return``;
* arithmetic/comparison/logical operators, ``++`` array concatenation,
  array literals, vector indexing (``a[iv]``, ``a[[i,j]]``), calls.

All nodes are immutable dataclasses carrying a source location, so passes
rewrite by reconstruction and errors point at source positions.

Which fields hold sub-expressions and sub-statements is written down once,
as each class's ``_child_fields``, and read by :func:`children`,
:func:`walk` and :func:`map_children`.  A WITH-loop's generators, their
bounds and its operation are *parts* of the loop, not children: their
expressions and statements are the loop's own children, so a walker
visits every expression and statement without knowing the parts.  A
rebuild (:func:`map_children`, :func:`rebuild`) returns the node itself
when nothing under it changed, so an unchanged subtree stays shared.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from operator import is_
from typing import Callable, Iterator

from repro.errors import SacSemanticError, SourceLocation

__all__ = [
    "Node", "TypeSpec", "Param", "FunDef", "Program",
    "Expr", "IntLit", "FloatLit", "BoolLit", "ArrayLit", "Var", "IndexExpr",
    "BinExpr", "UnExpr", "Call", "WithLoop", "Generator", "GenBound", "Dot",
    "GenArray", "ModArray", "Fold", "Operation",
    "Stmt", "Assign", "IndexedAssign", "ForLoop", "IfElse", "Return", "Block",
    "children", "walk", "map_children", "rebuild",
]

_NOLOC = SourceLocation(0, 0, "<builtin>")


@dataclass(frozen=True)
class Node:
    """Base of all AST nodes."""

    loc: SourceLocation = field(default=_NOLOC, compare=False, kw_only=True)

    #: the fields holding sub-expressions, sub-statements or WITH-loop
    #: parts, in field order (a class attribute, not a dataclass field)
    _child_fields = ()


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TypeSpec(Node):
    """A SaC type pattern.

    ``dims`` is ``None`` for scalars; otherwise a tuple whose entries are
    ints (static extents), ``"."`` (one unknown dimension), ``"*"`` (any
    number of dimensions, must be alone) or ``"+"`` (one or more dimensions,
    must be alone).
    """

    base: str  # "int" | "float" | "double" | "bool" | "void"
    dims: tuple[int | str, ...] | None = None

    @property
    def is_scalar(self) -> bool:
        return self.dims is None

    @property
    def is_static(self) -> bool:
        return self.dims is not None and all(isinstance(d, int) for d in self.dims)

    def __str__(self) -> str:
        if self.dims is None:
            return self.base
        return f"{self.base}[{','.join(str(d) for d in self.dims)}]"


@dataclass(frozen=True)
class Param(Node):
    type: TypeSpec = None  # type: ignore[assignment]
    name: str = ""


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------


class Expr(Node):
    """Base of expressions."""


@dataclass(frozen=True)
class IntLit(Expr):
    value: int = 0


@dataclass(frozen=True)
class FloatLit(Expr):
    value: float = 0.0


@dataclass(frozen=True)
class BoolLit(Expr):
    value: bool = False


@dataclass(frozen=True)
class ArrayLit(Expr):
    """``[e0, e1, ...]`` — one-dimensional unless elements are arrays."""

    elements: tuple[Expr, ...] = ()

    _child_fields = ("elements",)


@dataclass(frozen=True)
class Var(Expr):
    name: str = ""


@dataclass(frozen=True)
class IndexExpr(Expr):
    """``array[index]`` — SaC vector selection.

    ``index`` is a single expression evaluating to a scalar (first-axis
    selection) or an index vector selecting along the first ``len`` axes.
    The paper's ``a[[i,j,k]]`` form is this node with an ArrayLit index.
    Chained selection ``a[i][j]`` parses as nested IndexExpr.
    """

    array: Expr = None  # type: ignore[assignment]
    index: Expr = None  # type: ignore[assignment]

    _child_fields = ("array", "index")


@dataclass(frozen=True)
class BinExpr(Expr):
    """Binary operation; ``op`` in + - * / % < <= > >= == != && || ++ min max."""

    op: str = ""
    lhs: Expr = None  # type: ignore[assignment]
    rhs: Expr = None  # type: ignore[assignment]

    _child_fields = ("lhs", "rhs")


@dataclass(frozen=True)
class UnExpr(Expr):
    """Unary operation; ``op`` in - !"""

    op: str = ""
    operand: Expr = None  # type: ignore[assignment]

    _child_fields = ("operand",)


@dataclass(frozen=True)
class Call(Expr):
    name: str = ""
    args: tuple[Expr, ...] = ()

    _child_fields = ("args",)


# -- WITH-loops ---------------------------------------------------------------


@dataclass(frozen=True)
class Dot(Expr):
    """The ``.`` bound inside a generator (take from operation context)."""


@dataclass(frozen=True)
class GenBound(Node):
    """One side of a generator range: expression + relational operator."""

    expr: Expr = None  # type: ignore[assignment]
    op: str = "<="  # "<=" or "<"

    _child_fields = ("expr",)


@dataclass(frozen=True)
class Generator(Node):
    """One generator part of a WITH-loop.

    ``vars`` is a single name (vector index variable) or several names
    (destructuring: ``[i,j]``).  ``body`` holds the local statements before
    the ``: expr`` that yields the cell value.
    """

    lower: GenBound = None  # type: ignore[assignment]
    vars: tuple[str, ...] = ()
    destructured: bool = False
    upper: GenBound = None  # type: ignore[assignment]
    step: Expr | None = None
    width: Expr | None = None
    body: tuple["Stmt", ...] = ()
    expr: Expr = None  # type: ignore[assignment]

    _child_fields = ("lower", "upper", "step", "width", "body", "expr")

    @property
    def var(self) -> str:
        """The vector index variable name (only when not destructured)."""
        if self.destructured:
            raise ValueError("generator uses destructured index variables")
        return self.vars[0]


class Operation(Node):
    """Base of WITH-loop operations."""


@dataclass(frozen=True)
class GenArray(Operation):
    """``genarray(shape)`` or ``genarray(shape, default)``."""

    shape: Expr = None  # type: ignore[assignment]
    default: Expr | None = None

    _child_fields = ("shape", "default")


@dataclass(frozen=True)
class ModArray(Operation):
    """``modarray(array)`` — start from a copy of ``array``."""

    array: Expr = None  # type: ignore[assignment]

    _child_fields = ("array",)


@dataclass(frozen=True)
class Fold(Operation):
    """``fold(fun, neutral)`` — reduce cell values with a builtin."""

    fun: str = ""
    neutral: Expr = None  # type: ignore[assignment]

    _child_fields = ("neutral",)


@dataclass(frozen=True)
class WithLoop(Expr):
    generators: tuple[Generator, ...] = ()
    operation: Operation = None  # type: ignore[assignment]

    _child_fields = ("generators", "operation")


# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------


class Stmt(Node):
    """Base of statements."""


@dataclass(frozen=True)
class Assign(Stmt):
    name: str = ""
    value: Expr = None  # type: ignore[assignment]

    _child_fields = ("value",)


@dataclass(frozen=True)
class IndexedAssign(Stmt):
    """``x[idx] = value`` — SaC sugar for a single-cell modarray."""

    name: str = ""
    index: Expr = None  # type: ignore[assignment]
    value: Expr = None  # type: ignore[assignment]

    _child_fields = ("index", "value")


@dataclass(frozen=True)
class Block(Stmt):
    stmts: tuple[Stmt, ...] = ()

    _child_fields = ("stmts",)


@dataclass(frozen=True)
class ForLoop(Stmt):
    """C-style counted loop: ``for (init; cond; update) body``."""

    init: Assign = None  # type: ignore[assignment]
    cond: Expr = None  # type: ignore[assignment]
    update: Stmt = None  # type: ignore[assignment]
    body: tuple[Stmt, ...] = ()

    _child_fields = ("init", "cond", "update", "body")


@dataclass(frozen=True)
class IfElse(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    then: tuple[Stmt, ...] = ()
    orelse: tuple[Stmt, ...] = ()

    _child_fields = ("cond", "then", "orelse")


@dataclass(frozen=True)
class Return(Stmt):
    value: Expr | None = None

    _child_fields = ("value",)


# ---------------------------------------------------------------------------
# top level
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FunDef(Node):
    ret_type: TypeSpec = None  # type: ignore[assignment]
    name: str = ""
    params: tuple[Param, ...] = ()
    body: tuple[Stmt, ...] = ()

    _child_fields = ("body",)


@dataclass(frozen=True)
class Program(Node):
    functions: tuple[FunDef, ...] = ()

    def function(self, name: str) -> FunDef:
        for f in self.functions:
            if f.name == name:
                return f
        defined = ", ".join(repr(f.name) for f in self.functions) or "none"
        raise SacSemanticError(
            f"no function named {name!r} (defined: {defined})", self.loc
        )

    def replace_function(self, fun: FunDef) -> "Program":
        funs = tuple(fun if f.name == fun.name else f for f in self.functions)
        return Program(functions=funs, loc=self.loc)


# ---------------------------------------------------------------------------
# the child map
# ---------------------------------------------------------------------------

#: nodes whose expressions and statements belong to the enclosing WITH-loop
_PARTS = (GenBound, Generator, Operation)


def children(node: Node) -> list[Node]:
    """The sub-expressions and sub-statements directly under ``node``, in
    field order.

    A WITH-loop's are each generator's bounds, step, width, body statements
    and cell, then its operation's expressions.  An absent optional field
    (a step, a ``return;`` value) contributes nothing.
    """
    out: list[Node] = []
    for name in node._child_fields:
        _collect(getattr(node, name), out)
    return out


def _collect(value, out: list[Node]) -> None:
    if value is None:
        return
    if type(value) is tuple:
        for x in value:
            _collect(x, out)
    elif isinstance(value, _PARTS):
        for name in value._child_fields:
            _collect(getattr(value, name), out)
    else:
        out.append(value)


def walk(node: Node) -> Iterator[Node]:
    """``node`` and every node under it, pre-order through :func:`children`."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


def map_children(node: Node, f: Callable[[Node], Node]) -> Node:
    """``node`` rebuilt from ``f`` of each of its :func:`children`.

    Returns ``node`` itself when every child comes back as the same object,
    and keeps each part (generator, bound, operation) whose children all
    did.
    """
    changed = {}
    for name in node._child_fields:
        old = getattr(node, name)
        new = _map(old, f)
        if new is not old:
            changed[name] = new
    return replace(node, **changed) if changed else node


def _map(value, f):
    if value is None:
        return None
    if type(value) is tuple:
        new = tuple([_map(x, f) for x in value])
        return value if all(map(is_, new, value)) else new
    if isinstance(value, _PARTS):
        return map_children(value, f)
    return f(value)


def rebuild(node: Node, **fields) -> Node:
    """``node`` with ``fields`` replaced, or ``node`` itself when each new
    value is the object the field holds.

    A tuple counts as the same when each of its elements is, so a pass
    that rebuilds a statement list from the very statements it held
    returns ``node``.
    """
    for name, value in fields.items():
        old = getattr(node, name)
        if value is not old and not (
            type(value) is tuple
            and type(old) is tuple
            and len(value) == len(old)
            and all(map(is_, value, old))
        ):
            return replace(node, **fields)
    return node
