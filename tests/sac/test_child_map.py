"""The SaC AST's child map and the optimiser's identity rule.

:func:`repro.sac.ast.children`, :func:`~repro.sac.ast.walk` and
:func:`~repro.sac.ast.map_children` are the one place that knows which
fields hold sub-expressions and sub-statements.  The instances below are
built from the dataclass fields and their annotations, not from that
map, so a node-valued field added without updating the map fails here.
"""

import dataclasses
import itertools
import types
import typing

import pytest

from repro.apps.convolution import convolution_program_source, gaussian3, gaussian5
from repro.apps.downscaler.config import CIF
from repro.apps.downscaler.sac_sources import (
    GENERIC,
    NONGENERIC,
    downscaler_program_source,
)
from repro.sac import ast
from repro.sac.opt import pipeline
from repro.sac.parser import parse

_BASES = (ast.Expr, ast.Stmt, ast.Operation)
_CLASSES = [
    c for c in (getattr(ast, name) for name in ast.__all__)
    if isinstance(c, type) and c not in _BASES
]
_NODES = [c for c in _CLASSES if issubclass(c, (ast.Expr, ast.Stmt))]
_OPERATIONS = [c for c in _CLASSES if issubclass(c, ast.Operation)]
#: every concrete expression and statement class; a WITH-loop once per
#: operation
CASES = [
    pytest.param(cls, op, id=cls.__name__ + (f"-{op.__name__}" if op else ""))
    for cls in _NODES
    for op in (_OPERATIONS if cls is ast.WithLoop else [None])
]


def _node_class(hint) -> type | None:
    """The node class a field annotation names, optional or not."""
    args = [a for a in typing.get_args(hint) if a is not type(None)]
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        hint = args[0] if len(args) == 1 else None
    return hint if isinstance(hint, type) and issubclass(hint, ast.Node) else None


def built(cls, operation, markers: list):
    """An instance of ``cls`` whose node-valued fields each hold a fresh
    marker (two in a tuple field), appended to ``markers`` in field order.
    Generators, bounds and the operation are built the same way, with
    markers of their own."""
    hints = typing.get_type_hints(cls, vars(ast))
    values = {}
    for f in dataclasses.fields(cls):
        if f.name == "loc":
            continue
        hint = hints[f.name]
        if typing.get_origin(hint) is tuple:
            elem = _node_class(typing.get_args(hint)[0])
            if elem is not None:
                values[f.name] = tuple(_value(elem, operation, markers) for _ in range(2))
            continue
        node_cls = _node_class(hint)
        if node_cls is not None:
            values[f.name] = _value(node_cls, operation, markers)
    return cls(**values)


def _value(cls, operation, markers: list):
    if cls is ast.Operation:
        return built(operation, None, markers)
    if cls in (ast.Generator, ast.GenBound):
        return built(cls, operation, markers)
    n = len(markers)
    marker = ast.Var(name=f"m{n}") if issubclass(cls, ast.Expr) else ast.Assign(name=f"m{n}")
    markers.append(marker)
    return marker


def _same_objects(got, want) -> bool:
    return len(got) == len(want) and all(a is b for a, b in zip(got, want))


def _holds(value, marker) -> bool:
    if value is marker:
        return True
    if isinstance(value, tuple):
        return any(_holds(x, marker) for x in value)
    if dataclasses.is_dataclass(value):
        return any(_holds(getattr(value, f.name), marker) for f in dataclasses.fields(value))
    return False


def assert_only_path_rebuilt(old, new, marker, replacement) -> None:
    """``new`` is ``old`` with ``marker`` replaced, and every value that
    does not hold ``marker`` (field, tuple, part) is the same object."""
    if old is marker:
        assert new is replacement
        return
    if not _holds(old, marker):
        assert new is old
        return
    assert new is not old and type(new) is type(old)
    if isinstance(old, tuple):
        assert len(new) == len(old)
        pairs = zip(old, new)
    else:
        pairs = ((getattr(old, f.name), getattr(new, f.name)) for f in dataclasses.fields(old))
    for a, b in pairs:
        assert_only_path_rebuilt(a, b, marker, replacement)


def test_every_node_class_is_covered():
    names = {c.__name__ for c in _NODES}
    assert {"WithLoop", "ForLoop", "IfElse", "Block", "Return", "Call"} <= names
    assert {c.__name__ for c in _OPERATIONS} == {"GenArray", "ModArray", "Fold"}


@pytest.mark.parametrize("cls, operation", CASES)
def test_children_yield_each_child_once_in_field_order(cls, operation):
    markers = []
    node = built(cls, operation, markers)
    assert _same_objects(ast.children(node), markers)


@pytest.mark.parametrize("cls, operation", CASES)
def test_map_children_rebuilds_only_the_position_it_changed(cls, operation):
    markers = []
    node = built(cls, operation, markers)
    assert ast.map_children(node, lambda c: c) is node
    for i, marker in enumerate(markers):
        replacement = (
            ast.Var(name="new") if isinstance(marker, ast.Expr) else ast.Assign(name="new")
        )
        new = ast.map_children(node, lambda c: replacement if c is marker else c)
        assert_only_path_rebuilt(node, new, marker, replacement)
        assert _same_objects(ast.children(new), markers[:i] + [replacement] + markers[i + 1:])


def test_absent_optional_children_are_skipped():
    assert ast.children(ast.Return()) == []
    shape = ast.Var(name="s")
    assert _same_objects(ast.children(ast.GenArray(shape=shape)), [shape])
    gen = ast.Generator(lower=ast.GenBound(expr=ast.Dot()), upper=ast.GenBound(expr=ast.Dot()),
                        vars=("iv",), expr=ast.Var(name="iv"))
    wl = ast.WithLoop(generators=(gen,), operation=ast.GenArray(shape=shape))
    assert _same_objects(ast.children(wl), [gen.lower.expr, gen.upper.expr, gen.expr, shape])
    assert ast.map_children(ast.Return(), lambda c: ast.Var(name="x")) == ast.Return()


_SOURCE = """
int[8] main(int[8] a, int n) {
  b = with { ([0] <= iv < [8] step [2] width [1]) { t = a[iv] * 2; } : t + n; }
      : genarray([8], 0);
  for (i = 0; i < 4; i = i + 1) { if (i > n) { b[[i]] = b[[i]] + 1; } else { { n = n - 1; } } }
  return b;
}
"""


def test_walk_is_preorder_over_children():
    fun = parse(_SOURCE).function("main")

    def preorder(node):
        return [node, *itertools.chain.from_iterable(preorder(c) for c in ast.children(node))]

    walked = list(ast.walk(fun))
    assert _same_objects(walked, preorder(fun))
    kinds = {type(n).__name__ for n in walked}
    assert {"WithLoop", "ForLoop", "IfElse", "Block", "IndexedAssign", "Return"} <= kinds


# ---------------------------------------------------------------------------
# the identity rule
# ---------------------------------------------------------------------------

_PROGRAMS = {
    **{
        f"downscaler-{variant}-cif-p{paving}": (
            lambda v=variant, p=paving: downscaler_program_source(CIF, v, paving=p),
            "downscale",
        )
        for variant in (NONGENERIC, GENERIC)
        for paving in (1, 2)
    },
    **{
        f"convolution-{make.__name__}-96x128": (
            lambda m=make: convolution_program_source(m(96, 128)),
            "blur",
        )
        for make in (gaussian3, gaussian5)
    },
}

_ROUND = ["fold_function", "wlf_function", "fold_function", "dce_function"]


@pytest.mark.parametrize("name", sorted(_PROGRAMS))
def test_each_pass_returns_its_input_on_the_last_fixpoint_round(name, monkeypatch):
    """A pass that changes nothing under a function returns that very
    function, so the fixpoint's ``fun == before`` holds by identity."""
    calls = []
    for pass_name in set(_ROUND):
        def recorded(fun, _run=getattr(pipeline, pass_name), _name=pass_name):
            out = _run(fun)
            calls.append((_name, fun, out))
            return out

        monkeypatch.setattr(pipeline, pass_name, recorded)
    source, entry = _PROGRAMS[name]
    fun = pipeline.optimize_function(parse(source()), entry)
    assert len(calls) > len(_ROUND)  # the optimiser did work before the last round
    last = calls[-len(_ROUND):]
    assert [n for n, _, _ in last] == _ROUND
    for pass_name, given, out in last:
        assert out is given, pass_name
    assert last[-1][2] is fun
