"""The Gaspard2-style model transformation chain (paper Section V-B).

In MDE a compilation is a sequence of model-to-model transformations ending
in model-to-text.  The chain here mirrors Gaspard2's OpenCL chain: each
:class:`ModelPass` refines a :class:`GaspardContext` (the "model" being
transformed), and the chain records a trace of what every pass added — the
MDE equivalent of compiler pass logging.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Callable

from repro.errors import TransformError
from repro.arrayol.marte import Allocation
from repro.arrayol.model import ApplicationModel
from repro.ir.kernel import Kernel
from repro.ir.program import DeviceProgram, Op

__all__ = ["GaspardContext", "ModelPass", "TransformationChain", "apply_pass", "emitted"]


@dataclass
class GaspardContext:
    """The artefact flowing through the chain."""

    model: ApplicationModel
    allocation: Allocation
    schedule: list[str] = field(default_factory=list)
    buffers: dict[tuple[str, str], str] = field(default_factory=dict)
    buffer_shapes: dict[str, tuple[int, ...]] = field(default_factory=dict)
    buffer_dtypes: dict[str, str] = field(default_factory=dict)
    ndranges: dict[str, tuple[int, ...]] = field(default_factory=dict)
    kernels: dict[str, Kernel] = field(default_factory=dict)
    ops: list[Op] = field(default_factory=list)
    program: DeviceProgram | None = None
    sources: dict[str, str] = field(default_factory=dict)
    #: analyzer findings (populated by the optional ``analyze`` pass)
    diagnostics: list = field(default_factory=list)
    #: repro.opt.OptReport (populated by the optional ``optimize`` pass)
    opt_report: object = None

    def copy(self) -> "GaspardContext":
        """A copy whose lists and dicts a pass can change without touching
        this context (the values in them are shared)."""
        return replace(self, **{
            f.name: type(value)(value)
            for f in fields(self)
            if isinstance(value := getattr(self, f.name), (list, dict))
        })


@dataclass(frozen=True)
class ModelPass:
    """One transformation step."""

    name: str
    apply: Callable[[GaspardContext], None]
    description: str = ""
    #: what ``apply`` reads besides the context (a compile cache keys the
    #: pass's result on them)
    inputs: tuple = ()


def apply_pass(p: ModelPass, ctx: GaspardContext) -> str:
    """Apply ``p`` to ``ctx`` in place; returns the pass's trace line."""
    try:
        p.apply(ctx)
    except TransformError:
        raise
    except Exception as err:  # noqa: BLE001 - annotate pass name
        raise TransformError(f"pass failed: {err}", p.name) from err
    return (
        f"{p.name}: schedule={len(ctx.schedule)} buffers={len(ctx.buffer_shapes)} "
        f"kernels={len(ctx.kernels)} ops={len(ctx.ops)}"
    )


def emitted(ctx: GaspardContext) -> GaspardContext:
    """``ctx``, once a chain has emitted its program."""
    if ctx.program is None:
        raise TransformError("chain finished without emitting a program")
    return ctx


class TransformationChain:
    """An ordered list of passes with an execution trace."""

    def __init__(self, passes: tuple[ModelPass, ...]):
        self.passes = tuple(passes)
        self.trace: list[str] = []

    def run(self, ctx: GaspardContext) -> GaspardContext:
        """Apply every pass to ``ctx`` in place, once."""
        self.trace.clear()
        for p in self.passes:
            self.trace.append(apply_pass(p, ctx))
        return emitted(ctx)
