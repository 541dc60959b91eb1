"""Compile stages: the steps a route's compilation is made of.

Both routes compile as a fixed sequence of stages.  A :class:`Stage`
names itself after the wall benchmark's layer (``sac.opt``,
``arrayol.transform.emit_program``, ``ir.validate``) and declares the
inputs it reads besides its upstream artefact, as a pass in taichi's
compiler declares its ``Args``.  The one-shot entry points
(:func:`~repro.sac.backend.compile_function`, a Gaspard2
:class:`~repro.arrayol.transform.TransformationChain`) run a route's
stages once; :class:`~repro.runtime.cache.CompileCache` runs the same
list with one memo per stage, keyed by the upstream stage's key plus the
stage's declared inputs, so configurations that differ only in a late
stage share every stage before it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["Stage"]


@dataclass(frozen=True)
class Stage:
    """One compile stage."""

    #: the span name, after the wall benchmark layer the stage belongs to
    name: str
    #: everything the stage reads besides its upstream artefact
    #: (:func:`~repro.runtime.cache.canonical`-serialisable)
    inputs: tuple
    #: upstream artefact -> this stage's artefact; never mutates its argument
    run: Callable[[Any], Any]
