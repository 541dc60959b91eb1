"""The SaC high-level optimisation pipeline.

Mirrors the structure the paper describes for the SaC compiler: inline,
then iterate partial evaluation, WITH-loop folding and dead-code
elimination to a fixpoint.  Every pass is semantics-preserving (checked by
the interpreter-equivalence property tests), and each can be disabled for
the ablation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import OptimisationError
from repro.sac import ast
from repro.sac.opt.constant_fold import fold_function
from repro.sac.opt.dce import dce_function
from repro.sac.opt.inline import inline_function
from repro.sac.opt.normalize import normalize_function
from repro.sac.opt.wlf import wlf_function

__all__ = ["OptimisationFlags", "optimize_program", "optimize_function"]

_MAX_ITERATIONS = 24


@dataclass(frozen=True)
class OptimisationFlags:
    """Pass toggles (for ablations; everything on by default)."""

    inline: bool = True
    fold: bool = True
    wlf: bool = True
    dce: bool = True

    @staticmethod
    def none() -> "OptimisationFlags":
        return OptimisationFlags(inline=False, fold=False, wlf=False, dce=False)

    @staticmethod
    def no_wlf() -> "OptimisationFlags":
        """Everything except WITH-loop folding (the paper's key ablation)."""
        return OptimisationFlags(wlf=False)


def optimize_function(
    program: ast.Program,
    name: str,
    flags: OptimisationFlags = OptimisationFlags(),
) -> ast.FunDef:
    """Optimise one function in the context of its program.

    Returns the optimised definition; callers needing a whole program use
    :func:`optimize_program`.
    """
    fun = program.function(name)
    if flags.inline:
        fun = inline_function(program.replace_function(fun), name)
    fun = normalize_function(fun)

    for _ in range(_MAX_ITERATIONS):
        before = fun
        if flags.fold:
            fun = fold_function(fun)
        if flags.wlf:
            fun = wlf_function(fun)
        if flags.fold:
            fun = fold_function(fun)
        if flags.dce:
            fun = dce_function(fun)
        if fun == before:
            return fun
    raise OptimisationError(
        f"optimisation of {name!r} did not reach a fixpoint after "
        f"{_MAX_ITERATIONS} iterations"
    )


def optimize_program(
    program: ast.Program,
    entry: str | None = None,
    flags: OptimisationFlags = OptimisationFlags(),
) -> ast.Program:
    """Optimise every function (or just ``entry``) of a program."""
    if entry is not None:
        return program.replace_function(optimize_function(program, entry, flags))
    out = program
    for f in program.functions:
        out = out.replace_function(optimize_function(out, f.name, flags))
    return out
