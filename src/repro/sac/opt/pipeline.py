"""The SaC high-level optimisation pipeline.

Mirrors the structure the paper describes for the SaC compiler: inline,
then iterate partial evaluation, WITH-loop folding and dead-code
elimination to a fixpoint.  Every pass is semantics-preserving (checked by
the interpreter-equivalence property tests).  WITH-loop folding can be
turned off, for the paper's ablation; the other passes always run.

Each pass returns the very object it was given when it changes nothing
under it (see :mod:`repro.sac.opt.rewrite`), so the fixpoint check, a
structural ``==``, resolves by identity on the last round.
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
    """Whether WITH-loop folding runs (on by default)."""

    wlf: bool = True

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
    fun = normalize_function(inline_function(program, name))

    for _ in range(_MAX_ITERATIONS):
        before = fun
        fun = fold_function(fun)
        if flags.wlf:
            fun = wlf_function(fun)
        fun = fold_function(fun)
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
