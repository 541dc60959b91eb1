"""ArrayOL tiler lint: injectivity and coverage as diagnostics.

:mod:`repro.arrayol.validate` raises ``ModelValidationError`` on the first
output tiler violating single assignment or exactness.  This analyzer walks
the whole task tree and reports *every* finding instead:

* **TILER001** (error) — an output tiler addresses some array element more
  than once, so repetitions of the inner task would write it twice;
* **TILER002** — elements never addressed: an *error* on output tilers
  (the task fails to produce its whole array) and an *info* note on input
  tilers (reading a strict subset of an input is legal, but often means
  the producer computed data nobody consumes).
"""

from __future__ import annotations

from repro.analysis.diagnostics import Diagnostic
from repro.arrayol.model import (
    ApplicationModel,
    CompoundTask,
    RepetitiveTask,
    Task,
)
from repro.tilers import Tiler, coverage_counts

__all__ = ["lint_tiler", "lint_model"]


def lint_tiler(tiler: Tiler, role: str = "output", location: str = "") -> list[Diagnostic]:
    """Diagnostics for one tiler used as an ``"input"`` or ``"output"``."""
    where = location or f"{role} tiler over array {tiler.array_shape}"
    out: list[Diagnostic] = []
    dups, missing = coverage_counts(tiler)
    if role == "output" and dups:
        out.append(
            Diagnostic(
                code="TILER001",
                severity="error",
                message=(
                    f"output tiler addresses {dups} element(s) more than once "
                    f"(single assignment violated)"
                ),
                location=where,
                hint="adjust paving/fitting so repetitions write disjoint tiles",
            )
        )
    if missing:
        out.append(
            Diagnostic(
                code="TILER002",
                severity="error" if role == "output" else "info",
                message=(
                    f"{role} tiler leaves {missing} element(s) unaddressed"
                    + ("" if role == "output" else " (partial read)")
                ),
                location=where,
                hint=(
                    "extend the repetition space or paving to cover the array"
                    if role == "output"
                    else "shrink the producer array if the data is never read"
                ),
            )
        )
    return out


def _lint_task(task: Task, out: list[Diagnostic]) -> None:
    if isinstance(task, RepetitiveTask):
        for conn in task.input_tilers:
            out.extend(
                lint_tiler(
                    conn.tiler,
                    role="input",
                    location=f"task {task.name!r} port {conn.inner_port!r}",
                )
            )
        for conn in task.output_tilers:
            out.extend(
                lint_tiler(
                    conn.tiler,
                    role="output",
                    location=f"task {task.name!r} port {conn.inner_port!r}",
                )
            )
        if task.inner is not None:
            _lint_task(task.inner, out)
    elif isinstance(task, CompoundTask):
        for inst in task.instances:
            _lint_task(inst.task, out)


def lint_model(model: ApplicationModel) -> list[Diagnostic]:
    """All tiler findings over a whole application model."""
    out: list[Diagnostic] = []
    _lint_task(model.top, out)
    return out
