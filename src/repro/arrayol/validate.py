"""Model validation: the GILR well-formedness rules.

Checks (paper Section II-A):

* tiler geometry matches the ports it connects (array shape, pattern
  shape, repetition space);
* output tilers respect single assignment (no array element written
  twice) and produce the whole array (exactness);
* compound links connect existing ports with equal shapes and compatible
  directions, every input is driven exactly once, and the dataflow graph
  is acyclic (a schedule exists).
"""

from __future__ import annotations

import networkx as nx

from repro.errors import ModelValidationError, SchedulingError
from repro.arrayol.model import (
    ApplicationModel,
    CompoundTask,
    ElementaryTask,
    IOTask,
    RepetitiveTask,
    Task,
)
from repro.tilers import coverage_counts

__all__ = ["validate_model", "validate_task", "dataflow_graph"]


def validate_model(model: ApplicationModel) -> None:
    validate_task(model.top)


def validate_task(task: Task) -> None:
    if isinstance(task, RepetitiveTask):
        _validate_repetitive(task)
        validate_task(task.inner)
    elif isinstance(task, CompoundTask):
        _validate_compound(task)
        for inst in task.instances:
            validate_task(inst.task)
    elif isinstance(task, (ElementaryTask, IOTask)):
        pass  # ElementaryTask validates itself on construction
    else:
        raise ModelValidationError(f"unknown task kind {type(task).__name__}", task.name)


def _validate_repetitive(task: RepetitiveTask) -> None:
    inner = task.inner
    if inner is None:
        raise ModelValidationError("repetitive task has no inner task", task.name)
    connected_inner: set[str] = set()
    for conn, role in [(c, "input") for c in task.input_tilers] + [
        (c, "output") for c in task.output_tilers
    ]:
        outer = task.port(conn.outer_port)
        inner_port = inner.port(conn.inner_port)
        t = conn.tiler
        if t.array_shape != outer.shape:
            raise ModelValidationError(
                f"{role} tiler on {conn.inner_port!r}: array shape "
                f"{t.array_shape} != outer port shape {outer.shape}",
                task.name,
            )
        if t.pattern_shape != inner_port.shape:
            raise ModelValidationError(
                f"{role} tiler on {conn.inner_port!r}: pattern shape "
                f"{t.pattern_shape} != inner port shape {inner_port.shape}",
                task.name,
            )
        if t.repetition_shape != task.repetition:
            raise ModelValidationError(
                f"{role} tiler on {conn.inner_port!r}: repetition space "
                f"{t.repetition_shape} != task repetition {task.repetition}",
                task.name,
            )
        if role == "input" and outer.direction != "in":
            raise ModelValidationError(
                f"input tiler bound to non-input port {conn.outer_port!r}", task.name
            )
        if role == "output":
            if outer.direction != "out":
                raise ModelValidationError(
                    f"output tiler bound to non-output port {conn.outer_port!r}",
                    task.name,
                )
            # single assignment: every element written at most once, and the
            # task must produce its whole output array
            duplicates, uncovered = coverage_counts(t)
            if duplicates:
                raise ModelValidationError(
                    f"output tiler on {conn.inner_port!r} writes elements twice "
                    f"(single assignment violated)",
                    task.name,
                )
            if uncovered:
                raise ModelValidationError(
                    f"output tiler on {conn.inner_port!r} does not produce the "
                    f"whole array",
                    task.name,
                )
        connected_inner.add(conn.inner_port)
    for p in (*inner.inputs, *inner.outputs):
        if p.name not in connected_inner:
            raise ModelValidationError(
                f"inner port {p.name!r} has no tiler connector", task.name
            )


def dataflow_graph(task: CompoundTask) -> nx.DiGraph:
    """Instance-level dependence graph (edges follow links)."""
    g = nx.DiGraph()
    for inst in task.instances:
        g.add_node(inst.name)
    for link in task.links:
        src_inst, _ = link.src
        dst_inst, _ = link.dst
        if src_inst and dst_inst:
            g.add_edge(src_inst, dst_inst)
    return g


def _endpoint_port(task: CompoundTask, end: tuple[str, str], expect: str):
    inst_name, port_name = end
    if inst_name == "":
        return task.port(port_name)
    inst = task.instance(inst_name)
    return inst.task.port(port_name)


def _validate_compound(task: CompoundTask) -> None:
    driven: set[tuple[str, str]] = set()
    for link in task.links:
        src = _endpoint_port(task, link.src, "src")
        dst = _endpoint_port(task, link.dst, "dst")
        if src.shape != dst.shape:
            raise ModelValidationError(
                f"link {link.src} -> {link.dst}: shape {src.shape} != {dst.shape}",
                task.name,
            )
        # direction: a source is an instance output or a compound input;
        # a destination is an instance input or a compound output
        src_ok = (link.src[0] == "" and src.direction == "in") or (
            link.src[0] != "" and src.direction == "out"
        )
        dst_ok = (link.dst[0] == "" and dst.direction == "out") or (
            link.dst[0] != "" and dst.direction == "in"
        )
        if not src_ok or not dst_ok:
            raise ModelValidationError(
                f"link {link.src} -> {link.dst} violates port directions", task.name
            )
        if link.dst in driven:
            raise ModelValidationError(
                f"destination {link.dst} driven by multiple links", task.name
            )
        driven.add(link.dst)

    # every instance input must be driven
    for inst in task.instances:
        for p in inst.task.inputs:
            if (inst.name, p.name) not in driven:
                raise ModelValidationError(
                    f"input {inst.name}.{p.name} is not driven", task.name
                )
    for p in task.outputs:
        if ("", p.name) not in driven:
            raise ModelValidationError(
                f"compound output {p.name!r} is not driven", task.name
            )

    g = dataflow_graph(task)
    if not nx.is_directed_acyclic_graph(g):
        cycle = nx.find_cycle(g)
        raise SchedulingError(
            f"dataflow cycle: {' -> '.join(str(e[0]) for e in cycle)}", task.name
        )
