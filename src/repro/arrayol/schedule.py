"""Scheduling of ArrayOL compound tasks.

ArrayOL only expresses true data dependences (paper Section II-A): any
schedule respecting them computes the same result.  We derive the canonical
one — a deterministic topological order of the instance dataflow graph —
plus the buffer liveness information the transformation chain uses for
allocation.
"""

from __future__ import annotations

import heapq

from repro.errors import SchedulingError
from repro.arrayol.model import CompoundTask
from repro.arrayol.validate import dataflow_graph

__all__ = ["schedule_instances", "buffer_bindings"]


def schedule_instances(task: CompoundTask) -> list[str]:
    """Deterministic topological order of the compound's instances: the
    lexicographically smallest one (Kahn's algorithm, smallest ready
    instance first)."""
    graph = dataflow_graph(task)
    indegree = dict.fromkeys(graph, 0)
    for succ in graph.values():
        for node in succ:
            indegree[node] += 1
    ready = [node for node, d in indegree.items() if d == 0]
    heapq.heapify(ready)
    order: list[str] = []
    while ready:
        node = heapq.heappop(ready)
        order.append(node)
        for succ in graph[node]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                heapq.heappush(ready, succ)
    if len(order) < len(graph):
        raise SchedulingError("dataflow graph has a cycle", task.name)
    return order


def buffer_bindings(task: CompoundTask) -> dict[tuple[str, str], str]:
    """Map every linked instance port to its dataflow buffer name.

    Endpoints connected by a link share a buffer; compound ports use their
    own names (they are the application's external arrays).
    """
    bindings: dict[tuple[str, str], str] = {}
    for link in task.links:
        if link.src[0] == "":
            buf = link.src[1]
        elif link.dst[0] == "":
            buf = link.dst[1]
        else:
            buf = f"{link.src[0]}_{link.src[1]}"
        bindings[link.src] = buf
        bindings[link.dst] = buf
    return bindings
