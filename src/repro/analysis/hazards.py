"""Hazard/race detection over device programs.

Builds a **happens-before graph** over one run of a program's operations,
modelling the stream semantics of the ``memcpy*async`` calls both routes
issue (the paper's Tables I/II):

* three engines (H2D copy, compute, D2H copy) execute in FIFO order;
* a kernel launch additionally waits for the last *writer* of every buffer
  it touches; a ``DeviceToHost`` waits for the writer of its buffer;
* a ``HostCompute`` waits for the downloads it reads and then acts as a
  forward barrier (the host issues subsequent ops after it finishes);
* ``FreeDevice`` and synchronous transfers (``is_async=False``) behave as
  full barriers (``cudaFree``/blocking ``cudaMemcpy`` synchronise).

Any two operations that access overlapping elements of the same device
buffer or host array, where at least one access is a write and **no
happens-before path** connects them, are flagged as RACE001 (write/write)
or RACE002 (read/write).  These are exactly the interleavings the paper's
``memcpyHtoDasync`` calls make legal.

Every edge is an engine-FIFO, writer-to-reader or barrier edge; the graph
has no reader-to-writer (WAR) edges, so a write after an unordered read of
the same elements is reported even though the runtime scheduler
(:func:`repro.runtime.schedule.build_schedule`) would order it.  The model
covers one run of the program.  Orderings across runs, such as the WAR
waits of a recycled buffer slot, are checked on the built schedule by
:func:`repro.runtime.schedule.schedule_violations`; ``repro pipeline
--lint`` applies both checks.

Whether two accesses overlap is the access-region oracle's answer
(:mod:`repro.analysis.regions`): accesses touching provably disjoint
strided boxes of the resource (a kernel writing one tile while a partial
transfer moves another) cannot race and are not reported, and an access
the oracle cannot box counts as touching the whole resource.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.regions import RegionOracle
from repro.ir.program import (
    AllocDevice,
    DeviceProgram,
    DeviceToHost,
    FreeDevice,
    HostCompute,
    HostToDevice,
    LaunchKernel,
    Op,
)

__all__ = ["HappensBefore", "build_happens_before", "find_hazards"]

#: resource kinds used in access records
_DEV = "device buffer"
_HOST = "host array"


@dataclass(frozen=True)
class _Access:
    node: int  # op index
    resource: tuple[str, str]  # (kind, name)
    write: bool


class HappensBefore:
    """The happens-before relation over a program's op indices."""

    def __init__(self, program: DeviceProgram):
        self.program = program
        self.nodes: list[int] = []
        self.edges: dict[int, set[int]] = {}
        self.accesses: list[_Access] = []
        self._reach: dict[int, int] | None = None

    def add_node(self, i: int) -> None:
        self.nodes.append(i)
        self.edges.setdefault(i, set())

    def add_edge(self, src: int | None, dst: int) -> None:
        if src is not None and src != dst:
            self.edges.setdefault(src, set()).add(dst)

    def ordered(self, i: int, j: int) -> bool:
        """True when a happens-before path connects ``i`` and ``j``."""
        if self._reach is None:
            self._reach = self._reachability()
        lo, hi = (i, j) if i < j else (j, i)
        return bool(self._reach[lo] >> hi & 1)

    def _reachability(self) -> dict[int, int]:
        # edges always point forward in op order, so one reverse sweep
        # computes full transitive reachability as bitsets
        reach: dict[int, int] = {}
        for i in sorted(self.nodes, reverse=True):
            bits = 1 << i
            for j in self.edges.get(i, ()):
                bits |= reach[j]
            reach[i] = bits
        return reach


def build_happens_before(program: DeviceProgram) -> HappensBefore:
    """Construct the happens-before graph for ``program``."""
    hb = HappensBefore(program)
    last_on_engine: dict[str, int | None] = {"h2d": None, "compute": None, "d2h": None}
    last_dev_writer: dict[str, int] = {}
    last_d2h_into: dict[str, int] = {}  # host array -> D2H node
    last_barrier: int | None = None
    since_barrier: list[int] = []

    def new_node(i: int, engine: str | None) -> None:
        hb.add_node(i)
        hb.add_edge(last_barrier, i)
        if engine is not None:
            hb.add_edge(last_on_engine[engine], i)
            last_on_engine[engine] = i
        since_barrier.append(i)

    def make_barrier(i: int) -> None:
        nonlocal last_barrier
        for j in since_barrier:
            hb.add_edge(j, i)
        last_barrier = i
        since_barrier.clear()

    for i, op in enumerate(program.ops):
        if isinstance(op, AllocDevice):
            continue  # host-side bookkeeping; no data movement
        if isinstance(op, FreeDevice):
            new_node(i, None)
            make_barrier(i)  # cudaFree synchronises the device
            last_dev_writer.pop(op.buffer, None)
            continue
        if isinstance(op, HostToDevice):
            new_node(i, "h2d")
            hb.accesses.append(_Access(i, (_HOST, op.host), write=False))
            hb.accesses.append(_Access(i, (_DEV, op.device), write=True))
            last_dev_writer[op.device] = i
            if not op.is_async:
                make_barrier(i)  # blocking cudaMemcpy
        elif isinstance(op, DeviceToHost):
            new_node(i, "d2h")
            hb.add_edge(last_dev_writer.get(op.device), i)
            hb.accesses.append(_Access(i, (_DEV, op.device), write=False))
            hb.accesses.append(_Access(i, (_HOST, op.host), write=True))
            last_d2h_into[op.host] = i
            if not op.is_async:
                make_barrier(i)
        elif isinstance(op, LaunchKernel):
            new_node(i, "compute")
            for param, buf in op.array_args:
                intent = op.kernel.array(param).intent
                hb.add_edge(last_dev_writer.get(buf), i)
                if intent in ("in", "inout"):
                    hb.accesses.append(_Access(i, (_DEV, buf), write=False))
                if intent in ("out", "inout"):
                    hb.accesses.append(_Access(i, (_DEV, buf), write=True))
                    last_dev_writer[buf] = i
        elif isinstance(op, HostCompute):
            new_node(i, None)
            for name in op.reads:
                hb.add_edge(last_d2h_into.get(name), i)
                hb.accesses.append(_Access(i, (_HOST, name), write=False))
            for name in op.writes:
                hb.accesses.append(_Access(i, (_HOST, name), write=True))
            make_barrier(i)  # the host issues subsequent ops after this step
        elif isinstance(op, Op):
            # unknown op kinds order conservatively as barriers
            new_node(i, None)
            make_barrier(i)
    return hb


def _describe(i: int, op: Op) -> str:
    if isinstance(op, HostToDevice):
        mode = "" if op.is_async else " (sync)"
        return f"ops[{i}] h2d {op.host!r}->{op.device!r}{mode}"
    if isinstance(op, DeviceToHost):
        mode = "" if op.is_async else " (sync)"
        return f"ops[{i}] d2h {op.device!r}->{op.host!r}{mode}"
    if isinstance(op, LaunchKernel):
        return f"ops[{i}] launch {op.kernel.name!r}"
    if isinstance(op, HostCompute):
        return f"ops[{i}] host step {op.name!r}"
    if isinstance(op, FreeDevice):
        return f"ops[{i}] free {op.buffer!r}"
    return f"ops[{i}] {type(op).__name__}"


def find_hazards(program: DeviceProgram) -> list[Diagnostic]:
    """All unordered conflicting access pairs of ``program``: op pairs with
    no happens-before path whose access boxes on a shared resource
    intersect, at least one of them a write."""
    hb = build_happens_before(program)
    by_resource: dict[tuple[str, str], list[_Access]] = {}
    for acc in hb.accesses:
        by_resource.setdefault(acc.resource, []).append(acc)

    oracle = RegionOracle(program)
    out: list[Diagnostic] = []
    seen: set[tuple[int, int, tuple[str, str]]] = set()
    for resource, accs in by_resource.items():
        for a in range(len(accs)):
            for b in range(a + 1, len(accs)):
                x, y = accs[a], accs[b]
                if x.node == y.node:
                    continue
                if not (x.write or y.write):
                    continue
                key = (min(x.node, y.node), max(x.node, y.node), resource)
                if key in seen:
                    continue
                if hb.ordered(x.node, y.node):
                    continue
                # a disjoint pair is no race, but a later overlapping
                # access-mode combination of the same op pair still is —
                # so do not mark the pair as seen here
                if not oracle.pair_conflicts(x.node, x.write, y.node, y.write, resource):
                    continue
                seen.add(key)
                kind, name = resource
                both_write = x.write and y.write
                code = "RACE001" if both_write else "RACE002"
                flavour = "write/write" if both_write else "read/write"
                ops = program.ops
                first, second = sorted((x.node, y.node))
                out.append(
                    Diagnostic(
                        code=code,
                        severity="error",
                        message=(
                            f"unordered {flavour} on {kind} {name!r}: "
                            f"{_describe(first, ops[first])} vs "
                            f"{_describe(second, ops[second])}"
                        ),
                        location=f"program {program.name!r}",
                        hint=(
                            "order the operations (synchronous transfer, host "
                            "sync, or reorder so a dependence edge exists)"
                        ),
                    )
                )
    out.sort(key=lambda d: d.message)
    return out
