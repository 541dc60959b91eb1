"""The three-engine pipeline scheduler: the runtime's timing core.

The paper's Tables I/II serialise the ``memcpy*async`` calls both routes
issue.  This module is the one place that computes what they would cost
overlapped: the stream-pipelining experiment, the optimiser benches, the
tuner and :class:`~repro.runtime.pipeline.FramePipeline` all read their
overlapped numbers from it.  It models:

* **three device engines** (H2D copy, compute, D2H copy — Fermi's dual
  copy engines plus the SMs) each process their operations in FIFO order;
* **true data dependences**: a kernel waits for the writers of every
  buffer it reads, a download waits for the writer of its buffer, an
  upload waits for the download that fills its host array, a host step
  waits for the downloads it consumes and blocks subsequent issue;
* **bounded double-buffering**: device buffers are backed by ``depth``
  physical slots recycled round-robin across program runs, so a write
  into a recycled slot additionally waits for every reader of the slot's
  previous occupant (a WAR dependence across runs, which the one-run
  happens-before model of :mod:`repro.analysis.hazards` does not cover);
* a **serialise knob**: with ``serialize=True`` every operation waits for
  the previous one, reproducing the paper's measured behaviour (the
  ablation baseline the overlapped numbers are reported against).

``depth=None`` gives every run private slots, so no slot is ever
recycled: the unbounded-buffering what-if that ``repro experiment
overlap`` charts.

:func:`schedule_violations` replays every ordering on a built schedule,
across runs, recycled slots and fleet devices; ``repro pipeline --lint``
applies it to the served schedule, and every schedule the builder
returns must pass it.

A build has two pieces.  Every run issues the same ops with the same
access boxes on the same engines, and host arrays are per run, so which
ops of its own run and of its slot's previous occupant an op waits on is
fixed by the program: :class:`_DependenceTemplate` finds those edges once.
The timing pass then walks the runs, maps the template to node ids
through each device stream's run history, and adds the edges that depend
on the timeline: the host-step barrier, the serialise chain, a migrated
frame's fence and the PCIe staging channels.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property

from repro.errors import DeviceError
from repro.ir.program import (
    DeviceProgram,
    DeviceToHost,
    HostCompute,
    HostToDevice,
    LaunchKernel,
)
from repro.obs.span import current_tracer

__all__ = [
    "ScheduledNode",
    "PipelineSchedule",
    "build_schedule",
    "schedule_violations",
]

#: resource kinds used in scheduled-node access records
DEV = "dev"
HOST = "host"

_EPS = 1e-9


@dataclass(frozen=True)
class ScheduledNode:
    """One operation placed on the pipeline timeline."""

    id: int
    run: int  # which back-to-back program run issued the op
    op_index: int  # index into ``program.ops``; -1 for synthetic fleet
    # migration transfers (no backing program op)
    name: str
    engine: str  # "h2d" | "compute" | "d2h" | "host", "d{k}:"-prefixed
    # (host lanes "hl{l}:host") when built against a DeviceTopology
    start_us: float
    end_us: float
    #: device stream the op belongs to (0 on single-device schedules)
    device: int = 0
    #: node ids this operation waited on (data, WAR/WAW and host deps;
    #: engine-FIFO predecessors are implicit in the per-engine order)
    deps: tuple[int, ...] = ()
    #: resources read: (kind, name) — device resources carry their slot
    reads: tuple[tuple[str, str], ...] = ()
    #: resources written
    writes: tuple[tuple[str, str], ...] = ()
    #: per entry of ``reads``: the access boxes of
    #: :mod:`repro.analysis.regions` (``None`` = whole resource, as for an
    #: access the oracle cannot box); empty on hand-built nodes
    read_boxes: tuple = field(default=(), compare=False, repr=False)
    #: per entry of ``writes``, same convention
    write_boxes: tuple = field(default=(), compare=False, repr=False)

    @property
    def duration_us(self) -> float:
        return self.end_us - self.start_us


_NODE_FIELDS = tuple(f.name for f in fields(ScheduledNode))


def _node(*values) -> ScheduledNode:
    """The :class:`ScheduledNode` of ``values``, in field order.

    The frozen ``__init__`` sets each field through
    ``object.__setattr__``; filling the instance dict builds the same
    node in about half the time, on the builder's hottest line (one node
    per op per run).
    """
    node = object.__new__(ScheduledNode)
    node.__dict__.update(zip(_NODE_FIELDS, values))
    return node


@dataclass(frozen=True)
class _Totals:
    """What the reports read off a schedule, from one pass over its nodes."""

    #: engines in order of first appearance
    engines: tuple[str, ...]
    #: per engine, its nodes' durations summed in node order
    busy_us: dict[str, float]
    #: per run, (earliest start, latest end) of its nodes
    run_spans_us: dict[int, tuple[float, float]]
    makespan_us: float


class _Disjoint:
    """``disjoint(a, b)``: whether two access-box tuples are provably
    disjoint (``None``, a whole-resource access, never is).

    Answers are memoised by the tuples' identities.  A schedule's boxes
    are the region oracle's per-op tuples, shared by every run, so the
    builder answers each pair once and :func:`schedule_violations`
    re-asks the builder's pairs.  An entry holds both tuples, so neither
    id can be reused while its answer is kept.
    """

    def __init__(self):
        self._answers: dict[tuple[int, int], tuple] = {}

    def __call__(self, a, b) -> bool:
        if a is None or b is None:
            return False
        key = (id(a), id(b))
        entry = self._answers.get(key)
        if entry is None:
            from repro.analysis.regions import boxes_overlap

            apart = not any(boxes_overlap(x, y) for x in a for y in b)
            entry = self._answers[key] = (apart, a, b)
        return entry[0]


@dataclass(frozen=True)
class PipelineSchedule:
    """A complete schedule of ``runs`` back-to-back program executions."""

    program: str
    runs: int
    depth: int
    serialize: bool
    serial_us: float
    nodes: tuple[ScheduledNode, ...] = field(compare=False)
    #: fleet shape: device count, per-frame placements (device index per
    #: frame, empty on single-device schedules) and host-staged migration
    #: accounting — migration time is *extra* work the placement chose to
    #: pay, so it is kept out of ``serial_us`` (the what-if baseline)
    devices: int = 1
    placements: tuple[int, ...] = field(default=(), compare=False)
    migrations: int = 0
    migration_us: float = 0.0
    #: the build's box-disjointness memo, which the checker reuses
    _disjoint: _Disjoint = field(
        default_factory=_Disjoint, compare=False, repr=False
    )

    @cached_property
    def _totals(self) -> _Totals:
        """One pass over the nodes, kept in the instance ``__dict__``
        (a schedule is immutable; ``replace`` builds a new one).  Busy
        time starts from ``0`` and adds in node order, as ``sum`` did."""
        busy: dict[str, float] = {}
        spans: dict[int, list[float]] = {}
        for n in self.nodes:
            start, end = n.start_us, n.end_us
            busy[n.engine] = busy.get(n.engine, 0) + (end - start)
            span = spans.get(n.run)
            if span is None:
                spans[n.run] = [start, end]
            else:
                if start < span[0]:
                    span[0] = start
                if end > span[1]:
                    span[1] = end
        return _Totals(
            engines=tuple(busy),
            busy_us=busy,
            run_spans_us={run: (lo, hi) for run, (lo, hi) in spans.items()},
            makespan_us=max((hi for _, hi in spans.values()), default=0.0),
        )

    @property
    def makespan_us(self) -> float:
        return self._totals.makespan_us

    @property
    def speedup(self) -> float:
        m = self.makespan_us
        return self.serial_us / m if m else 1.0

    @property
    def engines(self) -> tuple[str, ...]:
        return self._totals.engines

    def engine_busy_us(self, engine: str) -> float:
        return self._totals.busy_us.get(engine, 0)

    def engine_occupancy(
        self, engines: tuple[str, ...] | None = None
    ) -> dict[str, float]:
        """Fraction of the makespan each engine spends busy.

        ``engines`` widens the report to engines with no scheduled node
        (a fleet device idle for the whole run); both the zero-span and
        the zero-busy case are guarded per engine so an idle device
        reports exactly ``0.0`` rather than dividing noise by the
        fleet-wide makespan.
        """
        names = self.engines if engines is None else tuple(engines)
        span = self.makespan_us
        out: dict[str, float] = {}
        for e in names:
            busy = self.engine_busy_us(e)
            out[e] = busy / span if busy > 0.0 and span > 0.0 else 0.0
        return out

    @property
    def run_spans_us(self) -> dict[int, tuple[float, float]]:
        """Per run: (first start, last end) of its nodes, a migrated
        frame's staging transfers counted with its first run."""
        return self._totals.run_spans_us

    def device_nodes(self, device: int) -> tuple[ScheduledNode, ...]:
        return tuple(n for n in self.nodes if n.device == device)

    def run_nodes(self, run: int) -> tuple[ScheduledNode, ...]:
        return tuple(n for n in self.nodes if n.run == run)

    def latencies_us(self, batch: int = 1) -> list[float]:
        """Per-frame modelled latency, grouping ``batch`` consecutive runs
        into one frame (e.g. the three RGB channel runs of one video
        frame): time from the frame's first issued op starting to its last
        op finishing."""
        if batch <= 0:
            raise ValueError("batch must be positive")
        spans: dict[int, tuple[float, float]] = {}
        for run, (start, end) in self.run_spans_us.items():
            g = run // batch
            lo, hi = spans.get(g, (start, end))
            spans[g] = (min(lo, start), max(hi, end))
        return [hi - lo for _, (lo, hi) in sorted(spans.items())]


def build_schedule(
    program: DeviceProgram,
    executor,
    runs: int = 1,
    depth: int | None = 2,
    serialize: bool = False,
    topology=None,
    placements=None,
    placement="round-robin",
    frame_batch: int = 1,
) -> PipelineSchedule:
    """Schedule ``runs`` back-to-back executions of ``program``.

    ``executor`` prices the program's ops once per build (a
    :class:`~repro.gpu.executor.GPUExecutor`'s ``price``; nothing is
    executed functionally) and every run reads those prices.  ``depth``
    is the number of physical slots backing each
    device buffer (``None`` — one per run, i.e. unbounded buffering);
    ``serialize=True`` chains every operation after the previous one.
    Data dependences are tracked at the granularity of the access-region
    oracle: an operation does not wait for a predecessor touching a
    provably disjoint box of the same resource, so e.g. a partial upload
    of one tile overlaps a kernel writing another.  An access the oracle
    cannot box counts as touching the whole resource.

    With a :class:`~repro.runtime.fleet.DeviceTopology` the runs shard
    across the fleet: every device owns a namespaced engine triple
    (``d{k}:h2d`` / ``d{k}:compute`` / ``d{k}:d2h``) with its own buffer
    slots and its own host-step barrier stream; host steps run on at most
    ``host.cores`` shared lanes and every PCIe transfer additionally
    queues on the topology's shared host staging channels (the saturation
    model).  ``frame_batch`` consecutive runs form one frame — the unit
    of placement.  ``placements`` gives one
    :class:`~repro.runtime.fleet.PlacementDecision` per frame (e.g. from
    :class:`~repro.runtime.pipeline.FramePipeline`'s placement stage);
    without it, frames are placed by the named ``placement`` policy.  A
    decision carrying ``migrate_from`` materialises the host-staged move
    as real D2H + H2D nodes priced by the PCIe model, which the frame's
    runs then wait on.

    The work is recorded as one ``schedule`` span on the ambient tracer.
    """
    with current_tracer().span(
        f"build_schedule:{program.name}", category="schedule",
        runs=runs, depth=depth if depth is not None else runs,
        serialize=serialize,
        devices=1 if topology is None else len(topology),
    ) as span:
        schedule = _build_schedule(
            program, executor, runs, depth, serialize,
            topology=topology, placements=placements, placement=placement,
            frame_batch=frame_batch,
        )
        span.set(nodes=len(schedule.nodes), makespan_us=schedule.makespan_us)
        return schedule


@dataclass(frozen=True)
class _Step:
    """One scheduled op of the program, as every run issues it."""

    op_index: int
    name: str
    kind: str  # "h2d" | "compute" | "d2h" | "host"
    dur: float
    #: a PCIe transfer: on a fleet it also queues on the staging channels
    channel: bool
    #: resources as ``(DEV, buffer)`` / ``(HOST, array)``, before the
    #: timing pass names them by slot and run; every access waits on the
    #: earlier ones it conflicts with
    reads: tuple[tuple[str, str], ...]
    writes: tuple[tuple[str, str], ...]
    read_boxes: tuple
    write_boxes: tuple


#: the region oracle's name of each resource kind
_ORACLE_KIND = {DEV: "device buffer", HOST: "host array"}


def _steps(program: DeviceProgram, prices, op_access) -> list[_Step]:
    """The program's scheduled ops (allocations and frees take no time
    and order nothing) with their resources and access boxes."""
    steps: list[_Step] = []
    for i, (op, dur) in enumerate(zip(program.ops, prices)):
        if isinstance(op, HostToDevice):
            name, kind = f"h2d:{op.device}", "h2d"
            reads, writes = [(HOST, op.host)], [(DEV, op.device)]
        elif isinstance(op, DeviceToHost):
            name, kind = f"d2h:{op.device}", "d2h"
            reads, writes = [(DEV, op.device)], [(HOST, op.host)]
        elif isinstance(op, LaunchKernel):
            name, kind = op.kernel.name, "compute"
            reads, writes = [], []
            for param, buf in op.array_args:
                intent = op.kernel.array(param).intent
                if intent in ("in", "inout"):
                    reads.append((DEV, buf))
                if intent in ("out", "inout"):
                    writes.append((DEV, buf))
        elif isinstance(op, HostCompute):
            name, kind = op.name, "host"
            reads = [(HOST, n) for n in op.reads]
            writes = [(HOST, n) for n in op.writes]
        else:
            continue
        # per resource, the oracle's access boxes (None = whole resource)
        read_at, write_at = op_access[i]
        steps.append(_Step(
            i, name, kind, dur, kind in ("h2d", "d2h"), tuple(reads), tuple(writes),
            read_boxes=tuple(read_at.get((_ORACLE_KIND[k], n)) for k, n in reads),
            write_boxes=tuple(write_at.get((_ORACLE_KIND[k], n)) for k, n in writes),
        ))
    return steps


class _DependenceTemplate:
    """The ops of its own run, and of its slot's previous occupant, that
    each step of a run waits on.

    Found by issuing one fresh run (empty slot tables) and one recycled
    run (the tables a finished run leaves) under the writer/reader rules:
    per resource, the writers and readers still relevant for dependences,
    as ``(ref, boxes, engine kind)``.  A whole-resource write supersedes
    everything before it (it waited on all of it); a boxed write
    supersedes equal-boxed writers, a read supersedes equal-boxed reads
    on the same engine (FIFO orders them).  Every op of a run supersedes
    its own entry of the slot's previous occupant (same boxes, same
    engine), so a run leaves the same tables whoever occupied the slot
    before it, and every recycled run waits on the same ops.
    """

    def __init__(self, steps: list[_Step], disjoint):
        self.steps = steps
        self._disjoint = disjoint
        writers: dict[tuple[str, str], list] = {}
        readers: dict[tuple[str, str], list] = {}
        #: per step, (positions in its own run, positions in the slot's
        #: previous occupant) it waits on: none of the latter when fresh
        self.fresh = self._occupy(writers, readers)
        self._left = _left_in_slot(writers, readers)

    @cached_property
    def recycled(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """The same for a run recycling a slot (found on first use)."""
        writers, readers = (dict(table) for table in self._left)
        waits = self._occupy(writers, readers)
        assert _left_in_slot(writers, readers) == self._left, (
            "a recycled run must leave its slot as a fresh run does"
        )
        return waits

    def _occupy(self, writers: dict, readers: dict):
        """Issue one run's steps against the tables (mutated); refs are
        step positions, ``~pos`` for the previous occupant's."""
        disjoint = self._disjoint
        out = []
        for pos, step in enumerate(self.steps):
            refs: set[int] = set()
            for res, boxes in zip(step.reads, step.read_boxes):  # RAW
                for ref, wb, _ in writers.get(res, ()):
                    if not disjoint(boxes, wb):
                        refs.add(ref)
            for res, boxes in zip(step.writes, step.write_boxes):
                # WAW, and WAR (slot recycling among them)
                for table in (writers, readers):
                    for ref, b, _ in table.get(res, ()):
                        if not disjoint(boxes, b):
                            refs.add(ref)
            out.append((
                tuple(sorted(r for r in refs if r >= 0)),
                tuple(sorted(~r for r in refs if r < 0)),
            ))
            for res, wb in zip(step.writes, step.write_boxes):
                if wb is None:
                    writers[res] = [(pos, None, step.kind)]
                    readers[res] = []
                else:
                    kept = [w for w in writers.get(res, ()) if w[1] != wb]
                    kept.append((pos, wb, step.kind))
                    writers[res] = kept
            for res, rb in zip(step.reads, step.read_boxes):
                kept = [
                    r for r in readers.get(res, ())
                    if not (r[1] == rb and r[2] == step.kind)
                ]
                kept.append((pos, rb, step.kind))
                readers[res] = kept
        return out


def _left_in_slot(writers: dict, readers: dict) -> tuple[dict, dict]:
    """The tables a finished run leaves its slot's next occupant: the
    device resources only (host arrays are per run), with each entry's
    ref turned into a previous-occupant one (``~pos``)."""
    return tuple(
        {
            res: [(~ref, boxes, kind) for ref, boxes, kind in entries]
            for res, entries in table.items()
            if res[0] == DEV
        }
        for table in (writers, readers)
    )


def _build_schedule(
    program: DeviceProgram,
    executor,
    runs: int,
    depth: int | None,
    serialize: bool,
    topology=None,
    placements=None,
    placement="round-robin",
    frame_batch: int = 1,
) -> PipelineSchedule:
    if runs <= 0:
        raise ValueError("runs must be positive")
    depth = runs if depth is None else depth
    if depth <= 0:
        raise ValueError("depth must be positive")
    if frame_batch <= 0:
        raise ValueError("frame_batch must be positive")

    frames = (runs + frame_batch - 1) // frame_batch
    decisions = None
    if topology is not None:
        from repro.runtime.fleet import FrameTicket, make_placement

        if placements is None:
            policy = make_placement(placement, len(topology))
            decisions = [
                policy.place(FrameTicket(frame=f, cache_key=program.name))
                for f in range(frames)
            ]
        else:
            decisions = list(placements)
            if len(decisions) != frames:
                raise ValueError(
                    f"{len(decisions)} placement(s) for {frames} frame(s) "
                    f"({runs} runs in batches of {frame_batch})"
                )
        for d in decisions:
            if not 0 <= d.device < len(topology):
                raise DeviceError(
                    f"frame {d.frame} placed on device {d.device} of a "
                    f"{len(topology)}-device topology"
                )
            if d.migrate_from is not None and not (
                0 <= d.migrate_from < len(topology)
            ):
                raise DeviceError(
                    f"frame {d.frame} migrates from unknown device "
                    f"{d.migrate_from}"
                )
    elif placements is not None:
        raise ValueError("placements require a device topology")
    prices = executor.price(program)

    from repro.analysis.regions import RegionOracle

    oracle = RegionOracle(program)
    op_access = [oracle.accesses(i) for i in range(len(program.ops))]
    # the recycled run re-asks the box pairs of the fresh one
    disjoint = _Disjoint()
    template = _DependenceTemplate(_steps(program, prices, op_access), disjoint)
    steps = template.steps

    if topology is None:
        engine_ready: dict[str, float] = {"h2d": 0.0, "compute": 0.0, "d2h": 0.0}
        chan_ready = None
    else:
        # every namespaced engine (host lanes included) runs FIFO; PCIe
        # transfers additionally queue on the shared staging channels
        engine_ready = {e: 0.0 for e in topology.engines()}
        chan_ready = [0.0] * topology.host_channels
    #: host-step barriers are per device stream: a host step of one
    #: device's frame must not stall another device's issue
    host_sync: dict[int, float] = {}
    host_barrier: dict[int, int] = {}
    prev_node: tuple[int, float] | None = None  # for serialize
    nodes: list[ScheduledNode] = []
    ends: list[float] = []  # end of every node, by id
    serial = 0.0
    migration_total = 0.0
    migration_count = 0
    mig_nbytes: int | None = None
    frame_floors: dict[int, tuple[float, int]] = {}
    cur_dev = 0   # device stream of the run being scheduled
    floor_end = 0.0  # earliest start of the current run (migration fence)
    floor_dep: int | None = None
    #: per device stream, the node id of each of its runs' first step
    history: dict[int, list[int]] = {}
    #: per device stream, the engine of each step; per (device, slot),
    #: the device resources' names and each step's (reads, writes) named,
    #: ``None`` for a step touching a host array (named per run)
    engines_of: dict[int, list[str]] = {}
    named_in: dict[tuple[int, int], tuple[dict, list]] = {}
    host_arrays = dict.fromkeys(
        r for s in steps for r in s.reads + s.writes if r[0] == HOST
    )

    def place(
        run: int, op_index: int, name: str, engine: str, dur: float,
        after: float, deps: set[int], stream: int, channel: bool,
        reads: tuple = (), writes: tuple = (),
        read_boxes: tuple = (), write_boxes: tuple = (),
    ) -> ScheduledNode:
        nonlocal prev_node, floor_dep
        barrier = host_barrier.get(stream)
        if barrier is not None:
            deps.add(barrier)
        after = max(after, host_sync.get(stream, 0.0))
        if op_index >= 0 and floor_end > 0.0:
            # the frame migrated here: nothing runs before its working
            # set landed (the dep edge goes on the run's first node)
            after = max(after, floor_end)
            if floor_dep is not None:
                deps.add(floor_dep)
                floor_dep = None
        if serialize and prev_node is not None:
            deps.add(prev_node[0])
            after = max(after, prev_node[1])
        start = max(engine_ready.get(engine, 0.0), after)
        if channel and chan_ready is not None:
            # the PCIe wire: this transfer occupies one of the shared
            # host staging channels for exactly its duration.  Best fit:
            # take the latest-freed channel already free when the
            # transfer is otherwise ready (keeping earlier-freed wires
            # open); only when every wire is still busy does the
            # transfer wait — the fleet's saturation point.
            free = [
                i for i in range(len(chan_ready))
                if chan_ready[i] <= start + _EPS
            ]
            if free:
                ci = max(free, key=chan_ready.__getitem__)
            else:
                ci = min(range(len(chan_ready)), key=chan_ready.__getitem__)
                start = chan_ready[ci]
            chan_ready[ci] = start + dur
        end = start + dur
        if engine in engine_ready:
            engine_ready[engine] = end
        node = _node(
            len(nodes), run, op_index, name, engine, start, end, stream,
            tuple(sorted(deps)), reads, writes, read_boxes, write_boxes,
        )
        nodes.append(node)
        ends.append(end)
        prev_node = (node.id, end)
        return node

    for run in range(runs):
        if topology is not None:
            frame = run // frame_batch
            dcsn = decisions[frame]
            cur_dev = dcsn.device
            floor_end, floor_dep = 0.0, None
            if (
                run % frame_batch == 0
                and dcsn.migrate_from is not None
                and dcsn.migrate_from != cur_dev
            ):
                # host-staged migration: D2H the frame's working set on
                # the source, H2D it on the target, both through the
                # shared staging channels — the frame's runs wait on it
                if mig_nbytes is None:
                    from repro.runtime.fleet import upload_nbytes

                    mig_nbytes = upload_nbytes(program)
                d2h_us, h2d_us = topology.migration_us(mig_nbytes)
                src, dst = dcsn.migrate_from, cur_dev
                nsrc = place(
                    run, -1, f"migrate-d2h:{src}->{dst}", f"d{src}:d2h",
                    d2h_us, 0.0, set(), src, True,
                )
                ndst = place(
                    run, -1, f"migrate-h2d:{src}->{dst}", f"d{dst}:h2d",
                    h2d_us, nsrc.end_us, {nsrc.id}, dst, True,
                )
                frame_floors[frame] = (ndst.end_us, ndst.id)
                migration_total += d2h_us + h2d_us
                migration_count += 1
            if frame in frame_floors:
                floor_end, floor_dep = frame_floors[frame]

        # the run's slot on its device stream, and the node ids the
        # template's edges point at: its own, and the slot's previous
        # occupant's, ``depth`` runs back on the same stream
        runs_here = history.setdefault(cur_dev, [])
        count = len(runs_here)
        base = len(nodes)
        runs_here.append(base)
        if count >= depth:
            waits = template.recycled
            prev_base = runs_here[count - depth]
        else:
            waits, prev_base = template.fresh, base
        slot = count % depth
        engines = engines_of.get(cur_dev)
        if engines is None:
            engines = engines_of[cur_dev] = [
                s.kind if topology is None
                else topology.host_lane(cur_dev) if s.kind == "host"
                else f"d{cur_dev}:{s.kind}"
                for s in steps
            ]
        named = named_in.get((cur_dev, slot))
        if named is None:
            prefix = "" if topology is None else f"d{cur_dev}/"
            dev_names = {
                r: (DEV, f"{prefix}{r[1]}@s{slot}")
                for s in steps for r in s.reads + s.writes if r[0] == DEV
            }
            named = named_in[(cur_dev, slot)] = (dev_names, [
                None if any(r[0] == HOST for r in s.reads + s.writes) else (
                    tuple([dev_names[r] for r in s.reads]),
                    tuple([dev_names[r] for r in s.writes]),
                )
                for s in steps
            ])
        # host arrays are per run
        names = named[0] | {r: (HOST, f"{r[1]}@r{run}") for r in host_arrays}

        for step, engine, (same, prev), rw in zip(steps, engines, waits, named[1]):
            serial += step.dur
            deps = {base + p for p in same}
            if prev:
                deps.update([prev_base + p for p in prev])
            after = max([ends[d] for d in deps], default=0.0)
            reads, writes = rw or (
                tuple([names[r] for r in step.reads]),
                tuple([names[r] for r in step.writes]),
            )
            node = place(
                run, step.op_index, step.name, engine, step.dur, after, deps,
                cur_dev, step.channel, reads, writes,
                step.read_boxes, step.write_boxes,
            )
            if step.kind == "host":
                host_sync[cur_dev] = node.end_us
                host_barrier[cur_dev] = node.id

    return PipelineSchedule(
        program=program.name,
        runs=runs,
        depth=depth,
        serialize=serialize,
        serial_us=serial,
        nodes=tuple(nodes),
        devices=1 if topology is None else len(topology),
        placements=(
            tuple(d.device for d in decisions) if decisions is not None else ()
        ),
        migrations=migration_count,
        migration_us=migration_total,
        _disjoint=disjoint,
    )


def schedule_violations(schedule: PipelineSchedule) -> list[str]:
    """Check a schedule against every constraint it claims to respect.

    Returns human-readable violation descriptions (empty means the
    schedule is valid): RAW (a read starting before its writer finishes),
    WAW/WAR (a write starting before the previous writer or any of its
    readers finish — slot recycling safety), and per-engine FIFO order.
    Used by the property tests and ``repro pipeline --lint``.

    The check mirrors the builder's region awareness symmetrically: a
    pair of accesses whose recorded boxes are provably disjoint needs no
    ordering, so skipping its dependence is not a violation.  An access
    without boxes (``None``, or a hand-built node that records none) is
    checked whole-resource.  Box pairs are answered from the build's
    memo, but the replay below is the checker's own.
    """
    disjoint = schedule._disjoint

    def aligned(boxes, resources):
        return boxes if boxes else (None,) * len(resources)

    out: list[str] = []

    # per-engine FIFO: issue order == time order, no overlap
    by_engine: dict[str, list[ScheduledNode]] = {}
    for n in schedule.nodes:
        by_engine.setdefault(n.engine, []).append(n)
    for engine, ns in by_engine.items():
        # host engines/lanes are FIFO too: the builder's host_sync (one
        # stream) or lane FIFO (fleet) serialises steps on one lane, so
        # the same no-overlap check applies to every engine
        for a, b in zip(ns, ns[1:]):
            if b.start_us < a.end_us - _EPS:
                out.append(
                    f"engine {engine}: node {b.id} ({b.name}) starts at "
                    f"{b.start_us:.3f} before node {a.id} ({a.name}) ends at "
                    f"{a.end_us:.3f}"
                )

    # data dependences, replayed in issue order per resource; histories
    # carry (node, boxes) and are pruned exactly like the builder's
    # tables — a whole-resource write supersedes everything it waited on,
    # an equal-boxed write/same-engine read supersedes its predecessor
    writer_hist: dict[tuple[str, str], list] = {}
    reader_hist: dict[tuple[str, str], list] = {}
    for n in schedule.nodes:
        for res, rb in zip(n.reads, aligned(n.read_boxes, n.reads)):
            for w, wb in writer_hist.get(res, ()):
                if disjoint(rb, wb):
                    continue
                if n.start_us < w.end_us - _EPS:
                    out.append(
                        f"RAW on {res}: node {n.id} ({n.name}) reads at "
                        f"{n.start_us:.3f} before writer {w.id} ({w.name}) "
                        f"ends at {w.end_us:.3f}"
                    )
        for res, wb in zip(n.writes, aligned(n.write_boxes, n.writes)):
            for w, owb in writer_hist.get(res, ()):
                if disjoint(wb, owb):
                    continue
                if n.start_us < w.end_us - _EPS:
                    out.append(
                        f"WAW on {res}: node {n.id} ({n.name}) writes at "
                        f"{n.start_us:.3f} before writer {w.id} ({w.name}) "
                        f"ends at {w.end_us:.3f}"
                    )
            for r, rb in reader_hist.get(res, ()):
                if disjoint(wb, rb):
                    continue
                if n.start_us < r.end_us - _EPS:
                    out.append(
                        f"WAR on {res}: node {n.id} ({n.name}) writes at "
                        f"{n.start_us:.3f} before reader {r.id} ({r.name}) "
                        f"ends at {r.end_us:.3f}"
                    )
        for res, wb in zip(n.writes, aligned(n.write_boxes, n.writes)):
            if wb is None:
                writer_hist[res] = [(n, None)]
                reader_hist[res] = []
            else:
                kept = [w for w in writer_hist.get(res, ()) if w[1] != wb]
                kept.append((n, wb))
                writer_hist[res] = kept
        for res, rb in zip(n.reads, aligned(n.read_boxes, n.reads)):
            kept = [
                r for r in reader_hist.get(res, ())
                if not (r[1] == rb and r[0].engine == n.engine)
            ]
            kept.append((n, rb))
            reader_hist[res] = kept

    # host steps serialise against each other and block all later issue
    # *of their own device stream* (a fleet device's host step must not
    # stall another device's issue; single-device schedules have exactly
    # one stream, so this is the old global check).  One ordered pass per
    # stream tracking the latest-ending host step issued so far — a node
    # violates the barrier iff it starts before that maximum, so the
    # check is O(nodes) instead of the old O(hosts x nodes) sweep (which
    # went quadratic on 300-frame schedules with per-frame host steps).
    last_host: dict[int, ScheduledNode] = {}
    for n in sorted(schedule.nodes, key=lambda n: n.id):
        prior = last_host.get(n.device)
        is_host = n.engine == "host" or n.engine.endswith(":host")
        if prior is not None and n.start_us < prior.end_us - _EPS:
            if is_host:
                out.append(
                    f"host: node {n.id} ({n.name}) starts before node "
                    f"{prior.id} ({prior.name}) ends"
                )
            else:
                out.append(
                    f"host barrier: node {n.id} ({n.name}) issued after host "
                    f"step {prior.id} ({prior.name}) but starts "
                    f"before it ends"
                )
        if is_host and (prior is None or n.end_us > prior.end_us):
            last_host[n.device] = n
    return out
