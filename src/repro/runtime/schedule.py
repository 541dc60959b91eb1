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

The runs execute on a :class:`~repro.runtime.fleet.DeviceTopology`: the
paper's one GPU is a topology of one, and a fleet shards them over K.

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
fixed by the program: :class:`_DependenceTemplate` finds those edges once,
and a node's edges are the template's positions plus its run's offset.
The timing pass walks runs x steps, adds the edges that depend on the
timeline (the host-step barrier, the serialise chain, a migrated frame's
fence, the PCIe staging channels) and writes flat columns
(:class:`_Timeline`), which the report totals are read from.  Nodes are
made from them on first read of ``schedule.nodes``: by the Chrome trace,
the Gantt chart, :func:`schedule_violations` and the pins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
from repro.runtime.fleet import (
    DeviceTopology,
    FrameTicket,
    make_placement,
    upload_nbytes,
)

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
    #: "h2d" | "compute" | "d2h" | "host" on one device; a fleet prefixes
    #: the device's ("d{k}:h2d") and names host lanes "hl{l}:host"
    engine: str
    start_us: float
    end_us: float
    #: device stream the op belongs to (0 on a one-device schedule)
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


@dataclass(frozen=True)
class _Totals:
    """What the reports read off a schedule, from one pass over its columns."""

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


@dataclass(frozen=True, eq=False)
class _Columns:
    """A schedule's timeline, one entry per node in id order."""

    #: engine names, indexed by the ``engine`` column
    engine_names: tuple[str, ...]
    engine: list[int]
    start: list[float]
    end: list[float]
    #: per run, in issue order: (run, first node id, one past its last)
    runs: list[tuple[int, int, int]]

    @classmethod
    def of_nodes(cls, nodes) -> _Columns:
        """The columns of given (hand-built or forged) nodes."""
        index = {e: i for i, e in enumerate(dict.fromkeys(n.engine for n in nodes))}
        firsts = [i for i, n in enumerate(nodes) if not i or n.run != nodes[i - 1].run]
        return cls(
            tuple(index), [index[n.engine] for n in nodes],
            [n.start_us for n in nodes], [n.end_us for n in nodes],
            [(nodes[a].run, a, b) for a, b in zip(firsts, firsts[1:] + [len(nodes)])],
        )


@dataclass(frozen=True, eq=False)
class _Timeline(_Columns):
    """A built schedule's columns, and what its nodes are made from."""

    topology: DeviceTopology
    template: _DependenceTemplate
    serialize: bool
    #: per run: (its first step's node id, the slot's previous occupant's
    #: or ``None`` on a fresh slot, device, slot, the migration node its
    #: first step waits on or ``None``)
    records: list[tuple]
    #: per migration node id: (name, device stream, the node it waits on)
    migrations: dict[int, tuple[str, int, int | None]]

    def nodes(self) -> tuple[ScheduledNode, ...]:
        """Every node, each field as the timing pass placed it; the
        host-step barrier edges are replayed in id order."""
        template, out = self.template, []
        barrier: dict[int, int] = {}  # per device stream, its latest host step

        def node(i, run, op_index, name, device, deps, *access):
            if device in barrier:
                deps.add(barrier[device])
            if self.serialize and i:
                deps.add(i - 1)
            out.append(ScheduledNode(
                i, run, op_index, name, self.engine_names[self.engine[i]],
                self.start[i], self.end[i], device, tuple(sorted(deps)), *access,
            ))

        for (run, first, _), (base, prev_base, dev, slot, floor) in zip(self.runs, self.records):
            for i in range(first, base):  # the frame's host-staged move
                name, stream, dep = self.migrations[i]
                node(i, run, -1, name, stream, set() if dep is None else {dep})
            device = self.topology.device(dev)
            named = {
                r: (HOST, f"{r[1]}@r{run}") if r[0] == HOST else (DEV, device.slot(r[1], slot))
                for s in template.steps for r in s.reads + s.writes
            }
            waits = template.fresh if prev_base is None else template.recycled
            for pos, (step, (same, prev)) in enumerate(zip(template.steps, waits)):
                deps = {base + p for p in same}
                deps.update([prev_base + p for p in prev])
                if pos == 0 and floor is not None:
                    deps.add(floor)
                reads, writes = [named[r] for r in step.reads], [named[r] for r in step.writes]
                node(base + pos, run, step.op_index, step.name, dev, deps, tuple(reads),
                     tuple(writes), step.read_boxes, step.write_boxes)
                if step.kind == "host":
                    barrier[dev] = base + pos
        return tuple(out)


class _Nodes:
    """``PipelineSchedule.nodes``: a hand-built schedule's given nodes, or
    a built one's, made from its timeline on first read.  Either way they
    live in the instance ``__dict__``, absent from it until then."""

    def __get__(self, schedule, owner=None):
        if schedule is None:
            return self
        if "nodes" not in schedule.__dict__:
            schedule.__dict__["nodes"] = schedule._columns.nodes()
        return schedule.__dict__["nodes"]

    def __set__(self, schedule, nodes):
        if nodes is not self:  # ``self`` is the field's default: none given
            schedule.__dict__["nodes"] = tuple(nodes)


@dataclass(frozen=True)
class PipelineSchedule:
    """A complete schedule of ``runs`` back-to-back program executions."""

    program: str
    runs: int
    depth: int
    serialize: bool
    serial_us: float
    nodes: tuple[ScheduledNode, ...] = field(default=_Nodes(), compare=False, repr=False)
    #: fleet shape: device count, per-frame placements (device index per
    #: frame, empty on a one-device schedule) and host-staged migration
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
    #: the timeline the totals (and a built schedule's nodes) are read from
    _columns: _Columns | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self._columns is None or "nodes" in self.__dict__:  # given nodes
            nodes = self.__dict__.setdefault("nodes", ())
            object.__setattr__(self, "_columns", _Columns.of_nodes(nodes))

    @cached_property
    def _totals(self) -> _Totals:
        """One pass over the columns, kept in the instance ``__dict__``
        (a schedule is immutable; ``replace`` builds a new one).  Busy
        time starts from ``0`` and adds in node order, as ``sum`` did."""
        c = self._columns
        busy = [0] * len(c.engine_names)
        for e, start, end in zip(c.engine, c.start, c.end):
            busy[e] += end - start
        spans: dict[int, tuple[float, float]] = {}
        for run, first, stop in c.runs:
            lo, hi = spans.get(run, (c.start[first], c.end[first]))
            spans[run] = (min(lo, *c.start[first:stop]), max(hi, *c.end[first:stop]))
        names = c.engine_names
        used = dict.fromkeys(c.engine)  # in order of first use
        return _Totals(
            engines=tuple(names[e] for e in used),
            busy_us={names[e]: busy[e] for e in used},
            run_spans_us=spans,
            makespan_us=max(c.end, default=0.0),
        )

    @property
    def node_count(self) -> int:  # len(self.nodes), without making them
        return len(self._columns.start)

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

    The runs execute on ``topology`` (by default, one device around
    ``executor``): every device owns an engine triple with its own buffer
    slots and host-step barrier stream; host steps run on at most
    ``host.cores`` shared lanes and every PCIe transfer also queues on the
    topology's shared host staging channels (the saturation model; one
    device's two FIFO copy engines never fill them).  On a fleet,
    ``frame_batch`` consecutive runs form one frame — the unit of
    placement.  ``placements`` gives one
    :class:`~repro.runtime.fleet.PlacementDecision` per frame (e.g. from
    :class:`~repro.runtime.pipeline.FramePipeline`'s placement stage);
    without it, frames are placed by the named ``placement`` policy.  A
    decision carrying ``migrate_from`` materialises the host-staged move
    as real D2H + H2D nodes priced by the PCIe model, which the frame's
    runs then wait on.  A lone device places nothing.

    The work is recorded as one ``schedule`` span on the ambient tracer.
    """
    topology = topology or DeviceTopology.around(executor)
    with current_tracer().span(
        f"build_schedule:{program.name}", category="schedule",
        runs=runs, depth=depth if depth is not None else runs,
        serialize=serialize, devices=len(topology),
    ) as span:
        schedule = _build_schedule(
            program, executor, runs, depth, serialize,
            topology=topology, placements=placements, placement=placement,
            frame_batch=frame_batch,
        )
        span.set(nodes=schedule.node_count, makespan_us=schedule.makespan_us)
        return schedule


@dataclass(frozen=True)
class _Step:
    """One scheduled op of the program, as every run issues it."""

    op_index: int
    name: str
    kind: str  # "h2d" | "compute" | "d2h" | "host"
    dur: float
    #: a PCIe transfer: it also queues on the host's staging channels
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
                    kept = [w for w in writers.get(res, ()) if w[1] is not wb and w[1] != wb]
                    kept.append((pos, wb, step.kind))
                    writers[res] = kept
            for res, rb in zip(step.reads, step.read_boxes):
                kept = [
                    r for r in readers.get(res, ())
                    if not ((r[1] is rb or r[1] == rb) and r[2] == step.kind)
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
    topology: DeviceTopology,
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
    if len(topology) > 1:
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
        raise ValueError("placements require a multi-device topology")
    prices = executor.price(program)

    from repro.analysis.regions import RegionOracle

    oracle = RegionOracle(program)
    op_access = [oracle.accesses(i) for i in range(len(program.ops))]
    # the recycled run re-asks the box pairs of the fresh one
    disjoint = _Disjoint()
    template = _DependenceTemplate(_steps(program, prices, op_access), disjoint)
    steps = template.steps
    timed = [(s.dur, s.channel, s.kind == "host") for s in steps]

    # every engine (host lanes included) runs FIFO; PCIe transfers
    # additionally queue on the shared staging channels
    engine_names = topology.engines()
    engine_index = {e: i for i, e in enumerate(engine_names)}
    ready = [0.0] * len(engine_names)
    chan_ready = [0.0] * topology.host_channels
    starts, ends, engine_col, run_col, records = [], [], [], [], []  # the columns
    migrations: dict[int, tuple[str, int, int | None]] = {}
    #: host-step barriers are per device stream: a host step of one
    #: device's frame must not stall another device's issue
    host_sync: dict[int, float] = {}
    serial = migration_total = 0.0
    migration_count = 0
    mig_nbytes: int | None = None
    frame_floors: dict[int, tuple[float, int]] = {}
    cur_dev = 0   # device stream of the run being scheduled
    floor_end = 0.0  # earliest start of the current run (migration fence)
    floor_dep: int | None = None
    #: per device stream, the node id of each of its runs' first step
    history: dict[int, list[int]] = {}
    #: per device stream, the engine index of each step
    engines_of = [
        [
            engine_index[topology.host_lane(k) if s.kind == "host" else d.engine(s.kind)]
            for s in steps
        ]
        for k, d in enumerate(topology)
    ]

    for run in range(runs):
        first = len(ends)
        if decisions is not None:
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
                    mig_nbytes = upload_nbytes(program)
                d2h_us, h2d_us = topology.migration_us(mig_nbytes)
                src, dst = dcsn.migrate_from, cur_dev
                after, dep = 0.0, None
                for stream, kind, dur in ((src, "d2h", d2h_us), (dst, "h2d", h2d_us)):
                    e = engine_index[topology.device(stream).engine(kind)]
                    after = max(after, host_sync.get(stream, 0.0))
                    if serialize and ends:
                        after = max(after, ends[-1])
                    start = _wire(chan_ready, max(ready[e], after), dur)
                    after = ready[e] = start + dur
                    migrations[len(ends)] = (f"migrate-{kind}:{src}->{dst}", stream, dep)
                    dep = len(ends)
                    starts.append(start)
                    ends.append(after)
                    engine_col.append(e)
                frame_floors[frame] = (after, dep)
                migration_total += d2h_us + h2d_us
                migration_count += 1
            if frame in frame_floors:
                floor_end, floor_dep = frame_floors[frame]

        # the run's slot on its device stream, and the node ids the
        # template's edges point at: its own, and the slot's previous
        # occupant's, ``depth`` runs back on the same stream
        runs_here = history.setdefault(cur_dev, [])
        count = len(runs_here)
        base = len(ends)
        runs_here.append(base)
        if count >= depth:
            waits, prev_base = template.recycled, runs_here[count - depth]
        else:
            waits, prev_base = template.fresh, None
        # nothing of the run starts before the stream's last host step
        # ends, nor (a migrated frame) before its working set landed
        sync = host_sync.get(cur_dev, 0.0)
        lower = max(sync, floor_end)
        for (dur, channel, host), e, (same, prev) in zip(timed, engines_of[cur_dev], waits):
            serial += dur
            after = lower
            for p in same:
                if ends[base + p] > after:
                    after = ends[base + p]
            for p in prev:
                if ends[prev_base + p] > after:
                    after = ends[prev_base + p]
            if serialize and ends and ends[-1] > after:
                after = ends[-1]
            start = ready[e]
            if after > start:
                start = after
            if channel:
                start = _wire(chan_ready, start, dur)
            ready[e] = end = start + dur
            starts.append(start)
            ends.append(end)
            engine_col.append(e)
            if host:
                sync = end
                lower = max(end, floor_end)
        host_sync[cur_dev] = sync
        run_col.append((run, first, len(ends)))
        floor = floor_dep if floor_end > 0.0 else None
        records.append((base, prev_base, cur_dev, count % depth, floor))

    return PipelineSchedule(
        program=program.name,
        runs=runs,
        depth=depth,
        serialize=serialize,
        serial_us=serial,
        devices=len(topology),
        placements=(
            tuple(d.device for d in decisions) if decisions is not None else ()
        ),
        migrations=migration_count,
        migration_us=migration_total,
        _disjoint=disjoint,
        _columns=_Timeline(
            engine_names, engine_col, starts, ends, run_col,
            topology=topology, template=template, serialize=serialize,
            records=records, migrations=migrations,
        ),
    )


def _wire(chan_ready: list[float], start: float, dur: float) -> float:
    """When a PCIe transfer ready at ``start`` starts: it holds one of the
    shared host staging channels for its duration.  Best fit: the latest
    freed of the channels free by then (keeping earlier-freed wires open);
    only if all are busy does it wait — the fleet's saturation point."""
    limit = start + _EPS
    freed = max([t for t in chan_ready if t <= limit], default=None)
    if freed is None:
        freed = start = min(chan_ready)
    chan_ready[chan_ready.index(freed)] = start + dur
    return start


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
    #: one representative per value of a box tuple, so that the pruning
    #: below tests equality by identity; a node's boxes are its op's,
    #: shared by every run, so each is mapped once (and kept: no id reuse)
    shared: dict = {}
    mapped: dict[int, tuple] = {}

    def aligned(boxes, resources):
        if not boxes:
            return (None,) * len(resources)
        if id(boxes) not in mapped:
            mapped[id(boxes)] = (tuple([shared.setdefault(b, b) for b in boxes]), boxes)
        return mapped[id(boxes)][0]

    out: list[str] = []

    # per-engine FIFO: issue order == time order, no overlap
    by_engine: dict[str, list[ScheduledNode]] = {}
    for n in schedule.nodes:
        by_engine.setdefault(n.engine, []).append(n)
    for engine, ns in by_engine.items():
        # host lanes are FIFO engines too, so the check covers them
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
        read_boxes = aligned(n.read_boxes, n.reads)
        write_boxes = aligned(n.write_boxes, n.writes)
        for res, rb in zip(n.reads, read_boxes):
            for w, wb in writer_hist.get(res, ()):
                if disjoint(rb, wb):
                    continue
                if n.start_us < w.end_us - _EPS:
                    out.append(
                        f"RAW on {res}: node {n.id} ({n.name}) reads at "
                        f"{n.start_us:.3f} before writer {w.id} ({w.name}) "
                        f"ends at {w.end_us:.3f}"
                    )
        for res, wb in zip(n.writes, write_boxes):
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
        for res, wb in zip(n.writes, write_boxes):
            if wb is None:
                writer_hist[res] = [(n, None)]
                reader_hist[res] = []
            else:
                kept = [w for w in writer_hist.get(res, ()) if w[1] is not wb]
                kept.append((n, wb))
                writer_hist[res] = kept
        for res, rb in zip(n.reads, read_boxes):
            kept = [
                r for r in reader_hist.get(res, ())
                if not (r[1] is rb and r[0].engine == n.engine)
            ]
            kept.append((n, rb))
            reader_hist[res] = kept

    # host steps serialise against each other and block all later issue
    # *of their own device stream* (a fleet device's host step must not
    # stall another device's issue).  One ordered pass tracks, per stream,
    # the latest-ending host step issued so far: a node violates the
    # barrier iff it starts before it.
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
