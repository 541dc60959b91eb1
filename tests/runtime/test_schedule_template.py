"""The dependence template against the per-run walk it replaced.

``build_schedule`` derives each op's edges once per build, from one fresh
and one recycled slot occupancy, and times every run from them.
:func:`reference_schedule` is the builder as it was before: it replays
the writer/reader tables run by run.  It is kept here as the test oracle
— the template must reproduce every node field, edge and float of it —
on random racy programs, single-device and fleet, and every schedule
built must pass :func:`schedule_violations`.  The one change to the walk
since the template replaced it: an upload waits for the download that
fills its host array (the builder used to start it first).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeviceError
from repro.gpu import GTX480_CALIBRATED, CostModel, GPUExecutor
from repro.ir.program import (
    AllocDevice,
    DeviceProgram,
    DeviceToHost,
    FreeDevice,
    HostCompute,
    HostToDevice,
    LaunchKernel,
)
from repro.runtime import build_schedule, schedule_violations
from repro.runtime.fleet import DeviceTopology
from repro.runtime.schedule import DEV, HOST, PipelineSchedule, ScheduledNode
from tests.analysis.test_region_hazards import racy_programs
from tests.runtime.test_schedule_pins import (
    schedule_record,
    totals_of_nodes,
    totals_record,
)

_EPS = 1e-9


def reference_schedule(
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

    from repro.analysis.regions import RegionOracle, boxes_overlap

    oracle = RegionOracle(program)
    op_access = [oracle.accesses(i) for i in range(len(program.ops))]

    def boxes_for(i: int, kind: str, name: str, write: bool):
        """Access boxes of ``program.ops[i]`` on a resource (None = whole)."""
        return op_access[i][1 if write else 0].get((kind, name))

    #: every boxes tuple compared below is an ``op_access`` entry, alive
    #: for the whole build, so a pair's identity keys its answer: each
    #: run re-asks the pairs of the run before it
    answers: dict[tuple[int, int], bool] = {}

    def disjoint(a, b) -> bool:
        if a is None or b is None:
            return False
        key = (id(a), id(b))
        answer = answers.get(key)
        if answer is None:
            answer = answers[key] = not any(boxes_overlap(x, y) for x in a for y in b)
        return answer

    if topology is None:
        engine_ready: dict[str, float] = {"h2d": 0.0, "compute": 0.0, "d2h": 0.0}
        chan_ready = None
    else:
        # every namespaced engine (host lanes included) runs FIFO; PCIe
        # transfers additionally queue on the shared staging channels
        engine_ready = {e: 0.0 for e in topology.engines()}
        chan_ready = [0.0] * topology.host_channels
    #: per resource, the writers/readers still relevant for dependences:
    #: (node id, end, access boxes, engine).  A whole-resource write
    #: supersedes everything before it (it waited on all of it); a
    #: boxed write supersedes equal-boxed writers, a read supersedes
    #: equal-boxed reads on the same engine (FIFO orders them).
    writers: dict[tuple[str, str], list] = {}
    readers: dict[tuple[str, str], list] = {}
    #: host-step barriers are per device stream: a host step of one
    #: device's frame must not stall another device's issue
    host_sync: dict[int, float] = {}
    host_barrier: dict[int, int] = {}
    prev_node: tuple[int, float] | None = None  # for serialize
    nodes: list[ScheduledNode] = []
    serial = 0.0
    migration_total = 0.0
    migration_count = 0
    mig_nbytes: int | None = None
    dev_run_count: dict[int, int] = {}
    frame_floors: dict[int, tuple[float, int]] = {}
    cur_dev = 0   # device stream of the run being scheduled
    cur_slot = 0  # its per-device buffer slot (round-robin over depth)
    floor_end = 0.0  # earliest start of the current run (migration fence)
    floor_dep: int | None = None

    def eng(kind: str) -> str:
        return kind if topology is None else f"d{cur_dev}:{kind}"

    def lane() -> str:
        return "host" if topology is None else topology.host_lane(cur_dev)

    def dev(buffer: str, run: int) -> tuple[str, str]:
        if topology is None:
            return (DEV, f"{buffer}@s{run % depth}")
        return (DEV, f"d{cur_dev}/{buffer}@s{cur_slot}")

    def host_res(name: str, run: int) -> tuple[str, str]:
        return (HOST, f"{name}@r{run}")

    def wait_read(
        res: tuple[str, str], after: float, deps: set[int], boxes=None
    ) -> float:
        for wid, wend, wb, _ in writers.get(res, ()):
            if disjoint(boxes, wb):
                continue
            deps.add(wid)
            after = max(after, wend)
        return after

    def wait_write(
        res: tuple[str, str], after: float, deps: set[int], boxes=None
    ) -> float:
        after = wait_read(res, after, deps, boxes)  # WAW
        for rid, rend, rb, _ in readers.get(res, ()):  # WAR (slot recycling)
            if disjoint(boxes, rb):
                continue
            deps.add(rid)
            after = max(after, rend)
        return after

    def place(
        run: int,
        op_index: int,
        name: str,
        engine: str,
        dur: float,
        after: float,
        deps: set[int],
        read_res: tuple[tuple[str, str], ...],
        write_res: tuple[tuple[str, str], ...],
        read_boxes: tuple = (),
        write_boxes: tuple = (),
        device: int | None = None,
        channel: bool = False,
    ) -> ScheduledNode:
        nonlocal prev_node, floor_dep
        stream = cur_dev if device is None else device
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
        node = ScheduledNode(
            id=len(nodes),
            run=run,
            op_index=op_index,
            name=name,
            engine=engine,
            start_us=start,
            end_us=end,
            device=stream,
            deps=tuple(sorted(deps)),
            reads=read_res,
            writes=write_res,
            read_boxes=read_boxes,
            write_boxes=write_boxes,
        )
        nodes.append(node)
        for res, wb in zip(write_res, write_boxes):
            if wb is None:
                # a whole-resource write waited on every recorded
                # predecessor, so it supersedes the lot
                writers[res] = [(node.id, end, None, engine)]
                readers[res] = []
            else:
                kept = [w for w in writers.get(res, ()) if w[2] != wb]
                kept.append((node.id, end, wb, engine))
                writers[res] = kept
        for res, rb in zip(read_res, read_boxes):
            kept = [
                r for r in readers.get(res, ())
                if not (r[2] == rb and r[3] == engine)
            ]
            kept.append((node.id, end, rb, engine))
            readers[res] = kept
        prev_node = (node.id, end)
        return node

    for run in range(runs):
        if topology is not None:
            frame = run // frame_batch
            dcsn = decisions[frame]
            cur_dev = dcsn.device
            count = dev_run_count.get(cur_dev, 0)
            cur_slot = count % depth
            dev_run_count[cur_dev] = count + 1
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
                    d2h_us, 0.0, set(), read_res=(), write_res=(),
                    device=src, channel=True,
                )
                ndst = place(
                    run, -1, f"migrate-h2d:{src}->{dst}", f"d{dst}:h2d",
                    h2d_us, nsrc.end_us, {nsrc.id}, read_res=(), write_res=(),
                    device=dst, channel=True,
                )
                frame_floors[frame] = (ndst.end_us, ndst.id)
                migration_total += d2h_us + h2d_us
                migration_count += 1
            if frame in frame_floors:
                floor_end, floor_dep = frame_floors[frame]
        for i, (op, dur) in enumerate(zip(program.ops, prices)):
            if isinstance(op, (AllocDevice, FreeDevice)):
                continue
            serial += dur
            if isinstance(op, HostToDevice):
                deps: set[int] = set()
                res = dev(op.device, run)
                wb = boxes_for(i, "device buffer", op.device, True)
                rb = boxes_for(i, "host array", op.host, False)
                after = wait_write(res, 0.0, deps, wb)
                after = wait_read(host_res(op.host, run), after, deps, rb)
                place(
                    run, i, f"h2d:{op.device}", eng("h2d"), dur, after, deps,
                    read_res=(host_res(op.host, run),), write_res=(res,),
                    read_boxes=(rb,), write_boxes=(wb,), channel=True,
                )
            elif isinstance(op, LaunchKernel):
                deps = set()
                after = 0.0
                read_res: list[tuple[str, str]] = []
                write_res: list[tuple[str, str]] = []
                read_boxes: list = []
                write_boxes: list = []
                for param, buf in op.array_args:
                    res = dev(buf, run)
                    intent = op.kernel.array(param).intent
                    if intent in ("in", "inout"):
                        rb = boxes_for(i, "device buffer", buf, False)
                        read_res.append(res)
                        read_boxes.append(rb)
                        after = wait_read(res, after, deps, rb)
                    if intent in ("out", "inout"):
                        wb = boxes_for(i, "device buffer", buf, True)
                        write_res.append(res)
                        write_boxes.append(wb)
                        after = wait_write(res, after, deps, wb)
                place(
                    run, i, op.kernel.name, eng("compute"), dur, after, deps,
                    read_res=tuple(read_res), write_res=tuple(write_res),
                    read_boxes=tuple(read_boxes), write_boxes=tuple(write_boxes),
                )
            elif isinstance(op, DeviceToHost):
                deps = set()
                res = dev(op.device, run)
                out_res = host_res(op.host, run)
                rb = boxes_for(i, "device buffer", op.device, False)
                wb = boxes_for(i, "host array", op.host, True)
                after = wait_read(res, 0.0, deps, rb)
                after = wait_write(out_res, after, deps, wb)
                place(
                    run, i, f"d2h:{op.device}", eng("d2h"), dur, after, deps,
                    read_res=(res,), write_res=(out_res,),
                    read_boxes=(rb,), write_boxes=(wb,), channel=True,
                )
            elif isinstance(op, HostCompute):
                deps = set()
                after = 0.0
                read_res = []
                write_res = []
                read_boxes = []
                write_boxes = []
                for name in op.reads:
                    res = host_res(name, run)
                    rb = boxes_for(i, "host array", name, False)
                    read_res.append(res)
                    read_boxes.append(rb)
                    after = wait_read(res, after, deps, rb)
                for name in op.writes:
                    res = host_res(name, run)
                    wb = boxes_for(i, "host array", name, True)
                    write_res.append(res)
                    write_boxes.append(wb)
                    after = wait_write(res, after, deps, wb)
                node = place(
                    run, i, op.name, lane(), dur, after, deps,
                    read_res=tuple(read_res), write_res=tuple(write_res),
                    read_boxes=tuple(read_boxes), write_boxes=tuple(write_boxes),
                )
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
    )


@settings(max_examples=100, deadline=None)
@given(program=racy_programs(), frame_batch=st.sampled_from((1, 2)))
def test_template_schedules_match_the_per_run_walk(program, frame_batch):
    executor = GPUExecutor(CostModel(GTX480_CALIBRATED))
    topology = DeviceTopology.build(2)
    for devices in (1, 2):
        fleet = {} if devices == 1 else {"topology": topology, "frame_batch": frame_batch}
        for runs in range(1, 7):
            for depth in (1, 2, 3, None):
                for serialize in (False, True):
                    s = build_schedule(
                        program, executor, runs=runs, depth=depth,
                        serialize=serialize, **fleet,
                    )
                    want = reference_schedule(
                        program, executor, runs, depth, serialize, **fleet
                    )
                    assert schedule_record(s) == schedule_record(want)
                    assert totals_record(s) == totals_of_nodes(s)
                    assert totals_record(want) == totals_of_nodes(want)
                    assert schedule_violations(s) == []
