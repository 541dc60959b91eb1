"""Chrome trace-event export: Perfetto-loadable timelines of a run.

Turns the runtime's two time domains into one ``chrome://tracing`` /
Perfetto JSON document (the trace-event format's JSON-object flavour):

* the **modelled device schedule** — every
  :class:`~repro.runtime.schedule.ScheduledNode` of a
  :class:`~repro.runtime.schedule.PipelineSchedule` becomes one complete
  (``"X"``) event on its engine's track (h2d / compute / d2h / host),
  coloured by frame, with flow (``"s"``/``"f"``) arrows along the
  explicit ``deps`` edges; a fleet schedule gets one track-group
  (process) per device — ``d{k}:*`` engines on pid
  ``FLEET_PID_BASE + k`` — plus a shared host-lane process;
* the **host wall-clock span tree** of a :class:`~repro.obs.span.Tracer`
  — nested ``"B"``/``"E"`` events on a second process, so the
  compile → opt → schedule → execute phases sit next to the modelled
  timeline they produced.

:func:`validate_chrome_trace` is the minimal schema check the tests and
CI run over every emitted artefact; :func:`engine_busy_from_trace`
recovers per-engine busy totals from a document so they can be asserted
against :attr:`~repro.runtime.pipeline.PipelineReport.engine_busy_us`.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from repro.errors import ReproError
from repro.obs.span import Tracer

if TYPE_CHECKING:  # avoid a runtime.obs import cycle; hints only
    from repro.runtime.schedule import PipelineSchedule

__all__ = [
    "DEVICE_PID",
    "TRACER_PID",
    "FLEET_PID_BASE",
    "FLEET_HOST_PID",
    "schedule_events",
    "tracer_events",
    "chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "assert_valid_chrome_trace",
    "engine_busy_from_trace",
]

#: pid of the modelled device-schedule tracks
DEVICE_PID = 1
#: pid of the host wall-clock span tree
TRACER_PID = 2
#: pid of the shared host lanes of a fleet schedule (``hl{l}:host``)
FLEET_HOST_PID = 9
#: fleet schedules get one track-group (process) per device: device ``k``'s
#: ``d{k}:h2d|compute|d2h`` engines land on pid ``FLEET_PID_BASE + k``
#: (offset past :data:`TRACER_PID` so the host span tree keeps its pid)
FLEET_PID_BASE = 10

#: fixed track order: one lane per engine, paper-style h2d/compute/d2h
_ENGINE_TIDS = {"h2d": 1, "compute": 2, "d2h": 3, "host": 4}


def _engine_track(engine: str) -> tuple[int, int]:
    """(pid, tid) of one engine's track.

    A lone device's engine names (``h2d``/``compute``/``d2h``/``host``)
    stay on :data:`DEVICE_PID`; fleet names (``d2:compute``, ``hl1:host``)
    spread over one pid per device plus a shared host-lane process.
    """
    if ":" in engine:
        prefix, _, kind = engine.partition(":")
        if prefix[:1] == "d" and prefix[1:].isdigit():
            return FLEET_PID_BASE + int(prefix[1:]), _ENGINE_TIDS.get(
                kind, max(_ENGINE_TIDS.values()) + 1
            )
        if prefix[:2] == "hl" and prefix[2:].isdigit():
            return FLEET_HOST_PID, int(prefix[2:]) + 1
    return DEVICE_PID, _ENGINE_TIDS.get(engine, max(_ENGINE_TIDS.values()) + 1)

#: chrome://tracing reserved colour names, cycled per frame
_FRAME_COLOURS = (
    "thread_state_running",
    "thread_state_runnable",
    "thread_state_iowait",
    "rail_animation",
)


def _meta(pid: int, name: str, value, tid: int | None = None) -> dict:
    ev = {"ph": "M", "pid": pid, "name": name, "args": {"name": value}}
    if tid is not None:
        ev["tid"] = tid
    return ev


def schedule_events(
    schedule: PipelineSchedule,
    pid: int = DEVICE_PID,
    frame_batch: int = 1,
    flows: bool = True,
) -> list[dict]:
    """Trace events of one modelled schedule: X slices plus dep flows.

    ``frame_batch`` groups that many consecutive runs into one frame for
    colouring/labelling (e.g. the SaC route's three RGB channel runs).
    """
    if frame_batch <= 0:
        raise ValueError("frame_batch must be positive")
    fleet = schedule.devices > 1

    # track resolution: a lone device's engines collapse onto the caller's pid;
    # fleet engines get one process (track-group) per device plus a
    # shared host-lane process
    def track(engine: str) -> tuple[int, int]:
        fpid, tid = _engine_track(engine)
        return (fpid if fleet else pid), tid

    events: list[dict] = []
    if fleet:
        names: dict[int, str] = {}
        for engine in schedule.engines:
            fpid, _ = _engine_track(engine)
            if fpid == FLEET_HOST_PID:
                names.setdefault(fpid, "host lanes")
            else:
                names.setdefault(
                    fpid,
                    f"device d{fpid - FLEET_PID_BASE}: {schedule.program}",
                )
        for fpid in sorted(names):
            events.append(_meta(fpid, "process_name", names[fpid]))
            events.append(
                {"ph": "M", "pid": fpid, "name": "process_sort_index",
                 "args": {"sort_index": fpid}}
            )
        for engine in schedule.engines:
            fpid, tid = _engine_track(engine)
            events.append(_meta(fpid, "thread_name", engine, tid=tid))
            events.append(
                {"ph": "M", "pid": fpid, "tid": tid,
                 "name": "thread_sort_index", "args": {"sort_index": tid}}
            )
    else:
        events.append(
            _meta(pid, "process_name", f"device schedule: {schedule.program}")
        )
        for engine in (e for e in _ENGINE_TIDS if e in schedule.engines):
            tid = _ENGINE_TIDS[engine]
            events.append(_meta(pid, "thread_name", engine, tid=tid))
            events.append(
                {"ph": "M", "pid": pid, "tid": tid, "name": "thread_sort_index",
                 "args": {"sort_index": tid}}
            )

    by_id = {n.id: n for n in schedule.nodes}
    flow_id = 0
    for node in schedule.nodes:
        frame = node.run // frame_batch
        npid, tid = track(node.engine)
        events.append(
            {
                "name": node.name,
                "cat": node.engine,
                "ph": "X",
                "ts": node.start_us,
                "dur": node.duration_us,
                "pid": npid,
                "tid": tid,
                "cname": _FRAME_COLOURS[frame % len(_FRAME_COLOURS)],
                "args": {
                    "node": node.id,
                    "run": node.run,
                    "frame": frame,
                    "device": node.device,
                    "op_index": node.op_index,
                    "deps": list(node.deps),
                },
            }
        )
        if not flows:
            continue
        for dep in node.deps:
            src = by_id.get(dep)
            if src is None:
                continue
            spid, stid = track(src.engine)
            common = {"cat": "dep", "name": "dep", "id": flow_id}
            events.append(
                {**common, "ph": "s", "pid": spid, "tid": stid,
                 "ts": src.end_us}
            )
            events.append(
                {**common, "ph": "f", "bp": "e", "pid": npid, "tid": tid,
                 "ts": max(node.start_us, src.end_us)}
            )
            flow_id += 1
    return events


def tracer_events(tracer: Tracer, pid: int = TRACER_PID) -> list[dict]:
    """Nested B/E events of a tracer's span tree (one host track).

    Spans were opened and closed through a context-manager stack, so
    emitting begins by ``(start, id)`` and ends by ``(end, -id)`` yields
    a properly nested B/E sequence.
    """
    if not tracer.spans:
        return []
    events: list[dict] = [
        _meta(pid, "process_name", "host (wall clock)"),
        _meta(pid, "thread_name", "phases", tid=1),
    ]
    # key: (ts, 1, id) for begins, (ts, 0, -id) for ends — at equal ts an
    # end sorts first, and of two ends the younger (deeper) span closes
    # first.  Zero-duration spans (tracer events, e.g. cache hits) become
    # instant ("i") events: a B/E pair at one timestamp cannot be ordered.
    timeline: list[tuple[tuple, dict]] = []
    for s in tracer.spans:
        args = {k: _jsonable(v) for k, v in s.attrs.items()}
        args["span"] = s.id
        if s.duration_us <= 0:
            instant = {
                "name": s.name, "cat": s.category, "ph": "i", "s": "t",
                "ts": s.start_us, "pid": pid, "tid": 1, "args": args,
            }
            timeline.append(((s.start_us, 1, s.id), instant))
            continue
        begin = {
            "name": s.name, "cat": s.category, "ph": "B",
            "ts": s.start_us, "pid": pid, "tid": 1, "args": args,
        }
        end = {
            "name": s.name, "cat": s.category, "ph": "E",
            "ts": s.end_us, "pid": pid, "tid": 1,
        }
        timeline.append(((s.start_us, 1, s.id), begin))
        timeline.append(((s.end_us, 0, -s.id), end))
    events.extend(ev for _, ev in sorted(timeline, key=lambda kv: kv[0]))
    return events


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def chrome_trace(
    schedule: PipelineSchedule | None = None,
    tracer: Tracer | None = None,
    frame_batch: int = 1,
    name: str = "repro",
) -> dict:
    """The complete trace-event document for a run's two time domains."""
    events: list[dict] = []
    if schedule is not None:
        events.extend(schedule_events(schedule, frame_batch=frame_batch))
    if tracer is not None:
        events.extend(tracer_events(tracer))
    doc = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"name": name},
    }
    if schedule is not None:
        doc["otherData"].update(
            program=schedule.program,
            runs=schedule.runs,
            depth=schedule.depth,
            serialize=schedule.serialize,
            makespan_us=schedule.makespan_us,
        )
    return doc


def write_chrome_trace(path, doc: dict) -> None:
    """Serialise a trace document to ``path`` (validated first)."""
    assert_valid_chrome_trace(doc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


_PHASES = frozenset("XBEMsfi")


def validate_chrome_trace(doc) -> list[str]:
    """Minimal trace-event schema check; returns problem descriptions.

    Checks the JSON-object flavour: a ``traceEvents`` list whose events
    carry the required fields per phase type, non-negative timestamps and
    durations, per-track B/E stack nesting, and flow ``f`` events bound
    to an ``s`` with the same id.  An empty list means the document is
    accepted.
    """
    problems: list[str] = []
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        return ["document must be a dict with a traceEvents list"]
    try:
        json.dumps(doc)
    except (TypeError, ValueError) as err:
        problems.append(f"document is not JSON-serialisable: {err}")

    stacks: dict[tuple, list[str]] = {}
    flow_starts: set = set()
    for i, ev in enumerate(doc["traceEvents"]):
        where = f"event {i}"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in _PHASES:
            problems.append(f"{where}: unknown phase {ph!r}")
            continue
        if "pid" not in ev:
            problems.append(f"{where}: missing pid")
        if ph == "M":
            if "name" not in ev or "args" not in ev:
                problems.append(f"{where}: metadata event needs name and args")
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where}: ts must be a non-negative number, got {ts!r}")
        if "tid" not in ev:
            problems.append(f"{where}: missing tid")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(
                    f"{where}: X event dur must be non-negative, got {dur!r}"
                )
            if "name" not in ev:
                problems.append(f"{where}: X event missing name")
        elif ph in "BE":
            track = (ev.get("pid"), ev.get("tid"))
            stack = stacks.setdefault(track, [])
            if ph == "B":
                if "name" not in ev:
                    problems.append(f"{where}: B event missing name")
                stack.append(ev.get("name", ""))
            else:
                if not stack:
                    problems.append(f"{where}: E event with no open B on {track}")
                elif stack[-1] != ev.get("name", stack[-1]):
                    problems.append(
                        f"{where}: E event {ev.get('name')!r} does not close "
                        f"open span {stack[-1]!r}"
                    )
                    stack.pop()
                else:
                    stack.pop()
        elif ph == "s":
            flow_starts.add(ev.get("id"))
        elif ph == "f":
            if ev.get("id") not in flow_starts:
                problems.append(
                    f"{where}: flow finish id {ev.get('id')!r} has no start"
                )
    for track, stack in stacks.items():
        if stack:
            problems.append(f"track {track}: unclosed B events {stack}")
    return problems


def assert_valid_chrome_trace(doc) -> None:
    """Raise :class:`~repro.errors.ReproError` when the document fails
    :func:`validate_chrome_trace`."""
    problems = validate_chrome_trace(doc)
    if problems:
        raise ReproError(
            "invalid Chrome trace document: " + "; ".join(problems[:10])
        )


def engine_busy_from_trace(doc: dict, pid: int | None = None) -> dict[str, float]:
    """Per-engine busy totals recovered from a trace's device X slices.

    Only device-schedule slices are ``X`` events (the tracer emits
    B/E/i), so the default sums every device process — required for
    fleet traces, where each device is its own pid.  Pass a pid to
    restrict the totals to one track-group.
    """
    out: dict[str, float] = {}
    for ev in doc.get("traceEvents", ()):
        if ev.get("ph") == "X" and (pid is None or ev.get("pid") == pid):
            cat = ev.get("cat", "")
            out[cat] = out.get(cat, 0.0) + float(ev.get("dur", 0.0))
    return out
