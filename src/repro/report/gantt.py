"""ASCII Gantt rendering of stream-overlap schedules."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.runtime.schedule import PipelineSchedule

__all__ = ["render_gantt"]

_ENGINES = ("h2d", "compute", "d2h", "host")


def render_gantt(
    schedule: PipelineSchedule, width: int = 72, engines=None
) -> str:
    """Render the schedule as one row per engine.

    Each engine's busy intervals are drawn with ``#`` over a time axis of
    ``width`` characters; idle time is ``.``.
    """
    engines = tuple(engines or _ENGINES)
    span = schedule.makespan_us
    if span <= 0:
        return "(empty schedule)"

    from math import ceil, floor

    def col_start(t: float) -> int:
        return min(width - 1, floor(width * t / span))

    def col_end(t: float) -> int:
        return min(width, ceil(width * t / span))

    lines = [
        f"stream schedule: serial {schedule.serial_us:.0f} us -> "
        f"pipelined {span:.0f} us "
        f"({schedule.speedup:.2f}x)",
        "",
    ]
    for engine in engines:
        nodes = [n for n in schedule.nodes if n.engine == engine]
        if not nodes:
            continue
        row = ["."] * width
        for n in nodes:
            a, b = col_start(n.start_us), col_end(n.end_us)
            for i in range(a, max(a + 1, b)):
                row[i] = "#"
        busy = schedule.engine_busy_us(engine)
        lines.append(
            f"{engine:>8} |{''.join(row)}| {busy:9.0f} us busy"
        )
    lines.append(f"{'':>8}  0{'us'.rjust(width - 1)}")
    return "\n".join(lines)
