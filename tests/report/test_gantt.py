"""Tests for the Gantt renderer."""

from repro.report import render_gantt
from repro.runtime.schedule import PipelineSchedule, ScheduledNode


def schedule(spans, serial=100.0):
    """A hand-built one-run schedule of ``(name, engine, start, end)``."""
    nodes = tuple(
        ScheduledNode(
            id=i, run=0, op_index=i, name=name, engine=engine,
            start_us=start, end_us=end,
        )
        for i, (name, engine, start, end) in enumerate(spans)
    )
    return PipelineSchedule(
        program="hand-built", runs=1, depth=1, serialize=False,
        serial_us=serial, nodes=nodes,
    )


def test_empty_schedule():
    assert "(empty schedule)" in render_gantt(schedule([]))


def test_engines_rendered_with_busy_totals():
    spans = [
        ("a", "h2d", 0.0, 40.0),
        ("k", "compute", 40.0, 100.0),
        ("b", "d2h", 100.0, 110.0),
    ]
    text = render_gantt(schedule(spans, serial=110.0), width=22)
    assert "h2d" in text and "compute" in text and "d2h" in text
    assert "40 us busy" in text
    assert "60 us busy" in text
    assert "1.00x" in text


def test_idle_engines_omitted():
    spans = [("k", "compute", 0.0, 50.0)]
    text = render_gantt(schedule(spans, serial=50.0))
    assert "h2d" not in text


def test_bars_reflect_intervals():
    spans = [
        ("k1", "compute", 0.0, 50.0),
        ("k2", "compute", 50.0, 100.0),
        ("t", "h2d", 0.0, 50.0),
    ]
    text = render_gantt(schedule(spans, serial=150.0), width=10)
    lines = {l.split("|")[0].strip(): l for l in text.splitlines() if "|" in l}
    compute_bar = lines["compute"].split("|")[1]
    h2d_bar = lines["h2d"].split("|")[1]
    assert compute_bar.count("#") == 10  # busy throughout
    assert h2d_bar.count("#") == 5  # first half only


def test_report_package_does_not_import_the_runtime():
    """The renderers name runtime and app types in annotations only."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    code = (
        "import sys, repro.report; "
        "print(sorted(m for m in sys.modules if m.startswith('repro.runtime')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert out.strip() == "[]"
