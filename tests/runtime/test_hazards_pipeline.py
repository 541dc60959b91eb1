"""Race checks of the overlapped pipelines.

``repro pipeline --lint`` applies two checks to what it served:
:func:`find_hazards` finds races within one run of the program, and
:func:`schedule_violations` replays every ordering of the schedule across
runs, recycled slots and fleet devices.  Bounded double-buffering is
where the second matters: a write into a recycled slot must wait for
every reader of the slot's previous occupant.
"""

from dataclasses import replace

import pytest

from repro.analysis.hazards import find_hazards
from repro.apps.downscaler import GENERIC, NONGENERIC
from repro.ir import AllocDevice, DeviceProgram, DeviceToHost, HostToDevice, LaunchKernel
from repro.runtime import build_schedule, schedule_violations
from tests.analysis.test_region_hazards import SHAPE, _row_writer


def _clean(program, executor, **build) -> bool:
    schedule = build_schedule(program, executor, **build)
    return find_hazards(program) == [] and schedule_violations(schedule) == []


def test_recycled_slots_wait_on_their_previous_occupant(toy_program, executor):
    """Two slots over four runs: every write into a recycled slot starts
    after the readers of the run two back, so the schedule replays clean;
    an upload forged to start early is a WAR violation."""
    s = build_schedule(toy_program, executor, runs=4, depth=2)
    assert schedule_violations(s) == []
    pairs = [
        (n, m) for n in s.nodes for m in s.nodes
        if m.run == n.run - 2 and set(n.writes) & set(m.reads)
    ]
    assert {n.run for n, _ in pairs} == {2, 3}
    assert all(n.start_us >= m.end_us - 1e-9 for n, m in pairs)

    upload = next(n for n, _ in pairs if n.engine == "h2d")
    forged = replace(s, nodes=tuple(
        replace(n, start_us=0.0, end_us=upload.duration_us) if n is upload else n
        for n in s.nodes
    ))
    assert any(v.startswith("WAR on ('dev'") for v in schedule_violations(forged))


def test_private_slots_leave_nothing_to_certify(toy_program, executor):
    """depth >= runs means no recycling: no resource is shared by two runs."""
    s = build_schedule(toy_program, executor, runs=3, depth=None)
    assert s.depth == 3
    assert schedule_violations(s) == []
    runs_of: dict = {}
    for n in s.nodes:
        for res in n.reads + n.writes:
            runs_of.setdefault(res, set()).add(n.run)
    assert all(len(runs) == 1 for runs in runs_of.values())


def test_a_round_trip_races_in_the_program_not_in_the_schedule(executor):
    """An upload of a downloaded array races the download in the stream
    model, which ``find_hazards`` reports; the scheduler orders the
    upload after the download, so the schedule itself is clean."""
    program = DeviceProgram(
        "round_trip",
        ops=(
            AllocDevice("d_a", SHAPE),
            AllocDevice("d_b", SHAPE),
            HostToDevice("h_in", "d_a"),
            LaunchKernel(_row_writer("k", 0, SHAPE[0]), (("dst", "d_a"),)),
            DeviceToHost("d_a", "h_mid"),
            HostToDevice("h_mid", "d_b"),
            DeviceToHost("d_b", "h_out"),
        ),
        host_inputs=("h_in",),
        host_outputs=("h_out",),
    )
    (race,) = find_hazards(program)
    assert race.code == "RACE002" and "host array 'h_mid'" in race.message
    s = build_schedule(program, executor, runs=2, depth=1)
    assert schedule_violations(s) == []
    download, upload = (n for n in s.run_nodes(0) if n.op_index in (4, 5))
    assert download.id in upload.deps and upload.start_us >= download.end_us


@pytest.mark.parametrize("variant", [NONGENERIC, GENERIC])
def test_downscaler_sac_pipelines_certify_clean(sac_programs, executor, variant):
    assert _clean(sac_programs[variant], executor, runs=4, depth=2)


def test_downscaler_gaspard_pipeline_certifies_clean(gaspard_program, executor):
    assert _clean(gaspard_program, executor, runs=3, depth=2)


def test_serialized_pipeline_certifies_clean(toy_program, executor):
    assert _clean(toy_program, executor, runs=4, depth=1, serialize=True)
