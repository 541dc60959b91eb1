"""Region-aware scheduling: disjoint accesses overlap, soundness holds."""

from itertools import combinations

import pytest
from hypothesis import given, settings

from repro.gpu import GTX480_CALIBRATED, CostModel, GPUExecutor
from repro.ir import (
    AllocDevice,
    ArrayParam,
    Const,
    DeviceProgram,
    DeviceToHost,
    HostToDevice,
    IndexSpace,
    Kernel,
    LaunchKernel,
    Store,
    ThreadIdx,
)
from repro.runtime import build_schedule, schedule_violations
from tests.analysis.test_region_hazards import element_mask, racy_programs

SHAPE = (64, 64)


@pytest.fixture
def executor():
    return GPUExecutor(CostModel(GTX480_CALIBRATED))


def _row_writer(name: str, lo: int, hi: int) -> Kernel:
    return Kernel(
        name=name,
        space=IndexSpace((lo, 0), (hi, SHAPE[1])),
        arrays=(ArrayParam("dst", SHAPE, intent="out"),),
        body=(Store("dst", (ThreadIdx(0), ThreadIdx(1)), Const(1)),),
    )


def _rows(lo, hi):
    return ((lo, hi, 1), (0, SHAPE[1], 1))


@pytest.fixture
def tile_stream_program():
    """Kernel writes the top half while the *bottom* half streams out and a
    fresh tile streams in: every cross-engine pair is region-disjoint."""
    return DeviceProgram(
        "tile_stream",
        ops=(
            AllocDevice("d", SHAPE),
            HostToDevice("h_in", "d"),
            DeviceToHost("d", "h_done", region=_rows(32, 64)),
            LaunchKernel(_row_writer("top", 0, 32), (("dst", "d"),)),
        ),
        host_inputs=("h_in",),
        host_outputs=("h_done",),
    )


def _node(schedule, op_index, run=0):
    (n,) = [
        n for n in schedule.nodes if n.op_index == op_index and n.run == run
    ]
    return n


class TestRegionOverlap:
    def test_disjoint_download_overlaps_the_kernel(
        self, tile_stream_program, executor
    ):
        # rows [0,32) vs rows [32,64) are disjoint — the kernel starts
        # while the download is still on the wire
        s = build_schedule(tile_stream_program, executor, runs=1)
        k = _node(s, 3)
        d2h = _node(s, 2)
        assert d2h.id not in k.deps
        assert k.start_us < d2h.end_us - 1e-9

    def test_schedules_are_violation_free(self, tile_stream_program, executor):
        for runs, depth in ((1, 1), (4, 2), (4, None)):
            s = build_schedule(tile_stream_program, executor, runs=runs, depth=depth)
            assert schedule_violations(s) == []

    def test_overlapping_regions_still_wait(self, executor):
        prog = DeviceProgram(
            "overlap",
            ops=(
                AllocDevice("d", SHAPE),
                HostToDevice("h_in", "d"),
                DeviceToHost("d", "h_done", region=_rows(16, 64)),
                LaunchKernel(_row_writer("top", 0, 32), (("dst", "d"),)),
            ),
            host_inputs=("h_in",),
            host_outputs=("h_done",),
        )
        s = build_schedule(prog, executor, runs=1)
        k, d2h = _node(s, 3), _node(s, 2)
        assert d2h.id in k.deps
        assert k.start_us >= d2h.end_us - 1e-9
        assert schedule_violations(s) == []

    def test_partial_transfer_charged_by_region_bytes(
        self, tile_stream_program, executor
    ):
        s = build_schedule(tile_stream_program, executor, runs=1)
        h2d = _node(s, 1)  # full upload
        d2h = _node(s, 2)  # half download
        full_us = executor.cost.d2h_time_us(SHAPE[0] * SHAPE[1] * 4)
        half_us = executor.cost.d2h_time_us(SHAPE[0] * SHAPE[1] * 2)
        assert d2h.duration_us == pytest.approx(half_us)
        assert d2h.duration_us < full_us
        assert h2d.duration_us == pytest.approx(
            executor.cost.h2d_time_us(SHAPE[0] * SHAPE[1] * 4)
        )

    def test_unsound_pruning_would_be_caught(self, tile_stream_program, executor):
        """schedule_violations re-derives the dependence requirements from
        the recorded boxes: forging an early start on an overlapping pair
        (the kernel against the full upload) is reported even though the
        builder's own schedule is clean, and the disjoint pair (the kernel
        against the half download) is not."""
        from dataclasses import replace

        s = build_schedule(tile_stream_program, executor, runs=1)
        assert schedule_violations(s) == []
        k = _node(s, 3)
        forged = tuple(
            replace(n, start_us=0.0, deps=()) if n.id == k.id else n
            for n in s.nodes
        )
        broken = replace(s, nodes=forged)
        (violation,) = schedule_violations(broken)
        assert violation.startswith(f"WAW on ('dev', 'd@s0'): node {k.id} (top)")
        assert "(h2d:d)" in violation


def test_region_build_tests_each_box_pair_once(sac_programs, executor, monkeypatch):
    """Each run re-asks the box pairs of the run before it (the same
    ``op_access`` tuples), so a build answers every pair once: the SaC
    CIF program makes as many overlap tests in 30 runs as in 3."""
    from repro.analysis import regions
    from repro.apps.downscaler import NONGENERIC

    calls = []
    real = regions.boxes_overlap

    def counting(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(regions, "boxes_overlap", counting)
    counts = []
    for runs in (3, 30):
        calls.clear()
        build_schedule(sac_programs[NONGENERIC], executor, runs=runs)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


@settings(max_examples=200, deadline=None)
@given(program=racy_programs())
def test_conflicting_nodes_never_overlap_in_time(program):
    """Ground truth for the region edges: two scheduled nodes on the same
    slot of a resource, one of them writing it, whose element masks
    (found by executing each access) intersect never run at once."""
    executor = GPUExecutor(CostModel(GTX480_CALIBRATED))
    for runs in (1, 2, 3):
        for depth in (1, 2, None):
            s = build_schedule(program, executor, runs=runs, depth=depth)
            for a, b in combinations(s.nodes, 2):
                shared = (set(a.writes) & set(b.reads + b.writes)) | (
                    set(b.writes) & set(a.reads)
                )
                if not shared:
                    continue
                mask_a = element_mask(program.ops[a.op_index])
                if (mask_a & element_mask(program.ops[b.op_index])).any():
                    assert a.end_us <= b.start_us + 1e-9 or b.end_us <= a.start_us + 1e-9, (
                        f"{a.name}@run{a.run} and {b.name}@run{b.run} overlap on {shared}"
                    )
