"""Pins of every scheduled node on the programs both backends emit.

Each digest covers every :class:`ScheduledNode` field (times as
``float.hex``, access boxes as ``Box.as_dict()``) and the schedule's
``serial_us``, ``makespan_us`` and fleet accounting, over a grid of
builds of one program: depth 1/2/3/None x serialize x 1/2/3/4/7 runs on
one device, and 2-/3-device fleets under each placement policy and
with host-staged migrations.  A change to any modelled start, end or
dependence edge changes a digest here.
"""

import hashlib
import json

import pytest

from repro.apps.convolution import (
    convolution_allocation,
    convolution_model,
    convolution_program_source,
    gaussian3,
)
from repro.apps.downscaler.config import CIF
from repro.apps.downscaler.sac_sources import GENERIC, NONGENERIC
from repro.apps.downscaler.serving import downscaler_job
from repro.gpu import GTX480_CALIBRATED, CostModel, GPUExecutor
from repro.ir import DeviceToHost, HostToDevice
from repro.opt import OptOptions
from repro.runtime import build_schedule
from repro.runtime.cache import CompileCache
from repro.runtime.fleet import (
    CacheAffinityPlacement,
    DeviceTopology,
    PlacementDecision,
)
from repro.sac.backend import CompileOptions

#: the first 16 hex digits of each program's single-device digest
PINS = {
    "convolution-gaspard-default": "b4fd4d8903e9f0a1",
    "convolution-gaspard-opt": "a8e07f0c9dab04d0",
    "convolution-sac-default": "3424e65f654e3f2d",
    "convolution-sac-opt": "e06eeeea44023cae",
    "downscaler-gaspard-default": "337439c69f20ac9a",
    "downscaler-gaspard-opt": "30878f3293349349",
    "downscaler-sac-default": "8eb6a84d41e487bc",
    "downscaler-sac-generic-default": "3df7c0ac23aa3292",
    "downscaler-sac-generic-opt": "7ce70ea10b24a9fc",
    "downscaler-sac-opt": "ab369328d08bb0b4",
}

#: the same, over the fleet builds
FLEET_PINS = {
    "convolution-gaspard-default": "cb1586862d2b1c12",
    "convolution-gaspard-opt": "01d360091d24a8fa",
    "convolution-sac-default": "26ca261a1b43c732",
    "convolution-sac-opt": "2479a3f7f0ed8c35",
    "downscaler-gaspard-default": "704614cefbcc94ba",
    "downscaler-gaspard-opt": "6795ecee1b45d084",
    "downscaler-sac-default": "daa375797692fd1f",
    "downscaler-sac-generic-default": "992bbb732b7cb019",
    "downscaler-sac-generic-opt": "f0ced441fa926848",
    "downscaler-sac-opt": "9bb38101706f681d",
}

DEPTHS = (1, 2, 3, None)
RUNS = (1, 2, 3, 4, 7)
POLICIES = ("round-robin", "least-loaded", "cache-affinity")
#: (runs, frame_batch, depth) of each fleet build
FLEET_SHAPES = ((7, 1, 2), (9, 3, 1), (6, 3, None))
#: explicit placements: (devices, frame_batch, [(device, migrate_from)])
MIGRATIONS = (
    # the two-frame move of test_fleet.py
    (2, 1, [(0, None), (1, 0)]),
    (3, 2, [(0, None), (1, 0), (2, 1), (0, 2), (0, None)]),
)


@pytest.fixture(scope="module")
def cache():
    return CompileCache()


@pytest.fixture(scope="module")
def executor():
    return GPUExecutor(CostModel(GTX480_CALIBRATED))


def _program(name: str, cache: CompileCache):
    app, *route, setting = name.split("-")
    opt = OptOptions() if setting == "opt" else None
    if app == "downscaler":
        variant = GENERIC if route[1:] == ["generic"] else NONGENERIC
        return downscaler_job(route[0], size=CIF, variant=variant, opt=opt).compile(cache)
    config = gaussian3(96, 128)
    if route == ["sac"]:
        return cache.compile_sac(
            convolution_program_source(config), "blur", CompileOptions(opt=opt)
        ).program
    return cache.compile_gaspard(
        convolution_model(config), convolution_allocation(), opt=opt
    )[0].program


def _boxes(entries) -> list:
    return [None if b is None else [box.as_dict() for box in b] for b in entries]


def schedule_record(s) -> list:
    """Every field of ``s`` and of each of its nodes, as JSON values."""
    return [
        s.program, s.runs, s.depth, s.serialize, s.serial_us.hex(),
        s.makespan_us.hex(), s.devices, list(s.placements), s.migrations,
        s.migration_us.hex(),
        [
            [
                n.id, n.run, n.op_index, n.name, n.engine, n.start_us.hex(),
                n.end_us.hex(), n.device, list(n.deps), n.reads, n.writes,
                _boxes(n.read_boxes), _boxes(n.write_boxes),
            ]
            for n in s.nodes
        ],
    ]


def digest(records: list) -> str:
    text = json.dumps(records, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def totals_record(s) -> list:
    """The engines in order of first use, each one's busy time, the run
    spans and the makespan, as the schedule reads them off its columns."""
    return [
        list(s.engines), [s.engine_busy_us(e).hex() for e in s.engines],
        [[run, lo.hex(), hi.hex()] for run, (lo, hi) in s.run_spans_us.items()],
        s.makespan_us.hex(),
    ]


def totals_of_nodes(s) -> list:
    """The same, recomputed from the made nodes in node order."""
    busy: dict[str, float] = {}
    spans: dict[int, tuple[float, float]] = {}
    for n in s.nodes:
        busy[n.engine] = busy.get(n.engine, 0) + (n.end_us - n.start_us)
        lo, hi = spans.get(n.run, (n.start_us, n.end_us))
        spans[n.run] = (min(lo, n.start_us), max(hi, n.end_us))
    return [
        list(busy), [t.hex() for t in busy.values()],
        [[run, lo.hex(), hi.hex()] for run, (lo, hi) in spans.items()],
        max((n.end_us for n in s.nodes), default=0.0).hex(),
    ]


def single_device_schedules(program, executor):
    for depth in DEPTHS:
        for serialize in (False, True):
            for runs in RUNS:
                yield build_schedule(
                    program, executor, runs=runs, depth=depth, serialize=serialize,
                )


def fleet_schedules(program, executor):
    for serialize in (False, True):
        for devices in (2, 3):
            topology = DeviceTopology.build(devices)
            for policy in POLICIES:
                for runs, frame_batch, depth in FLEET_SHAPES:
                    yield build_schedule(
                        program, executor, runs=runs, depth=depth,
                        serialize=serialize, topology=topology,
                        placement=policy, frame_batch=frame_batch,
                    )
            # an eager expander: every cold placement stages a migration
            yield build_schedule(
                program, executor, runs=6, depth=2, serialize=serialize,
                topology=topology,
                placement=CacheAffinityPlacement(
                    devices, spread_factor=0.0, migrate=True
                ),
            )
        for devices, frame_batch, moves in MIGRATIONS:
            decisions = [
                PlacementDecision(frame=f, device=d, migrate_from=src)
                for f, (d, src) in enumerate(moves)
            ]
            yield build_schedule(
                program, executor, runs=len(moves) * frame_batch, depth=2,
                serialize=serialize, topology=DeviceTopology.build(devices),
                placements=decisions, frame_batch=frame_batch,
            )


def single_device_digest(program, executor) -> str:
    return digest([
        schedule_record(s) for s in single_device_schedules(program, executor)
    ])


def fleet_digest(program, executor) -> str:
    return digest([schedule_record(s) for s in fleet_schedules(program, executor)])


@pytest.mark.parametrize("name", sorted(PINS))
def test_single_device_schedules_are_pinned(name, cache, executor):
    assert single_device_digest(_program(name, cache), executor) == PINS[name]


@pytest.mark.parametrize("name", sorted(FLEET_PINS))
def test_fleet_schedules_are_pinned(name, cache, executor):
    assert fleet_digest(_program(name, cache), executor) == FLEET_PINS[name]


@pytest.mark.parametrize("grid", [single_device_schedules, fleet_schedules])
@pytest.mark.parametrize("name", sorted(PINS))
def test_totals_from_columns_equal_totals_from_nodes(name, grid, cache, executor):
    """What the reports read off a built schedule's columns, against the
    same quantities summed over its nodes (migration nodes included)."""
    for s in grid(_program(name, cache), executor):
        assert totals_record(s) == totals_of_nodes(s)


@pytest.mark.parametrize("name", sorted(PINS))
def test_no_upload_of_a_downloaded_array_into_another_buffer(name, cache):
    """Such an upload is the one op an upload's wait on the download that
    fills its host array orders (into the same buffer, its wait on the
    buffer's readers already does), so it must not move the pins."""
    downloaded_from: dict[str, str] = {}
    for op in _program(name, cache).ops:
        if isinstance(op, DeviceToHost):
            downloaded_from[op.host] = op.device
        elif isinstance(op, HostToDevice):
            assert downloaded_from.get(op.host, op.device) == op.device, op
