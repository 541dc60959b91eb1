"""Device-fleet topology, placement policies and the fleet scheduler."""

import pytest

from repro.apps.downscaler import NONGENERIC
from repro.errors import ReproError
from repro.runtime import (
    CacheAffinityPlacement,
    DeviceTopology,
    FrameTicket,
    LeastLoadedPlacement,
    PlacementDecision,
    RoundRobinPlacement,
    build_schedule,
    make_placement,
    schedule_violations,
)
from repro.runtime.fleet import upload_nbytes
from tests.runtime.test_schedule_pins import schedule_record


@pytest.fixture
def topo2():
    return DeviceTopology.build(2)


# -- topology ----------------------------------------------------------------


def test_topology_shape(topo2):
    assert len(topo2) == 2
    assert [d.name for d in topo2] == ["d0", "d1"]
    assert topo2.device(1).engine("compute") == "d1:compute"
    # device-major engines, then the shared host lanes
    assert topo2.engines() == (
        "d0:h2d", "d0:compute", "d0:d2h",
        "d1:h2d", "d1:compute", "d1:d2h",
        "hl0:host", "hl1:host",
    )


def test_topology_host_lanes_bounded_by_cores():
    topo = DeviceTopology.build(8)
    # the i7-930 has four cores: eight device streams share four lanes
    assert topo.host_lanes == 4
    assert topo.host_lane(1) == "hl1:host"
    assert topo.host_lane(5) == "hl1:host"


def test_topology_per_device_isolation(topo2):
    assert topo2.device(0).cache is not topo2.device(1).cache
    assert topo2.device(0).memory is not topo2.device(1).memory
    assert topo2.device(0).executor is not topo2.device(1).executor


def test_topology_validation():
    with pytest.raises(ReproError):
        DeviceTopology.build(0)
    with pytest.raises(ReproError):
        DeviceTopology.build(2, host_channels=0)


def test_migration_is_priced_as_d2h_plus_h2d(topo2):
    cost = topo2.device(0).executor.cost
    d2h, h2d = topo2.migration_us(1 << 20)
    assert d2h == cost.d2h_time_us(1 << 20)
    assert h2d == cost.h2d_time_us(1 << 20)


# -- placement policies ------------------------------------------------------


def _ticket(i, key="k", cost=None):
    return FrameTicket(frame=i, cache_key=key, cost_us=cost)


def test_round_robin_cycles():
    policy = RoundRobinPlacement(3)
    placed = [policy.place(_ticket(i)).device for i in range(7)]
    assert placed == [0, 1, 2, 0, 1, 2, 0]


def test_least_loaded_uniform_degenerates_to_round_robin():
    policy = LeastLoadedPlacement(3)
    placed = [policy.place(_ticket(i, cost=10.0)).device for i in range(6)]
    assert placed == [0, 1, 2, 0, 1, 2]


def test_least_loaded_balances_skewed_costs():
    policy = LeastLoadedPlacement(2)
    # one heavy frame on d0; the next three light frames all fit on d1
    # before d1's queue catches up
    assert policy.place(_ticket(0, cost=30.0)).device == 0
    assert policy.place(_ticket(1, cost=10.0)).device == 1
    assert policy.place(_ticket(2, cost=10.0)).device == 1
    assert policy.place(_ticket(3, cost=10.0)).device == 1
    assert policy.place(_ticket(4, cost=10.0)).device == 0


def test_least_loaded_ewma_feedback():
    policy = LeastLoadedPlacement(2, alpha=0.5)
    assert policy.estimate_us(_ticket(0)) == 1.0  # prior
    policy.observe(0, 100.0)
    assert policy.estimate_us(_ticket(1)) == 100.0
    policy.observe(0, 50.0)
    assert policy.estimate_us(_ticket(2)) == 75.0
    policy.new_batch()
    assert policy.queued_us == [0.0, 0.0]
    assert policy.estimate_us(_ticket(3)) == 75.0  # learned state persists


def test_cache_affinity_sticks_to_warm_device():
    # four keys round over four devices: load stays balanced, so every
    # key keeps hitting the one device that is warm for it
    policy = CacheAffinityPlacement(4)
    keys = ["a", "b", "c", "d"]
    first = {
        k: policy.place(_ticket(i, key=k, cost=10.0)).device
        for i, k in enumerate(keys)
    }
    assert sorted(first.values()) == [0, 1, 2, 3]
    for i in range(4, 20):
        key = keys[i % 4]
        assert policy.place(_ticket(i, key=key, cost=10.0)).device == first[key]
    assert policy.expansions == 0


def test_cache_affinity_spreads_under_load():
    policy = CacheAffinityPlacement(2, spread_factor=0.5)
    for i in range(6):
        policy.place(_ticket(i, key="a", cost=10.0))
    # a single-key stream is allowed to warm both devices (round-robin
    # would have hit both slots) and must use them under load
    assert policy.expansions >= 1
    devices = {policy.place(_ticket(9, key="a", cost=10.0)).device}
    devices.add(policy.place(_ticket(10, key="a", cost=10.0)).device)
    assert devices == {0, 1}


def test_cache_affinity_migrate_flag_names_a_source():
    policy = CacheAffinityPlacement(2, spread_factor=0.0, migrate=True)
    decisions = [policy.place(_ticket(i, key="a", cost=10.0)) for i in range(4)]
    moved = [d for d in decisions if d.migrate_from is not None]
    assert moved, "expansion under load should migrate"
    assert all(d.migrate_from != d.device for d in moved)
    assert policy.migrations == len(moved)


def test_cache_affinity_miss_budget_never_exceeds_round_robin():
    # two alternating keys on two devices: round-robin pins each key to
    # one slot, so affinity must never warm a key on both devices
    policy = CacheAffinityPlacement(2, spread_factor=0.0)
    for i in range(10):
        policy.place(_ticket(i, key="a" if i % 2 == 0 else "b", cost=10.0))
    assert all(len(warm) == 1 for warm in policy._warm.values())
    assert policy.expansions == 0


def test_make_placement():
    assert make_placement("round-robin", 2).name == "round-robin"
    instance = LeastLoadedPlacement(3)
    assert make_placement(instance, 3) is instance
    with pytest.raises(ReproError):
        make_placement(instance, 2)  # built for a different fleet size
    with pytest.raises(ReproError):
        make_placement("nope", 2)


# -- the fleet scheduler -----------------------------------------------------


def test_fleet_schedule_is_valid_and_faster(sac_programs, executor):
    program = sac_programs[NONGENERIC]
    base = build_schedule(program, executor, runs=12, depth=2)
    topo = DeviceTopology.build(2)
    fleet = build_schedule(
        program, executor, runs=12, depth=2, topology=topo, frame_batch=3
    )
    assert schedule_violations(fleet) == []
    assert fleet.devices == 2
    assert fleet.makespan_us < base.makespan_us
    # every node landed on a namespaced engine of the topology
    assert {n.engine for n in fleet.nodes} <= set(topo.engines())
    # both devices actually served frames
    assert {n.device for n in fleet.nodes} == {0, 1}


def test_topology_of_one_names_engines_and_slots_like_one_device():
    topo = DeviceTopology.build(1)
    assert topo.engines() == ("h2d", "compute", "d2h", "host")
    assert topo.host_lane(0) == "host"
    assert topo.device(0).slot("d_x", 1) == "d_x@s1"
    assert DeviceTopology.build(2).device(1).slot("d_x", 1) == "d1/d_x@s1"


def test_one_device_topology_matches_the_default_build(
    sac_programs, gaspard_program, executor
):
    """An explicit one-device topology is the default build, node for
    node: same engines, slots, times and edges, and nothing placed."""
    for program in (*sac_programs.values(), gaspard_program):
        for depth in (1, 2, None):
            for serialize in (False, True):
                shape = dict(runs=6, depth=depth, serialize=serialize)
                base = build_schedule(program, executor, **shape)
                one = build_schedule(
                    program, executor, topology=DeviceTopology.build(1), **shape
                )
                assert schedule_record(one) == schedule_record(base)
                assert one.placements == ()
                assert schedule_violations(one) == []


def test_fleet_schedule_records_placements(gaspard_program, executor):
    topo = DeviceTopology.build(2)
    schedule = build_schedule(
        gaspard_program, executor, runs=4, depth=2, topology=topo,
        placement="least-loaded",
    )
    assert schedule.placements == (0, 1, 0, 1)
    assert schedule_violations(schedule) == []


def test_explicit_placements_are_validated(sac_programs, executor):
    program = sac_programs[NONGENERIC]
    topo = DeviceTopology.build(2)
    with pytest.raises(ValueError):
        build_schedule(
            program, executor, runs=4, depth=2, topology=topo,
            placements=[PlacementDecision(frame=0, device=0)],  # 1 != 4 frames
        )
    with pytest.raises(ValueError):
        build_schedule(
            program, executor, runs=2, depth=2,
            placements=[
                PlacementDecision(frame=0, device=0),
                PlacementDecision(frame=1, device=0),
            ],  # placements without a topology
        )


def test_migration_materialises_priced_transfer_nodes(sac_programs, executor):
    program = sac_programs[NONGENERIC]
    topo = DeviceTopology.build(2)
    decisions = [
        PlacementDecision(frame=0, device=0),
        PlacementDecision(frame=1, device=1, migrate_from=0),
    ]
    schedule = build_schedule(
        program, executor, runs=2, depth=2, topology=topo,
        placements=decisions,
    )
    assert schedule.migrations == 1
    d2h_us, h2d_us = topo.migration_us(upload_nbytes(program))
    assert schedule.migration_us == pytest.approx(d2h_us + h2d_us)
    names = {n.name for n in schedule.nodes if n.op_index == -1}
    assert names == {"migrate-d2h:0->1", "migrate-h2d:0->1"}
    # migration rides the PCIe engines of both endpoints
    src = next(n for n in schedule.nodes if n.name == "migrate-d2h:0->1")
    dst = next(n for n in schedule.nodes if n.name == "migrate-h2d:0->1")
    assert (src.engine, dst.engine) == ("d0:d2h", "d1:h2d")
    assert dst.start_us >= src.end_us
    # the migrated frame's first node waits for the staged working set
    frame1 = [n for n in schedule.nodes if n.run == 1 and n.op_index >= 0]
    assert min(n.start_us for n in frame1) >= dst.end_us
    assert schedule_violations(schedule) == []


def test_host_channels_bound_fleet_scaling(sac_programs, executor):
    """One staging channel serialises the fleet's PCIe traffic."""
    program = sac_programs[NONGENERIC]
    wide = build_schedule(
        program, executor, runs=12, depth=2,
        topology=DeviceTopology.build(4),
    )
    narrow = build_schedule(
        program, executor, runs=12, depth=2,
        topology=DeviceTopology.build(4, host_channels=1),
    )
    assert schedule_violations(narrow) == []
    assert narrow.makespan_us > wide.makespan_us


def test_engine_occupancy_zero_guard(sac_programs, executor):
    program = sac_programs[NONGENERIC]
    topo = DeviceTopology.build(4)
    # two frames on four devices: d2/d3 never see a node
    schedule = build_schedule(
        program, executor, runs=2, depth=2, topology=topo, frame_batch=1
    )
    occ = schedule.engine_occupancy(engines=topo.engines())
    assert occ["d2:compute"] == 0.0
    assert occ["d3:h2d"] == 0.0
    assert occ["d0:compute"] > 0.0


def test_upload_nbytes_positive(sac_programs, gaspard_program):
    assert upload_nbytes(sac_programs[NONGENERIC]) > 0
    assert upload_nbytes(gaspard_program) > 0
