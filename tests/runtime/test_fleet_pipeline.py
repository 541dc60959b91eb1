"""FramePipeline over a device fleet: sharding, caches, reports."""

import pytest

from repro.apps.downscaler import CIF
from repro.apps.downscaler.serving import downscaler_job
from repro.runtime import CompileCache, FramePipeline, schedule_violations


def test_fleet_run_is_bit_exact_and_faster():
    job = downscaler_job("sac", size=CIF)
    want = 4 * job.instances_per_frame
    base = FramePipeline(validate="all").run(job, frames=4)
    fleet = FramePipeline(devices=2, validate="all").run(job, frames=4)
    assert base.validated_instances == want
    assert fleet.validated_instances == want
    assert fleet.overlapped_us < base.overlapped_us
    assert schedule_violations(fleet.schedule) == []


def test_fleet_report_shape():
    job = downscaler_job("gaspard", size=CIF)
    report = FramePipeline(devices=2, placement="least-loaded").run(job, frames=4)
    assert report.devices == 2
    assert report.placement == "least-loaded"
    assert sorted(report.per_device) == ["d0", "d1"]
    assert sum(s["frames"] for s in report.per_device.values()) == 4
    for stats in report.per_device.values():
        assert set(stats["busy_us"]) == {"h2d", "compute", "d2h"}
        assert set(stats["occupancy"]) == {"h2d", "compute", "d2h"}
        assert "cache" in stats and "peak_bytes" in stats
    # namespaced engines only
    assert all(":" in e for e in report.engine_occupancy)
    doc = report.as_dict()
    assert doc["devices"] == 2
    assert doc["placement"] == "least-loaded"
    assert "per_device" in doc and "migrations" in doc


def test_single_device_report_omits_fleet_fields():
    job = downscaler_job("gaspard", size=CIF)
    report = FramePipeline().run(job, frames=2)
    assert report.devices == 1
    doc = report.as_dict()
    assert "per_device" not in doc and "devices" not in doc


def test_fleet_compiles_through_per_device_caches():
    job = downscaler_job("gaspard", size=CIF)
    pipe = FramePipeline(devices=2)
    report = pipe.run(job, frames=4)
    # device code is per-context: each device pays its own cold miss
    assert report.cache.misses == 2
    assert report.cache.hits == 2
    for device in pipe.topology:
        assert device.cache.stats.misses == 1


def test_fleet_rejects_external_cache():
    with pytest.raises(ValueError):
        FramePipeline(devices=2, cache=CompileCache())


def test_fleet_memory_stats_reset_between_batches():
    job = downscaler_job("sac", size=CIF)
    pipe = FramePipeline(devices=2, validate="all")
    first = pipe.run(job, frames=4)
    second = pipe.run(job, frames=4)
    peaks1 = {d: s["peak_bytes"] for d, s in first.per_device.items()}
    peaks2 = {d: s["peak_bytes"] for d, s in second.per_device.items()}
    assert peaks2 == peaks1, "peak bytes bled across batches"
    assert any(v > 0 for v in peaks1.values())


def test_fleet_zero_frames():
    job = downscaler_job("gaspard", size=CIF)
    report = FramePipeline(devices=2).run(job, frames=0)
    assert report.frames == 0
    assert report.devices == 2


def test_fleet_validation():
    with pytest.raises(ValueError):
        FramePipeline(devices=0)


def test_fleet_transfer_share_leaves_migrations_out():
    """Migration nodes ride the copy engines, but like ``serial_us`` the
    program's transfer time does not count them."""
    from repro.runtime import CacheAffinityPlacement

    job = downscaler_job("gaspard", size=CIF)
    base = FramePipeline(validate="none").run(job, frames=4)
    policy = CacheAffinityPlacement(2, spread_factor=0.0, migrate=True)
    fleet = FramePipeline(devices=2, placement=policy, validate="none").run(
        job, frames=4
    )
    assert fleet.migrations >= 1
    assert fleet.serial_us == pytest.approx(base.serial_us, rel=1e-9)
    assert fleet.transfer_share_serial == pytest.approx(
        base.transfer_share_serial, rel=1e-9
    )
