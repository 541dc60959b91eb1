"""Serving pins: exact digests of what the broker answers.

``BENCH_serving.json`` and ``BENCH_fleet.json`` round what they record;
these pins do not.  Each scenario serves a route on the virtual clock
with ``execute="none"`` and hashes the report's ``as_dict()`` together
with every response's ``(rid, tenant, status, reason, batch_id,
start_us, finish_us)``, floats written by ``repr``.  A change to the
clock, the batcher, admission, degradation or the scheduler that moves
one request by one modelled ulp moves a digest.

Every scenario compiles through its own :class:`CompileCache`, so the
cache statistics in the report do not depend on which tests ran first.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.apps.downscaler.config import CIF, FrameSize
from repro.apps.downscaler.serving import downscaler_job
from repro.runtime.cache import CompileCache
from repro.serve import (
    ServeBroker,
    ServeConfig,
    open_loop,
    run_closed_loop,
    run_open_loop,
)

#: the smallest sizes the downscaler's tilers accept (as in conftest.py)
TINY = FrameSize(18, 16, "tiny")
TINIER = FrameSize(9, 8, "tinier")


def _digest(responses, report) -> str:
    h = hashlib.sha256(json.dumps(report.as_dict(), sort_keys=True).encode())
    for r in responses:
        h.update(repr((
            r.request.rid, r.request.tenant, r.status, r.reason,
            r.batch_id, r.start_us, r.finish_us,
        )).encode())
    return h.hexdigest()


def _broker(route: str, config: ServeConfig, size=CIF, degraded_size=None):
    return ServeBroker(
        downscaler_job(route, size=size),
        config,
        degraded_job=(
            downscaler_job(route, size=degraded_size) if degraded_size else None
        ),
        cache=CompileCache(),
    )


def _open_below_knee(route):
    broker = _broker(route, ServeConfig(execute="none"))
    return run_open_loop(broker, rate_rps=250.0, requests=200, tenants=3)


def _open_past_knee(route):
    # past the SaC knee with deadlines: admission rejects every arrival
    # whose deadline the projected wait already breaks
    broker = _broker(route, ServeConfig(execute="none"))
    return run_open_loop(
        broker, rate_rps=900.0, requests=120, tenants=3,
        deadline_us=20_000.0, jitter_seed=4,
    )


def _overload(route):
    # far past the knee with admission's feasibility check off: the queue
    # budget and the tenants' quotas reject, and admitted requests miss
    broker = _broker(route, ServeConfig(
        execute="none", queue_budget=24, reject_infeasible=False,
        quota_capacity=50.0, quota_refill_per_s=200.0,
    ))
    return run_open_loop(
        broker, rate_rps=3000.0, requests=200, tenants=3,
        deadline_us=20_000.0, jitter_seed=4,
    )


def _closed(route):
    broker = _broker(route, ServeConfig(execute="none"))
    return run_closed_loop(broker, clients=6, requests_per_client=10)


def _fleet(route):
    broker = _broker(route, ServeConfig(execute="none", devices=2, max_batch=3))
    return run_closed_loop(broker, clients=6, requests_per_client=10)


def _degrading(route):
    # a burst pushes the projected p99 over a 1 ms SLO, so batches are
    # served at the smaller size; a trickle follows
    config = ServeConfig(
        execute="none", slo_us=1000.0, queue_budget=128,
        latency_window=16, degrade_enter=2, degrade_exit=3,
    )
    broker = _broker(route, config, size=TINY, degraded_size=TINIER)

    async def scenario():
        await broker.start()
        burst = await open_loop(broker, rate_rps=100_000.0, requests=60)
        trickle = await open_loop(
            broker, rate_rps=50.0, requests=40, start_frame=60
        )
        report = await broker.stop()
        return burst + trickle, report

    return broker.clock.run(scenario())


SCENARIOS = {
    "open-below-knee": _open_below_knee,
    "open-past-knee": _open_past_knee,
    "overload": _overload,
    "closed": _closed,
    "fleet": _fleet,
    "degrading": _degrading,
}

PINS = {
    ("open-below-knee", "sac"):
        "f4f7a0f41bbada27caf6626800170944346a3d80eb2ece39433710f8cc3efaf8",
    ("open-below-knee", "gaspard"):
        "7848e351ea4c6bf3e13f13c6cfb07138575767248360ffa63c07283391f0ea67",
    ("open-past-knee", "sac"):
        "1ebd69045b1925363dedd950c98a63d10a344f470aac6cfa722673e8baf21732",
    ("open-past-knee", "gaspard"):
        "4284dd108950e76dfbd40ada65a3bf08ee2a8e2e80a9426ef10c617b7bf148f2",
    ("overload", "sac"):
        "8bfd2ef93a4f80fb17ede3e0649066cf093e7d2db62171e664fc59a8c9f4755f",
    ("overload", "gaspard"):
        "33c0ac8195d01fc6dbf4f20840953d8610879ab1eba6d002cb5299a4be0d0a31",
    ("closed", "sac"):
        "f63c5500d4df041da99555c87a1cd84115408361ba23304244076b40c0e2cd06",
    ("closed", "gaspard"):
        "0631a8cbcf97e93a35389d18c432d2fc2e9eaf62078f95241912f33f46c232d5",
    ("fleet", "sac"):
        "775aca7dacb67bf7ffc5448b7351aa2ad08226e574c2314fea598965da927fd8",
    ("fleet", "gaspard"):
        "e2ef467378126a176701c0dcc600301fd9789b4cc541c97ec160724e2642e32b",
    ("degrading", "sac"):
        "bf25da4c1dbbef14b009f904a69912b00e5bf0129f8058e76ba2d38e2bc2d3ed",
    ("degrading", "gaspard"):
        "2915e7e9d8ca570b9738bb21cee050df009f4dc3f99337924858fd6964b67e19",
}


@pytest.mark.parametrize(
    "scenario,route", list(PINS), ids=[f"{s}-{r}" for s, r in PINS]
)
def test_serving_pin(scenario, route):
    responses, report = SCENARIOS[scenario](route)
    assert _digest(responses, report) == PINS[scenario, route]
