"""VirtualClock: ordering, cancellation, stall detection."""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.errors import ReproError
from repro.serve import VirtualClock


def test_sleepers_wake_in_time_order():
    clock = VirtualClock()
    order: list[tuple[str, float]] = []

    async def sleeper(name: str, delay_us: float):
        await clock.sleep(delay_us)
        order.append((name, clock.now_us))

    async def scenario():
        await asyncio.gather(
            sleeper("c", 300), sleeper("a", 100), sleeper("b", 200)
        )

    clock.run(scenario())
    assert order == [("a", 100.0), ("b", 200.0), ("c", 300.0)]


def test_equal_wake_times_resolve_fifo():
    clock = VirtualClock()
    order: list[str] = []

    async def sleeper(name: str):
        await clock.sleep(500)
        order.append(name)

    async def scenario():
        await asyncio.gather(*[sleeper(f"t{i}") for i in range(4)])

    clock.run(scenario())
    assert order == ["t0", "t1", "t2", "t3"]


def test_sleep_until_past_due_does_not_advance():
    clock = VirtualClock(start_us=1000.0)

    async def scenario():
        await clock.sleep_until(500.0)
        return clock.now_us

    assert clock.run(scenario()) == 1000.0


def test_cancelled_sleeper_is_discarded_without_advancing():
    clock = VirtualClock()

    async def scenario():
        loser = asyncio.ensure_future(clock.sleep(10_000))
        await asyncio.sleep(0)
        loser.cancel()
        await clock.sleep(50)
        return clock.now_us

    assert clock.run(scenario()) == 50.0


def test_nested_wakeups_within_one_instant():
    clock = VirtualClock()
    hits: list[float] = []

    async def chain(depth: int):
        if depth:
            await asyncio.sleep(0)
            await chain(depth - 1)
        else:
            hits.append(clock.now_us)

    async def scenario():
        await clock.sleep(10)
        await chain(8)

    clock.run(scenario())
    assert hits == [10.0]


def test_stall_raises_instead_of_hanging():
    clock = VirtualClock()

    async def scenario():
        fut = asyncio.get_running_loop().create_future()
        await fut  # nothing will ever resolve this

    with pytest.raises(ReproError, match="virtual clock stalled"):
        clock.run(scenario())


def test_run_returns_scenario_result():
    clock = VirtualClock()

    async def scenario():
        await clock.sleep(123)
        return "done"

    assert clock.run(scenario()) == "done"
    assert clock.now_us == 123.0


def test_wakeup_chain_of_any_depth_finishes_within_its_instant():
    clock = VirtualClock()
    hits: list[float] = []

    async def chain():
        await clock.sleep(10)
        for _ in range(100):
            await asyncio.sleep(0)
        hits.append(clock.now_us)

    async def scenario():
        await asyncio.gather(chain(), clock.sleep_until(20))

    clock.run(scenario())
    assert hits == [10.0]
    assert clock.now_us == 20.0


def test_same_instant_waiters_resolve_in_registration_order():
    clock = VirtualClock()
    order: list[str] = []

    async def sleeper(name: str, register_at_us: float):
        await clock.sleep_until(register_at_us)
        await clock.sleep(100 - register_at_us)  # every one wakes at 100
        order.append(name)

    async def scenario():
        await asyncio.gather(
            sleeper("late", 50), sleeper("early", 10), sleeper("mid", 30)
        )

    clock.run(scenario())
    assert order == ["early", "mid", "late"]
    assert clock.now_us == 100.0


def test_stall_with_a_started_broker_raises_promptly(broker_factory):
    broker = broker_factory()
    errors: list[Exception] = []

    async def scenario():
        await broker.start()
        await asyncio.get_running_loop().create_future()  # never resolves

    def target():
        try:
            broker.clock.run(scenario())
        except Exception as err:  # reported on the test's own thread
            errors.append(err)

    # a thread, so a hang fails the test instead of stalling the suite
    worker = threading.Thread(target=target, daemon=True)
    worker.start()
    worker.join(timeout=5.0)
    assert not worker.is_alive(), "a stalled scenario hung"
    assert len(errors) == 1 and isinstance(errors[0], ReproError), errors
    assert "virtual clock stalled" in str(errors[0])
