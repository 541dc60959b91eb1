"""Deterministic virtual time for the asyncio serving tier.

Every duration in the runtime is *modelled* (microseconds of simulated
GTX 480 time), so the serving broker must not sleep on the wall clock:
a load sweep that really waited out its inter-arrival gaps would take
minutes and produce timings polluted by host jitter.  :class:`VirtualClock`
gives the broker asyncio-compatible ``sleep``/``sleep_until`` primitives
on a simulated microsecond axis.  Sleepers wait in a heap ordered by
``(wake_us, seq)``, so equal wake times resolve FIFO (asyncio's own timer
heap does not promise that).

:meth:`run` drives a scenario on a ``SelectorEventLoop`` whose selector
is the idle hook.  The loop asks its selector to block only when no
callback is ready, i.e. once every runnable task has run, and only then
does virtual time advance: the hook polls real events first (a thread's
``call_soon_threadsafe`` wake-up is never lost), then moves ``now_us`` to
the earliest live sleeper's wake time and resolves it.  Wake-up chains of
any depth finish within their instant, time jumps between events, and two
runs of one scenario interleave identically.  Cancelled sleepers (the
batcher races its flush timer against arrivals) are dropped without
advancing time.  An idle loop with no sleeper and no asyncio timer left
is a stall, reported as a :class:`ReproError` instead of a hang.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import selectors
from typing import Awaitable, TypeVar

from repro.errors import ReproError

__all__ = ["VirtualClock"]

T = TypeVar("T")


class VirtualClock:
    """Simulated-microsecond time source driving an asyncio event loop."""

    def __init__(self, start_us: float = 0.0):
        self._now_us = float(start_us)
        #: heap of (wake_us, seq, future)
        self._waiters: list[tuple[float, int, asyncio.Future]] = []
        self._seq = itertools.count()

    @property
    def now_us(self) -> float:
        return self._now_us

    async def sleep(self, delay_us: float) -> None:
        """Suspend the calling task for ``delay_us`` of virtual time."""
        await self.sleep_until(self._now_us + max(0.0, delay_us))

    async def sleep_until(self, at_us: float) -> None:
        """Suspend until the virtual clock reaches ``at_us``."""
        if at_us <= self._now_us:
            # already due: yield once so same-instant wakeups stay ordered
            await asyncio.sleep(0)
            return
        fut = asyncio.get_running_loop().create_future()
        heapq.heappush(self._waiters, (at_us, next(self._seq), fut))
        await fut

    def _wake_next(self) -> bool:
        """Advance to the earliest live sleeper and resolve it, if any."""
        while self._waiters:
            at_us, _, fut = heapq.heappop(self._waiters)
            if not fut.done():  # cancelled sleepers lost their race
                self._now_us = max(self._now_us, at_us)
                fut.set_result(None)
                return True
        return False

    def run(self, scenario: Awaitable[T]) -> T:
        """Run ``scenario`` to completion on a fresh loop under this clock."""
        loop = asyncio.SelectorEventLoop(_IdleSelector(self))
        try:
            return loop.run_until_complete(scenario)
        finally:  # asyncio.run's teardown; its loop_factory needs 3.11
            try:
                leftover = asyncio.all_tasks(loop)
                for task in leftover:
                    task.cancel()
                if leftover:
                    loop.run_until_complete(
                        asyncio.gather(*leftover, return_exceptions=True)
                    )
                loop.run_until_complete(loop.shutdown_asyncgens())
            finally:
                loop.close()


class _IdleSelector(selectors.DefaultSelector):
    """The loop's selector: where an idle loop advances virtual time."""

    def __init__(self, clock: VirtualClock):
        super().__init__()
        self._clock = clock

    def select(self, timeout: float | None = None):
        # any timeout but 0 means no callback is ready: the loop is idle
        events = super().select(0)
        if events or timeout == 0 or self._clock._wake_next():
            return events
        if timeout is None:
            raise ReproError(
                "virtual clock stalled: the scenario is still pending but "
                "no task is sleeping on the clock (a coroutine awaits "
                "something that will never resolve)"
            )
        # a real asyncio timer and no virtual sleeper: wait as asyncio would
        return super().select(timeout)
