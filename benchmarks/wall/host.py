"""Timing work on a vCPU whose speed changes under it.

The benchmark host is a shared 2-vCPU virtual machine.  Each vCPU
switches between full speed and states up to about 1.7x slower, for 30 ms
to several seconds at a time (contention on the physical core), and the
two vCPUs switch partly independently.  Two tools deal with it:

* Before a rep, :meth:`HostGate.wait` probes every allowed vCPU with a
  ~1 ms busy loop, pins the process to the fastest, and waits (bounded)
  until that one runs at the best speed seen so far.  A child process
  inherits the pinning, so ``run.py`` gates the start of each cold set-up
  the same way.
* While the work runs, :class:`SpeedMeter` runs the same probe every
  25 ms and converts the work's wall time to *reference seconds*: the
  time it would have taken at the speed at which the probe takes
  :data:`REF_PROBE_S`.
"""

from __future__ import annotations

import os
import signal
import statistics
import time

#: a probe this much slower than the best one seen means a slow state
SLOW = 1.2
#: the probe's time at full speed on the 2-vCPU host the benchmark was
#: calibrated on (the fastest of 3,000 probes)
REF_PROBE_S = 0.00064
#: how often SpeedMeter probes the speed of the running work
PERIOD_S = 0.025


def _probe() -> float:
    t0 = time.perf_counter()
    s = 0
    for i in range(20000):
        s += i
    return time.perf_counter() - t0


class HostGate:
    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.best = min(_probe() for _ in range(5))

    def wait(self, max_wait_s: float = 0.5) -> None:
        """Pin to the fastest vCPU; return once it runs at full speed."""
        end = time.perf_counter() + max_wait_s
        while True:
            speeds = []
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                speeds.append((_probe(), cpu))
            fastest, cpu = min(speeds)
            os.sched_setaffinity(0, {cpu})
            self.best = min(self.best, fastest)
            if fastest <= SLOW * self.best or time.perf_counter() >= end:
                return

    def release(self) -> None:
        os.sched_setaffinity(0, self.cpus)


class SpeedMeter:
    """Samples the vCPU's speed while timed work runs.

    Between :meth:`start` and :meth:`stop`, a ``SIGALRM`` interval timer
    interrupts the work every :data:`PERIOD_S` to run the probe once more;
    a probe also runs just before and just after.  The probes take ~3% of
    the time, and :meth:`reference_s` takes them out again before scaling.
    ``period_s=0`` probes only before and after, and leaves the work alone.
    """

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.samples: list[float] = []
        self.inside_s = 0.0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        self.samples.append(_probe())

    def start(self) -> None:
        self.samples = [_probe()]
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)

    def stop(self) -> None:
        """Disarm the timer; call it before reading the clock that ends the work."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        # every probe since start() but the first ran inside the work
        self.inside_s = sum(self.samples[1:])

    def scale(self) -> float:
        """Reference seconds per second of the work; probes once more after it."""
        self.samples.append(_probe())
        return REF_PROBE_S / statistics.mean(self.samples)

    def reference_s(self, wall_s: float) -> float:
        """``wall_s`` less the probes, in seconds at reference speed."""
        return (wall_s - self.inside_s) * self.scale()
