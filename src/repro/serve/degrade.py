"""Graceful degradation: a hysteretic NORMAL <-> DEGRADED state machine.

Under sustained overload an admission-controlled system settles into
rejecting the excess; degradation instead trades *quality* for goodput:
the broker drops to the degraded serving configuration (the CIF frame
size — roughly an order of magnitude less device work per request) so
the queue drains and latency returns under the SLO.

The trigger is a projected p99: the sliding window of recently completed
request latencies merged with the projected latency of everything
currently queued (age so far + one batch-service estimate).  Using the
projection rather than completed latencies alone lets the machine react
while the queue is building, before the bad latencies are *observed*.

Transitions are hysteretic on both axes so the machine cannot flap:

* enter DEGRADED after ``enter_breaches`` consecutive evaluations with
  projected p99 above the SLO;
* return to NORMAL only after ``exit_clears`` consecutive evaluations
  with projected p99 below ``recover_ratio`` x SLO (a strictly lower bar
  than the entry threshold);
* evaluations landing between the two thresholds reset both streaks.
"""

from __future__ import annotations

from collections import deque

__all__ = ["DegradeController", "NORMAL", "DEGRADED"]

NORMAL = "normal"
DEGRADED = "degraded"


def _p99(sample: list[float]) -> float:
    """``np.percentile(sample, 99)`` to the bit (its linear method's lerp)."""
    s = sorted(sample)
    v = (len(s) - 1) * 0.99
    lo = int(v)
    g = v - lo
    a, b = s[lo], s[min(lo + 1, len(s) - 1)]
    return a + (b - a) * g if g < 0.5 else b - (b - a) * (1 - g)


class DegradeController:
    """SLO-gated quality degradation with two-threshold hysteresis."""

    def __init__(
        self,
        slo_us: float,
        enter_breaches: int = 3,
        exit_clears: int = 6,
        recover_ratio: float = 0.7,
        window: int = 64,
    ):
        if not 0.0 < recover_ratio <= 1.0:
            raise ValueError("recover_ratio must be in (0, 1]")
        self.slo_us = slo_us
        self.enter_breaches = max(1, enter_breaches)
        self.exit_clears = max(1, exit_clears)
        self.recover_ratio = recover_ratio
        self.state = NORMAL
        self._latencies: deque[float] = deque(maxlen=window)
        self._breaches = 0
        self._clears = 0
        #: (virtual time, new state, projected p99 that triggered it)
        self.transitions: list[tuple[float, str, float]] = []

    @property
    def degraded(self) -> bool:
        return self.state == DEGRADED

    def record_latency(self, latency_us: float) -> None:
        """Fold one completed request latency into the window."""
        self._latencies.append(latency_us)

    def projected_p99_us(
        self,
        now_us: float,
        queued_arrivals_us: list[float],
        est_service_us: float | None,
    ) -> float:
        """p99 over completed latencies plus the queue's projected ones."""
        est = est_service_us or 0.0
        sample = list(self._latencies)
        sample.extend(now_us - a + est for a in queued_arrivals_us)
        return _p99(sample) if sample else 0.0

    def evaluate(
        self,
        now_us: float,
        queued_arrivals_us: list[float],
        est_service_us: float | None,
    ) -> str:
        """Re-evaluate the state machine; returns the (possibly new) state."""
        p99 = self.projected_p99_us(now_us, queued_arrivals_us, est_service_us)
        if p99 > self.slo_us:
            self._breaches += 1
            self._clears = 0
            if self.state == NORMAL and self._breaches >= self.enter_breaches:
                self._transition(now_us, DEGRADED, p99)
        elif p99 <= self.recover_ratio * self.slo_us:
            self._clears += 1
            self._breaches = 0
            if self.state == DEGRADED and self._clears >= self.exit_clears:
                self._transition(now_us, NORMAL, p99)
        else:
            # the dead band between the thresholds: no streak survives it
            self._breaches = 0
            self._clears = 0
        return self.state

    def _transition(self, now_us: float, to_state: str, p99_us: float) -> None:
        self.state = to_state
        self._breaches = 0
        self._clears = 0
        self.transitions.append((now_us, to_state, p99_us))

    def as_dict(self) -> dict:
        return {
            "state": self.state,
            "slo_us": self.slo_us,
            "transitions": [
                {"at_us": round(t, 3), "to": s, "projected_p99_us": round(p, 3)}
                for t, s, p in self.transitions
            ],
        }
