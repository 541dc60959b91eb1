"""Request/response vocabulary of the serving tier.

A :class:`Request` is one client-submitted video frame tagged with a
tenant id and an optional deadline; the broker answers every submit with
exactly one :class:`Response` — admitted requests complete as ``ok`` or
``missed`` (served, but past the deadline), everything else is
``rejected`` with a machine-readable reason.  :class:`ServeConfig`
gathers the broker's knobs in one place so the CLI, the benchmarks and
the property tests construct identical brokers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Request",
    "Response",
    "ServeConfig",
    "latency_buckets",
    "STATUS_OK",
    "STATUS_MISSED",
    "STATUS_REJECTED",
    "REJECT_QUEUE",
    "REJECT_QUOTA",
    "REJECT_DEADLINE",
]

#: served within the deadline (or no deadline given)
STATUS_OK = "ok"
#: served, but completion fell past the request's deadline
STATUS_MISSED = "missed"
#: refused before service
STATUS_REJECTED = "rejected"

#: rejection reasons
REJECT_QUEUE = "queue-budget"
REJECT_QUOTA = "quota"
REJECT_DEADLINE = "deadline-infeasible"


@dataclass(frozen=True)
class Request:
    """One frame submitted for downscaling."""

    rid: int
    tenant: str
    frame: int
    arrival_us: float
    #: absolute virtual deadline; ``None`` — best effort
    deadline_us: float | None = None


@dataclass
class Response:
    """The broker's answer to one request."""

    request: Request
    status: str
    #: rejection reason (``None`` unless rejected)
    reason: str | None = None
    #: served at the degraded configuration
    degraded: bool = False
    #: frame-size name the request was served at ("" when rejected)
    served_size: str = ""
    batch_id: int | None = None
    batch_size: int = 0
    #: virtual times of service start / completion (0 when rejected)
    start_us: float = 0.0
    finish_us: float = 0.0
    #: functional outputs (``None`` when execution is disabled/rejected)
    outputs: dict[str, np.ndarray] | None = None
    #: outputs checked bit-exact against the golden reference
    validated: bool = False

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def rejected(self) -> bool:
        return self.status == STATUS_REJECTED

    @property
    def latency_us(self) -> float:
        """Arrival-to-completion latency (0 for rejected requests)."""
        if self.rejected:
            return 0.0
        return self.finish_us - self.request.arrival_us

    def as_dict(self) -> dict:
        return {
            "rid": self.request.rid,
            "tenant": self.request.tenant,
            "frame": self.request.frame,
            "status": self.status,
            "reason": self.reason,
            "degraded": self.degraded,
            "served_size": self.served_size,
            "batch_id": self.batch_id,
            "batch_size": self.batch_size,
            "arrival_us": round(self.request.arrival_us, 3),
            "finish_us": round(self.finish_us, 3),
            "latency_us": round(self.latency_us, 3),
        }


@dataclass(frozen=True)
class ServeConfig:
    """Every knob of the broker, in one immutable bundle."""

    #: dynamic batcher: flush at this many pending requests ...
    max_batch: int = 8
    #: ... or when the oldest request has waited this long (derived from
    #: the SLO when ``None``: a quarter of it)
    max_wait_us: float | None = None
    #: latency objective; drives the batcher slack, admission and the
    #: degradation state machine
    slo_us: float = 50_000.0
    #: admission: reject arrivals beyond this many queued requests
    queue_budget: int = 64
    #: admission: also reject when the projected wait already breaks the
    #: request's deadline
    reject_infeasible: bool = True
    #: per-tenant token bucket (tokens; tokens/s of virtual time)
    quota_capacity: float = 1024.0
    quota_refill_per_s: float = 1024.0
    #: scheduler knobs forwarded to build_schedule
    depth: int | None = 2
    serialize: bool = False
    #: degradation hysteresis: consecutive breached evaluations to enter,
    #: consecutive clear evaluations (below recover_ratio x SLO) to leave
    degrade_enter: int = 3
    degrade_exit: int = 6
    degrade_recover_ratio: float = 0.7
    #: sliding window of completed latencies behind the p99 projection
    latency_window: int = 64
    #: functional execution: "all" runs every served request bit-exact
    #: against the golden reference, "none" serves timing only
    execute: str = "all"
    #: size of the device fleet the broker dispatches batches over; each
    #: batch occupies one device for its modelled makespan
    devices: int = 1

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.devices < 1:
            raise ValueError("devices must be >= 1")
        if self.slo_us <= 0:
            raise ValueError("slo_us must be positive")
        if self.queue_budget < 1:
            raise ValueError("queue_budget must be >= 1")
        if self.execute not in ("all", "none"):
            raise ValueError(f"execute must be all/none, not {self.execute!r}")

    @property
    def batch_wait_us(self) -> float:
        """Effective batcher wait bound."""
        return self.slo_us / 4.0 if self.max_wait_us is None else self.max_wait_us


def latency_buckets(slo_us: float) -> tuple[float, ...]:
    """Histogram bucket bounds anchored on the SLO."""
    return (slo_us / 4, slo_us / 2, slo_us, 2 * slo_us, 4 * slo_us)
