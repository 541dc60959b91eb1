"""Modelled candidate cost: the tuner's objective.

A candidate is priced without functional execution: the compiled
program's static shape (:class:`~repro.opt.ProgramStats`) supplies
transferred bytes and launch count, and a
:func:`~repro.runtime.schedule.build_schedule` replay over a few frames
supplies the modelled makespan under the candidate's depth and placement,
with the region-precise dependence edges every schedule uses.
The three numbers compare **lexicographically** — makespan first, then
transferred bytes, then launches — so "never worse than the default"
and "strictly better" are plain tuple comparisons with no magic weights.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CandidateCost"]


@dataclass(frozen=True, order=True)
class CandidateCost:
    """Lexicographic (makespan, transferred bytes, launches) objective."""

    #: modelled pipeline makespan over the costing frames, microseconds
    makespan_us: float
    #: bytes crossing PCIe per program run (static, from the op stream)
    transferred_bytes: int
    #: kernel launches per program run
    launches: int

    def better_than(self, other: "CandidateCost") -> bool:
        return self < other

    def as_dict(self) -> dict:
        # the makespan stays un-rounded: records digest their canonical
        # serialisation, so a lossy dict round-trip would change content
        return {
            "makespan_us": self.makespan_us,
            "transferred_bytes": self.transferred_bytes,
            "launches": self.launches,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CandidateCost":
        return cls(
            makespan_us=float(d["makespan_us"]),
            transferred_bytes=int(d["transferred_bytes"]),
            launches=int(d["launches"]),
        )
