"""Rendering of the paper's tables (I and II) with paper-vs-measured deltas."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.report.format import format_pct, format_seconds, format_us, render_grid

if TYPE_CHECKING:
    from repro.apps.downscaler.runner import OperationTable

__all__ = ["PAPER_TABLE1", "PAPER_TABLE2", "render_operation_table", "compare_to_paper"]

#: Published rows: prefix -> (calls, GPU time us, GPU time %)
PAPER_TABLE1 = {
    "H. Filter": (300, 844185, 29.51),
    "V. Filter": (300, 424223, 14.83),
    "memcpyHtoDasync": (900, 1391670, 48.74),
    "memcpyDtoHasync": (900, 197057, 6.89),
    "__total_us__": 2.86e6,
}

PAPER_TABLE2 = {
    "H. Filter": (300, 1015137, 29.60),
    "V. Filter": (300, 762270, 22.22),
    "memcpyHtoDasync": (900, 1454400, 42.40),
    "memcpyDtoHasync": (900, 198000, 5.77),
    "__total_us__": 3.43e6,
}


def render_operation_table(table: OperationTable) -> str:
    """The Table I/II layout: Operation | #calls | GPU time(us) | GPU time (%)."""
    rows = [
        [r.operation, str(r.calls), format_us(r.gpu_time_us), format_pct(r.gpu_time_pct)]
        for r in table.rows
    ]
    rows.append(["Total", "-", format_seconds(table.total_us), "100.00"])
    return render_grid(
        ["Operation", "#calls", "GPU time(usec)", "GPU time (%)"], rows, table.title
    )


@dataclass(frozen=True)
class RowComparison:
    operation: str
    measured_us: float
    paper_us: float

    @property
    def delta_pct(self) -> float:
        return 100.0 * (self.measured_us - self.paper_us) / self.paper_us


def compare_to_paper(
    table: OperationTable, paper: dict, frames: int = 300
) -> list[RowComparison]:
    """Per-row measured-vs-paper comparison (EXPERIMENTS.md raw material).

    Published values are for 300 frames; ``frames`` scales them so shorter
    runs compare like for like.
    """
    scale = frames / 300.0
    out = []
    for r in table.rows:
        for prefix, (calls, us, pct) in paper.items():
            if prefix.startswith("__"):
                continue
            if r.operation.startswith(prefix.split(" (")[0]):
                out.append(RowComparison(r.operation, r.gpu_time_us, us * scale))
                break
    out.append(
        RowComparison("Total", table.total_us, paper["__total_us__"] * scale)
    )
    return out


def render_comparison(table: OperationTable, paper: dict, frames: int = 300) -> str:
    rows = [
        [c.operation, format_us(c.measured_us), format_us(c.paper_us),
         f"{c.delta_pct:+.1f}%"]
        for c in compare_to_paper(table, paper, frames)
    ]
    title = table.title + (f"  [paper values scaled to {frames} frames]" if frames != 300 else "")
    return render_grid(
        ["Operation", "measured (us)", "paper (us)", "delta"], rows, title
    )
