"""ASCII renderings of the paper's Figures 9 and 12 (grouped bar charts)."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.apps.downscaler.runner import Figure9Row, Figure12Series

__all__ = ["render_figure9", "render_figure12", "bar"]

_WIDTH = 48


def bar(value: float, maximum: float, width: int = _WIDTH) -> str:
    if maximum <= 0:
        return ""
    n = round(width * value / maximum)
    return "#" * max(0, min(width, n))


def render_figure9(rows: list[Figure9Row]) -> str:
    """Figure 9: execution time of the horizontal and vertical filters."""
    peak = max(max(r.hfilter_s, r.vfilter_s) for r in rows)
    lines = [
        "Execution Time of Horizontal and Vertical Filters (300 iterations)",
        "",
    ]
    for r in rows:
        lines.append(f"{r.configuration}")
        lines.append(
            f"  Horizontal | {bar(r.hfilter_s, peak)} {r.hfilter_s:6.2f}s"
        )
        lines.append(
            f"  Vertical   | {bar(r.vfilter_s, peak)} {r.vfilter_s:6.2f}s"
        )
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def render_figure12(series: Figure12Series) -> str:
    """Figure 12: per-operation comparison between SaC and Gaspard2."""
    peak = max(max(series.sac_s), max(series.gaspard_s))
    lines = ["Kernel Execution and Data Transfer Time (300 frames)", ""]
    for op, sac, gaspard in zip(series.operations, series.sac_s, series.gaspard_s):
        lines.append(op)
        lines.append(f"  SAC      | {bar(sac, peak)} {sac:6.3f}s")
        lines.append(f"  Gaspard2 | {bar(gaspard, peak)} {gaspard:6.3f}s")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
