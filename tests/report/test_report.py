"""Tests for table/figure rendering and paper comparisons."""

import pytest

from repro.apps.downscaler.runner import (
    Figure9Row,
    Figure12Series,
    OperationTable,
    ProfileRow,
)
from repro.report import (
    PAPER_TABLE1,
    PAPER_TABLE2,
    bar,
    compare_to_paper,
    format_seconds,
    format_us,
    render_comparison,
    render_figure9,
    render_figure12,
    render_grid,
    render_operation_table,
)


def sample_table():
    rows = (
        ProfileRow("H. Filter (3 kernels)", 300, 844185.0, 29.51),
        ProfileRow("V. Filter (3 kernels)", 300, 424223.0, 14.83),
        ProfileRow("memcpyHtoDasync", 900, 1391670.0, 48.74),
        ProfileRow("memcpyDtoHasync", 900, 197057.0, 6.89),
    )
    return OperationTable(title="T", rows=rows, total_us=2857135.0)


class TestFormat:
    def test_format_us_spaces_thousands(self):
        assert format_us(1391670) == "1 391 670"

    def test_format_seconds(self):
        assert format_seconds(2.86e6) == "2.86sec"

    def test_render_grid_alignment(self):
        text = render_grid(["a", "bb"], [["xxx", "y"], ["z", "wwww"]])
        lines = text.splitlines()
        assert len({line.index("|") for line in lines if "|" in line}) == 1


class TestOperationTable:
    def test_layout_matches_paper(self):
        text = render_operation_table(sample_table())
        assert "Operation" in text and "#calls" in text
        assert "GPU time(usec)" in text and "GPU time (%)" in text
        assert "Total" in text
        assert "2.86sec" in text
        assert "100.00" in text

    def test_row_lookup(self):
        t = sample_table()
        assert t.row("H. Filter").calls == 300
        with pytest.raises(KeyError):
            t.row("nonexistent")


class TestComparison:
    def test_exact_match_gives_zero_delta(self):
        cmps = compare_to_paper(sample_table(), PAPER_TABLE1)
        for c in cmps[:-1]:
            assert c.delta_pct == pytest.approx(0.0, abs=0.01)

    def test_frame_scaling(self):
        cmps = compare_to_paper(sample_table(), PAPER_TABLE1, frames=150)
        # the paper value is halved, so the sample (full-scale) doubles it
        assert cmps[0].delta_pct == pytest.approx(100.0, abs=0.5)

    def test_render_contains_deltas(self):
        text = render_comparison(sample_table(), PAPER_TABLE1)
        assert "+0.0%" in text or "-0.0%" in text

    def test_paper_constants_are_self_consistent(self):
        for paper in (PAPER_TABLE1, PAPER_TABLE2):
            rows = [v for k, v in paper.items() if not k.startswith("__")]
            rows_total = sum(us for _, us, _ in rows)
            assert rows_total == pytest.approx(paper["__total_us__"], rel=0.01)


class TestFigures:
    def test_bar_scaling(self):
        assert bar(10, 10, width=10) == "#" * 10
        assert bar(5, 10, width=10) == "#" * 5
        assert bar(0, 10, width=10) == ""
        assert bar(1, 0) == ""

    def test_render_figure9(self):
        rows = [
            Figure9Row("SAC-Seq Generic", 4.4, 2.8),
            Figure9Row("SAC-CUDA Non-Generic", 0.3, 0.2),
        ]
        text = render_figure9(rows)
        assert "SAC-Seq Generic" in text
        assert "4.40s" in text
        assert "Horizontal" in text and "Vertical" in text

    def test_render_figure12(self):
        s = Figure12Series(
            operations=("Horizontal Filter", "Vertical Filter", "Host2Device", "Device2Host"),
            sac_s=(1.0, 0.76, 1.45, 0.2),
            gaspard_s=(0.84, 0.42, 1.39, 0.2),
        )
        text = render_figure12(s)
        assert "SAC" in text and "Gaspard2" in text
        assert "Host2Device" in text
