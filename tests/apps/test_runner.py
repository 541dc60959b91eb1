"""Tests for the experiment runner (small frame counts, tiny frames where
possible; the full-scale HD/300-frame runs live in benchmarks/)."""

import numpy as np
import pytest

from repro.apps.downscaler import CIF, DownscalerLab, NONGENERIC, SacDownscalerJob
from repro.errors import ReproError

FRAMES = 4


@pytest.fixture(scope="module")
def lab():
    return DownscalerLab(size=CIF, frames=FRAMES)


class TestTables:
    def test_table1_structure(self, lab):
        t = lab.table1()
        assert [r.operation for r in t.rows] == [
            "H. Filter (3 kernels)",
            "V. Filter (3 kernels)",
            "memcpyHtoDasync",
            "memcpyDtoHasync",
        ]
        assert t.row("H. Filter").calls == FRAMES
        assert t.row("memcpyHtoD").calls == 3 * FRAMES
        assert sum(r.gpu_time_pct for r in t.rows) == pytest.approx(100.0)
        assert t.total_us == pytest.approx(sum(r.gpu_time_us for r in t.rows))

    def test_table2_structure(self, lab):
        t = lab.table2()
        assert t.rows[0].operation == "H. Filter (5 kernels)"
        assert t.rows[1].operation == "V. Filter (7 kernels)"
        assert t.row("memcpyDtoH").calls == 3 * FRAMES

    def test_tables_exclude_host_time(self, lab):
        """Tables report GPU time only (the paper's cudaprof view)."""
        t = lab.table1()
        assert all(
            not r.operation.startswith(("host", "ip:", "cpu:")) for r in t.rows
        )


class TestFigure9:
    def test_rows_and_orderings(self, lab):
        rows = lab.figure9()
        assert len(rows) == 4
        cfg = {r.configuration: r for r in rows}
        assert cfg["SAC-CUDA Non-Generic"].hfilter_s < cfg["SAC-CUDA Generic"].hfilter_s
        # all positive
        for r in rows:
            assert r.hfilter_s > 0 and r.vfilter_s > 0

    def test_times_scale_linearly_with_frames(self):
        a = DownscalerLab(size=CIF, frames=2).figure9()
        b = DownscalerLab(size=CIF, frames=4).figure9()
        for ra, rb in zip(a, b):
            assert rb.hfilter_s == pytest.approx(2 * ra.hfilter_s, rel=1e-6)


class TestFigure12:
    def test_series(self, lab):
        s = lab.figure12()
        assert len(s.operations) == 4
        assert len(s.sac_s) == 4 and len(s.gaspard_s) == 4
        assert all(v >= 0 for v in s.sac_s + s.gaspard_s)


class TestClaims:
    def test_claims_present(self, lab):
        claims = lab.headline_claims()
        expected_keys = {
            "generic_over_nongeneric_h",
            "generic_over_nongeneric_v",
            "speedup_gpu_vs_seq_h",
            "speedup_gpu_vs_seq_v",
            "seq_generic_over_nongeneric_h",
            "transfer_share_gaspard",
            "transfer_share_sac",
            "gaspard_over_sac_total",
        }
        assert expected_keys <= set(claims)
        assert all(v > 0 for v in claims.values())


class TestValidation:
    def test_functional_validation_catches_corruption(self, lab):
        """If a compiled program produced wrong pixels the lab must raise."""

        class CorruptGolden(SacDownscalerJob):
            def golden(self, frame, instance, program):
                return {
                    name: np.zeros((1, 1), dtype=np.int32)
                    for name in super().golden(frame, instance, program)
                }

        with pytest.raises(ReproError, match="mismatch"):
            lab.operation_table("corrupt", CorruptGolden(size=CIF))

    def test_compilation_cached(self, lab):
        a = lab.sac_compiled(NONGENERIC, "cuda")
        b = lab.sac_compiled(NONGENERIC, "cuda")
        assert a is b
