"""Unit tests for the coalescing and cost models."""

import pytest

from repro.gpu import (
    GTX480,
    CostModel,
    CostParams,
    UNCALIBRATED,
    access_efficiency,
    mean_inflation,
    transactions_per_warp,
)
from repro.ir.metrics import AccessProfile
from repro.ir.program import HostWork


class TestCoalescing:
    def test_unit_stride_is_minimal(self):
        # 32 threads x 4 bytes = 128 bytes = exactly one transaction
        assert transactions_per_warp(1, 4, GTX480) == 1
        assert access_efficiency(1, 4, GTX480) == 1.0

    def test_broadcast_is_one_transaction(self):
        assert transactions_per_warp(0, 4, GTX480) == 1

    def test_stride_grows_transactions(self):
        assert transactions_per_warp(2, 4, GTX480) == 2
        assert transactions_per_warp(8, 4, GTX480) == 8
        # beyond 32 elements stride: one transaction per thread, capped
        assert transactions_per_warp(64, 4, GTX480) == 32
        assert transactions_per_warp(1000, 4, GTX480) == 32

    def test_negative_stride_same_as_positive(self):
        assert transactions_per_warp(-8, 4, GTX480) == transactions_per_warp(8, 4, GTX480)

    def test_efficiency_bounds(self):
        for s in (0, 1, 2, 7, 32, 500):
            e = access_efficiency(s, 4, GTX480)
            assert 0.0 < e <= 1.0

    def test_mean_inflation_empty_is_one(self):
        assert mean_inflation([], 4, GTX480) == 1.0

    def test_mean_inflation_mixed(self):
        # stride 1 -> inflation 1; stride 2 -> inflation 2 (two half-used lines)
        assert mean_inflation([1, 2], 4, GTX480) == pytest.approx(1.5)

    def test_itemsize8_unit_stride(self):
        # 32 threads x 8 bytes = 256 bytes = 2 transactions, still fully used
        assert transactions_per_warp(1, 8, GTX480) == 2
        assert access_efficiency(1, 8, GTX480) == 1.0

    def test_bad_itemsize(self):
        with pytest.raises(ValueError):
            transactions_per_warp(1, 0, GTX480)


def model(**overrides):
    return CostModel(UNCALIBRATED.with_overrides(**overrides))


def profile(items=100, reads=2, writes=1, flops=3, rs=(1, 1), ws=(1,)):
    return AccessProfile(
        read_strides=tuple(rs),
        write_strides=tuple(ws),
        reads_per_item=reads,
        writes_per_item=writes,
        flops_per_item=flops,
        items=items,
    )


class TestTransferTimes:
    def test_linear_in_bytes(self):
        m = model(h2d_bandwidth=100.0, transfer_latency_us=5.0)
        assert m.h2d_time_us(0) == pytest.approx(5.0)
        assert m.h2d_time_us(1000) == pytest.approx(15.0)

    def test_d2h_uses_own_bandwidth(self):
        m = model(h2d_bandwidth=100.0, d2h_bandwidth=200.0, transfer_latency_us=0.0)
        assert m.h2d_time_us(1000) == pytest.approx(10.0)
        assert m.d2h_time_us(1000) == pytest.approx(5.0)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            model().h2d_time_us(-1)


class TestKernelCost:
    def test_issue_time_scales_with_items_and_ops(self):
        m = model(issue_rate_ops_per_us=100.0, launch_overhead_us=0.0, model_memory=False)
        b1 = m.kernel_cost(profile(items=100, reads=1, writes=1, flops=0), 0, 0)
        b2 = m.kernel_cost(profile(items=200, reads=1, writes=1, flops=0), 0, 0)
        assert b2.issue_time_us == pytest.approx(2 * b1.issue_time_us)
        assert b1.total_us == b1.issue_time_us

    def test_launch_overhead_added(self):
        m = model(launch_overhead_us=7.0, model_memory=False)
        b = m.kernel_cost(profile(), 0, 0)
        assert b.launch_overhead_us == 7.0
        assert b.total_us == 7.0 + b.issue_time_us

    def test_memory_bound_kernel(self):
        m = model(
            issue_rate_ops_per_us=1e12,  # issue is free
            dram_bandwidth=100.0,
            launch_overhead_us=0.0,
        )
        b = m.kernel_cost(profile(rs=(1,), ws=(1,)), 1000, 500)
        assert b.bound == "memory"
        assert b.memory_time_us == pytest.approx(15.0)

    def test_coalescing_inflates_memory_time(self):
        m = model(issue_rate_ops_per_us=1e12, dram_bandwidth=100.0, launch_overhead_us=0.0)
        good = m.kernel_cost(profile(rs=(1,), ws=(1,)), 1000, 0)
        bad = m.kernel_cost(profile(rs=(8,), ws=(1,)), 1000, 0)
        assert bad.memory_time_us == pytest.approx(8 * good.memory_time_us)

    def test_coalescing_flag_disables_inflation(self):
        m = model(
            issue_rate_ops_per_us=1e12,
            dram_bandwidth=100.0,
            launch_overhead_us=0.0,
            model_coalescing=False,
        )
        bad = m.kernel_cost(profile(rs=(8,), ws=(1,)), 1000, 0)
        assert bad.memory_time_us == pytest.approx(10.0)

    def test_memory_flag_disables_memory_term(self):
        m = model(model_memory=False)
        b = m.kernel_cost(profile(), 10**9, 10**9)
        assert b.memory_time_us == 0.0
        assert b.bound == "issue"

    def test_total_is_max_of_terms_plus_overhead(self):
        m = model(launch_overhead_us=3.0)
        b = m.kernel_cost(profile(items=1000), 10**6, 0)
        assert b.total_us == pytest.approx(3.0 + max(b.issue_time_us, b.memory_time_us))


class TestHostCost:
    def test_host_work(self):
        m = model(host_rate_ops_per_us=10.0)
        t = m.host_work_time_us(HostWork(items=100, reads_per_item=1, writes_per_item=1, flops_per_item=3))
        assert t == pytest.approx(100 * 5 / 10.0)

    def test_sequential_time(self):
        m = model(host_rate_ops_per_us=10.0)
        assert m.sequential_time_us(100, 2, 1, 2) == pytest.approx(50.0)
        with pytest.raises(ValueError):
            m.sequential_time_us(-1, 1, 1, 1)


class TestParams:
    def test_with_overrides_returns_copy(self):
        p = UNCALIBRATED.with_overrides(launch_overhead_us=99.0)
        assert p.launch_overhead_us == 99.0
        assert UNCALIBRATED.launch_overhead_us != 99.0

    def test_describe_contains_all_params(self):
        m = CostModel(UNCALIBRATED)
        d = m.describe()
        assert d["device"] == "GTX480"
        assert "issue_rate_ops_per_us" in d
        assert "dram_bandwidth" in d
