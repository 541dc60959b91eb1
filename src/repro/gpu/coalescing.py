"""Memory-coalescing model for warp accesses.

On Fermi-class devices a warp's memory access is serviced in 128-byte
transactions.  When the 32 threads of a warp access consecutive addresses
(`stride 1` in elements), the access coalesces into a minimal number of
transactions; larger strides spread the warp over more lines.

The executor reads per-access strides off the kernel's index expressions
at two adjacent work-items (:func:`repro.ir.metrics.probe_access_profile`,
which runs no kernel) and uses these helpers to turn them into a traffic
inflation factor for the cost model.
"""

from __future__ import annotations

from math import ceil

from repro.gpu.device import DeviceSpec

__all__ = ["transactions_per_warp", "access_efficiency", "mean_inflation"]


def transactions_per_warp(
    stride_elems: int, itemsize: int, device: DeviceSpec
) -> int:
    """Number of transactions one warp needs for one access step.

    ``stride_elems`` is the address delta (in elements) between adjacent
    threads; 0 means all threads touch the same element (broadcast, one
    transaction).
    """
    if itemsize <= 0:
        raise ValueError("itemsize must be positive")
    s = abs(int(stride_elems))
    if s == 0:
        return 1
    span = device.warp_size * s * itemsize
    ideal = max(1, ceil(device.warp_size * itemsize / device.transaction_bytes))
    # one transaction per distinct line touched, at most one per thread
    lines = min(device.warp_size, ceil(span / device.transaction_bytes))
    return max(ideal, lines)


def access_efficiency(stride_elems: int, itemsize: int, device: DeviceSpec) -> float:
    """Useful bytes / transferred bytes for one warp access (0 < e <= 1)."""
    useful = device.warp_size * itemsize
    moved = transactions_per_warp(stride_elems, itemsize, device) * device.transaction_bytes
    return min(1.0, useful / moved)


def mean_inflation(strides, itemsize: int, device: DeviceSpec) -> float:
    """Average traffic inflation (1/efficiency) over a set of accesses.

    Returns 1.0 for an empty stride list (no memory accesses).
    """
    strides = list(strides)
    if not strides:
        return 1.0
    total = sum(1.0 / access_efficiency(s, itemsize, device) for s in strides)
    return total / len(strides)
