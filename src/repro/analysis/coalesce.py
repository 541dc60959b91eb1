"""Coalescing lint: flag kernels with non-unit adjacent-thread strides.

Reuses the Fermi transaction model of :mod:`repro.gpu.coalescing` and the
strides of :func:`repro.ir.metrics.probe_access_profile` (each access's
address delta between adjacent threads along the fastest-varying grid
dimension, read off its index expressions; a no-value access has none).  A
kernel whose accesses are not stride-0/1 moves more 128-byte lines than it
uses; the lint reports the worst stride and the mean traffic inflation so
the finding is actionable next to the cost model's numbers.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.diagnostics import Diagnostic
from repro.gpu.coalescing import access_efficiency, mean_inflation
from repro.gpu.device import GTX480, DeviceSpec
from repro.ir.kernel import Kernel
from repro.ir.metrics import probe_access_profile

__all__ = ["check_kernel_coalescing"]


def check_kernel_coalescing(
    kernel: Kernel,
    device: DeviceSpec | None = None,
    location: str = "",
) -> list[Diagnostic]:
    """A COALESCE001 warning when ``kernel`` has uncoalesced accesses."""
    device = device or GTX480
    if kernel.space.is_empty():
        return []
    profile = probe_access_profile(kernel)
    itemsize = max(
        (int(np.dtype(a.dtype).itemsize) for a in kernel.arrays), default=4
    )
    strides = list(profile.read_strides) + list(profile.write_strides)
    bad = [s for s in strides if access_efficiency(s, itemsize, device) < 0.999]
    if not bad:
        return []
    worst = max(bad, key=abs)
    eff = access_efficiency(worst, itemsize, device)
    inflation = mean_inflation(strides, itemsize, device)
    where = location or f"kernel {kernel.name!r}"
    return [
        Diagnostic(
            code="COALESCE001",
            severity="warning",
            message=(
                f"{len(bad)} of {len(strides)} accesses are uncoalesced "
                f"(worst stride {worst} elements, {eff:.0%} efficient; mean "
                f"traffic inflation {inflation:.2f}x)"
            ),
            location=where,
            hint=(
                "make the fastest-varying thread index the innermost array "
                "subscript (stride 1 between adjacent threads)"
            ),
        )
    ]
