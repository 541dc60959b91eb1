"""Bounds checker for kernel array accesses.

Proves every ``Read``/``Store`` index of a kernel in-bounds against the
declared array shapes, or emits a diagnostic with the offending range.

Two phases per kernel, over one walk of its accesses
(:func:`~repro.ir.evalvec.kernel_accesses`):

1. **Symbolic** — the region oracle's walk
   (:func:`~repro.analysis.regions.kernel_walk`) evaluates each index
   component to an affine form over the launch and loop axes, or to an
   :class:`~repro.analysis.intervals.Interval` where it is not affine;
   ``ThreadIdx(d)`` ranges over the actual index values of the launch space
   (honouring ``step``), and C division/modulo truncate as the evaluator
   does.  This proves the affine and modulo-wrapped indices both backends
   emit (``(o + F·i) mod shape``, the wrap-split bulk kernels).  The walk
   is memoised with the oracle's boxes, so certification re-checks a kernel
   the hazard pass has walked without walking it again.
2. **Exact** — components the ranges cannot prove (lost correlations like
   ``x/6 - x%6``) are evaluated over the whole index space, each ``For``
   iteration in turn, by the interpreter without memory
   (:class:`~repro.ir.evalvec.IndexEvaluator`), the walk the cost model's
   access metrics take too (:mod:`repro.ir.metrics`).  A component that
   has no value in some iteration (it reads memory, or divides by zero)
   gets a *cannot-prove* diagnostic instead.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.intervals import Interval
from repro.analysis.regions import kernel_walk
from repro.errors import IRError
from repro.ir.evalvec import IndexEvaluator, kernel_accesses
from repro.ir.kernel import Kernel

__all__ = ["AccessCheck", "check_kernel_bounds"]

#: grids larger than this skip the exact numeric fallback
_NUMERIC_LIMIT = 1 << 26


@dataclass(frozen=True)
class AccessCheck:
    """Result of checking one index component of one access site."""

    kind: str  # "read" | "store"
    array: str
    dim: int
    extent: int
    proven: bool
    interval: Interval | None  # abstract range (None when unanalysable)
    exact: tuple[int, int] | None  # numeric min/max (None when data-dependent)

    @property
    def out_of_bounds(self) -> bool:
        return self.exact is not None and (
            self.exact[0] < 0 or self.exact[1] >= self.extent
        )


def _exact_ranges(kernel: Kernel, scalars: dict, unproven: set) -> dict:
    """``(site, dim) -> (min, max)`` of each unproven component over the
    whole index space and every loop iteration, or ``None`` when some
    iteration gives it no value."""
    if kernel.space.size > _NUMERIC_LIMIT:
        return {}
    ev = IndexEvaluator(kernel.space, scalars)
    ranges: dict = {}
    for site, _kind, _array, index in kernel_accesses(kernel.body, ev):
        for d, comp in enumerate(index):
            key = (site, d)
            if key not in unproven or (key in ranges and ranges[key] is None):
                continue
            try:
                val = np.asarray(ev.eval(comp))
            except IRError:
                ranges[key] = None
                continue
            lo, hi = int(val.min()), int(val.max())
            if key in ranges:  # a loop's next iteration: widen
                lo, hi = min(lo, ranges[key][0]), max(hi, ranges[key][1])
            ranges[key] = (lo, hi)
    return ranges


def check_kernel_bounds(
    kernel: Kernel,
    scalars: dict[str, int | float] | None = None,
    location: str = "",
) -> list[Diagnostic]:
    """Diagnostics for every access of ``kernel`` not provably in-bounds.

    ``scalars`` supplies launch-time scalar argument values (from
    :class:`~repro.ir.program.LaunchKernel`); without them scalar parameters
    are unbounded.
    """
    if kernel.space.is_empty():
        return []
    scalars = scalars or {}
    walk = kernel_walk(kernel, scalars.items())
    shapes = {a.name: a.shape for a in kernel.arrays}
    checks: dict[tuple[int, int], AccessCheck] = {}
    for site, (kind, array, values) in enumerate(walk.sites):
        shape = shapes.get(array)
        if shape is None or len(values) != len(shape):
            continue  # validate_kernel's domain
        for d, value in enumerate(values):
            iv = walk.interval(value)
            checks[site, d] = AccessCheck(
                kind=kind,
                array=array,
                dim=d,
                extent=shape[d],
                proven=Interval(0, shape[d] - 1).contains(iv),
                interval=iv if iv.is_bounded else None,
                exact=None,
            )
    unproven = {key for key, check in checks.items() if not check.proven}
    if unproven:
        for key, exact in _exact_ranges(kernel, scalars, unproven).items():
            checks[key] = replace(checks[key], exact=exact)

    where = location or f"kernel {kernel.name!r}"
    out: list[Diagnostic] = []
    for check in checks.values():
        if check.proven:
            continue
        if check.exact is not None and not check.out_of_bounds:
            continue  # numerically proven in-bounds
        valid = f"[0, {check.extent - 1}]"
        code = "BOUNDS001" if check.kind == "read" else "BOUNDS002"
        if check.exact is not None:
            lo, hi = check.exact
            out.append(
                Diagnostic(
                    code=code,
                    severity="error",
                    message=(
                        f"{check.kind} of {check.array!r} dim {check.dim}: index "
                        f"range [{lo}, {hi}] exceeds {valid}"
                    ),
                    location=where,
                    hint="shrink the index space or clamp/wrap the index",
                )
            )
        else:
            shown = str(check.interval) if check.interval is not None else "unbounded"
            out.append(
                Diagnostic(
                    code="BOUNDS003",
                    severity="warning",
                    message=(
                        f"{check.kind} of {check.array!r} dim {check.dim}: cannot "
                        f"prove interval {shown} within {valid} "
                        f"(data-dependent index)"
                    ),
                    location=where,
                    hint="bound the index with min/max or a modulo",
                )
            )
    return out
