"""Before/after accounting of one optimiser run.

``repro opt`` renders this; ``benchmarks/bench_opt.py`` records it into
``BENCH_opt.json``.  Static numbers (op counts, transferred bytes, peak
footprint) come straight from the program; modelled serial microseconds
come from a timing-only executor replay when one is supplied.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.fused import FusedKernel
from repro.ir.program import (
    AllocDevice,
    DeviceProgram,
    DeviceToHost,
    FreeDevice,
    HostToDevice,
    LaunchKernel,
    transfer_nbytes,
)

__all__ = ["ProgramStats", "OptReport"]


@dataclass(frozen=True)
class ProgramStats:
    """Static shape of one device program (plus optional modelled time)."""

    ops: int
    launches: int
    h2d: int
    d2h: int
    host_steps: int
    transferred_bytes: int
    #: max over program points of the live allocation bytes
    peak_device_bytes: int
    #: largest per-launch scratch a fused kernel keeps live transiently
    scratch_bytes: int
    serial_us: float | None = None

    @classmethod
    def of(cls, program: DeviceProgram, executor=None) -> "ProgramStats":
        allocs: dict[str, AllocDevice] = {}
        transferred = 0
        live = 0
        peak = 0
        scratch = 0
        for op in program.ops:
            if isinstance(op, AllocDevice):
                allocs[op.buffer] = op
                live += op.nbytes
                peak = max(peak, live)
            elif isinstance(op, FreeDevice):
                live -= allocs[op.buffer].nbytes if op.buffer in allocs else 0
            elif isinstance(op, (HostToDevice, DeviceToHost)) and op.device in allocs:
                transferred += transfer_nbytes(op, allocs[op.device])
            elif isinstance(op, LaunchKernel) and isinstance(op.kernel, FusedKernel):
                scratch = max(scratch, op.kernel.scratch_nbytes)
        serial_us = None
        if executor is not None:
            serial_us = executor.run(program, functional=False).total_us
            executor.memory.reset()
        return cls(
            ops=len(program.ops),
            launches=program.launch_count,
            h2d=program.h2d_count,
            d2h=program.d2h_count,
            host_steps=program.host_compute_count,
            transferred_bytes=transferred,
            peak_device_bytes=peak,
            scratch_bytes=scratch,
            serial_us=serial_us,
        )

    def as_dict(self) -> dict:
        out = {
            "ops": self.ops,
            "launches": self.launches,
            "h2d": self.h2d,
            "d2h": self.d2h,
            "host_steps": self.host_steps,
            "transferred_bytes": self.transferred_bytes,
            "peak_device_bytes": self.peak_device_bytes,
            "scratch_bytes": self.scratch_bytes,
        }
        if self.serial_us is not None:
            out["serial_us"] = round(self.serial_us, 3)
        return out


@dataclass(frozen=True)
class OptReport:
    """What one :func:`repro.opt.optimize_program` run did."""

    program: str
    options: object
    before: ProgramStats
    after: ProgramStats
    #: (pass name, one-line summary) per executed pass
    passes: tuple[tuple[str, str], ...] = ()
    buffers_eliminated: tuple[str, ...] = ()
    certified: bool = False
    diagnostics: tuple = field(default=(), compare=False)

    @property
    def steps_removed(self) -> int:
        return self.before.ops - self.after.ops

    @property
    def bytes_saved(self) -> int:
        return self.before.transferred_bytes - self.after.transferred_bytes

    @property
    def us_saved(self) -> float | None:
        if self.before.serial_us is None or self.after.serial_us is None:
            return None
        return self.before.serial_us - self.after.serial_us

    @property
    def peak_saved(self) -> int:
        return self.before.peak_device_bytes - self.after.peak_device_bytes

    def as_dict(self) -> dict:
        out = {
            "program": self.program,
            "options": repr(self.options),
            "before": self.before.as_dict(),
            "after": self.after.as_dict(),
            "steps_removed": self.steps_removed,
            "bytes_saved": self.bytes_saved,
            "peak_bytes_saved": self.peak_saved,
            "buffers_eliminated": list(self.buffers_eliminated),
            "passes": [{"pass": n, "summary": s} for n, s in self.passes],
            "certified": self.certified,
        }
        if self.us_saved is not None:
            out["us_saved"] = round(self.us_saved, 3)
        return out

    def render(self) -> str:
        """Human-readable before/after table."""
        b, a = self.before, self.after
        rows = [
            ("ops", b.ops, a.ops),
            ("launches", b.launches, a.launches),
            ("H2D transfers", b.h2d, a.h2d),
            ("D2H transfers", b.d2h, a.d2h),
            ("host steps", b.host_steps, a.host_steps),
            ("transferred bytes", b.transferred_bytes, a.transferred_bytes),
            ("peak device bytes", b.peak_device_bytes, a.peak_device_bytes),
        ]
        if b.serial_us is not None and a.serial_us is not None:
            rows.append(("modelled serial us", round(b.serial_us, 1),
                         round(a.serial_us, 1)))
        lines = [f"optimised {self.program}"]
        width = max(len(r[0]) for r in rows)
        for label, before, after in rows:
            lines.append(f"  {label:<{width}}  {before:>14} -> {after:>14}")
        if a.scratch_bytes:
            lines.append(f"  fused-kernel scratch (transient): {a.scratch_bytes} bytes")
        if self.buffers_eliminated:
            lines.append(
                "  buffers eliminated by fusion: "
                + ", ".join(self.buffers_eliminated)
            )
        for name, summary in self.passes:
            lines.append(f"  pass {name}: {summary}")
        lines.append(f"  certified hazard-free: {'yes' if self.certified else 'no'}")
        return "\n".join(lines)
