"""Unrolled pipeline programs and their hazard certification.

The pipeline executes ``runs`` back-to-back program instances with device
buffers backed by ``depth`` recycled slots.  :func:`unroll_pipeline`
materialises that execution as an ordinary straight-line
:class:`~repro.ir.program.DeviceProgram` — device buffers renamed per
slot, host arrays renamed per run — so the static analyses of
:mod:`repro.analysis` can inspect exactly what the runtime overlaps.

:func:`check_pipeline_hazards` then runs the happens-before race detector
over the unrolled program and *certifies* the schedule against it:

* with ``depth >= runs`` every run has private slots and the detector
  finds nothing — the unbounded-buffering regime of
  ``build_schedule(depth=None)``;
* with bounded depth the detector reports RACE001/RACE002 on recycled
  slots: an older run's kernel/download against a newer run's upload two
  ``depth`` strides later.  These are **WAR/WAW-on-recycling** hazards the
  static model cannot discharge (its happens-before relation has no
  reader-to-writer edges), but the scheduler orders them explicitly — the
  check verifies, pair by pair, that the schedule separates the two
  operations in time, and only then files the finding as *resolved*.
  Anything else (same-run races, host-array races, or a recycled pair the
  schedule fails to order) is returned as unexpected and fails CI.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.analysis.diagnostics import Diagnostic
from repro.errors import DeviceError
from repro.ir.program import (
    AllocDevice,
    DeviceProgram,
    DeviceToHost,
    FreeDevice,
    HostCompute,
    HostToDevice,
    LaunchKernel,
    Op,
)
from repro.runtime.schedule import build_schedule, schedule_violations

__all__ = [
    "UnrolledPipeline",
    "unroll_pipeline",
    "ResolvedHazard",
    "PipelineHazardReport",
    "check_pipeline_hazards",
]


@dataclass(frozen=True)
class UnrolledPipeline:
    """A multi-run pipeline flattened into one device program."""

    program: DeviceProgram
    runs: int
    depth: int
    #: per op of ``program.ops``: (run, index into the base program's ops);
    #: slot allocations/frees carry run -1
    origins: tuple[tuple[int, int], ...]


def _wrap_host_fn(fn, mapping: dict[str, str]):
    """Adapt a HostCompute fn to per-run renamed host arrays."""

    def wrapped(env, _fn=fn, _map=mapping):
        local = {orig: env[ren] for orig, ren in _map.items() if ren in env}
        _fn(local)
        for orig, ren in _map.items():
            if orig in local:
                env[ren] = local[orig]

    return wrapped


def unroll_pipeline(
    program: DeviceProgram, runs: int, depth: int | None = 2
) -> UnrolledPipeline:
    """Unroll ``runs`` executions of ``program`` with ``depth`` buffer slots.

    Device buffer ``b`` used by run ``r`` becomes ``b@s{r % depth}``
    (allocated once per slot, freed at the end); host array ``h`` becomes
    ``h@r{r}`` (each run has its own frame environment).  Kernel objects
    are shared, so per-kernel cost probes stay cached.
    """
    if runs <= 0:
        raise ValueError("runs must be positive")
    depth = runs if depth is None else depth
    if depth <= 0:
        raise ValueError("depth must be positive")

    ops: list[Op] = []
    origins: list[tuple[int, int]] = []
    allocated: list[str] = []

    def slot(buffer: str, run: int) -> str:
        return f"{buffer}@s{run % depth}"

    def harr(name: str, run: int) -> str:
        return f"{name}@r{run}"

    for run in range(runs):
        for i, op in enumerate(program.ops):
            if isinstance(op, AllocDevice):
                name = slot(op.buffer, run)
                if name not in allocated:
                    ops.append(AllocDevice(name, op.shape, op.dtype))
                    origins.append((run, i))
                    allocated.append(name)
            elif isinstance(op, FreeDevice):
                pass  # slots are recycled; freed once at the end
            elif isinstance(op, HostToDevice):
                ops.append(
                    HostToDevice(
                        harr(op.host, run), slot(op.device, run), op.is_async,
                        region=op.region,
                    )
                )
                origins.append((run, i))
            elif isinstance(op, DeviceToHost):
                ops.append(
                    DeviceToHost(
                        slot(op.device, run), harr(op.host, run), op.is_async,
                        region=op.region,
                    )
                )
                origins.append((run, i))
            elif isinstance(op, LaunchKernel):
                ops.append(
                    LaunchKernel(
                        op.kernel,
                        tuple((p, slot(b, run)) for p, b in op.array_args),
                        op.scalar_args,
                    )
                )
                origins.append((run, i))
            elif isinstance(op, HostCompute):
                touched = sorted(set(op.reads) | set(op.writes))
                mapping = {n: harr(n, run) for n in touched}
                ops.append(
                    HostCompute(
                        name=f"{op.name}@r{run}",
                        fn=_wrap_host_fn(op.fn, mapping),
                        reads=tuple(harr(n, run) for n in op.reads),
                        writes=tuple(harr(n, run) for n in op.writes),
                        work=op.work,
                    )
                )
                origins.append((run, i))
            else:
                raise DeviceError(f"cannot unroll op {op!r}")

    for name in allocated:
        ops.append(FreeDevice(name))
        origins.append((-1, -1))

    unrolled = DeviceProgram(
        name=f"{program.name}_x{runs}d{depth}",
        ops=tuple(ops),
        host_inputs=tuple(
            harr(n, r) for r in range(runs) for n in program.host_inputs
        ),
        host_outputs=tuple(
            harr(n, r) for r in range(runs) for n in program.host_outputs
        ),
    )
    return UnrolledPipeline(
        program=unrolled, runs=runs, depth=depth, origins=tuple(origins)
    )


@dataclass(frozen=True)
class ResolvedHazard:
    """A recycled-slot hazard the schedule provably orders."""

    diagnostic: Diagnostic
    #: (run, base op index) of the two conflicting operations
    first: tuple[int, int]
    second: tuple[int, int]
    #: gap the schedule leaves between them, us (>= 0 when ordered)
    separation_us: float


@dataclass(frozen=True)
class PipelineHazardReport:
    """Outcome of certifying a pipeline against the race detector."""

    program: str
    runs: int
    depth: int
    #: findings that are NOT explained by slot recycling or that the
    #: schedule fails to order — these gate CI
    unexpected: tuple[Diagnostic, ...]
    #: recycled-slot WAR/WAW findings, each verified ordered in time
    resolved: tuple[ResolvedHazard, ...] = field(default=())
    #: violations reported by the scheduler's own dependence checker
    schedule_violations: tuple[str, ...] = ()

    @property
    def clean(self) -> bool:
        return not self.unexpected and not self.schedule_violations


_OPS_RE = re.compile(r"ops\[(\d+)\]")


def check_pipeline_hazards(
    program: DeviceProgram,
    executor,
    runs: int,
    depth: int | None = 2,
    serialize: bool = False,
) -> PipelineHazardReport:
    """Race-check the unrolled pipeline and certify the schedule over it."""
    from repro.analysis.hazards import find_hazards

    unrolled = unroll_pipeline(program, runs, depth)
    findings = find_hazards(unrolled.program)
    schedule = build_schedule(
        program, executor, runs=runs, depth=depth, serialize=serialize
    )
    by_origin = {(n.run, n.op_index): n for n in schedule.nodes}

    unexpected: list[Diagnostic] = []
    resolved: list[ResolvedHazard] = []
    for d in findings:
        indices = [int(m) for m in _OPS_RE.findall(d.message)]
        ok = False
        if len(indices) == 2 and "device buffer" in d.message:
            (r1, i1), (r2, i2) = (unrolled.origins[i] for i in indices)
            n1 = by_origin.get((r1, i1))
            n2 = by_origin.get((r2, i2))
            if r1 != r2 and n1 is not None and n2 is not None:
                # recycled-slot hazard: certified iff the schedule leaves
                # the two operations disjoint in time
                a, b = sorted((n1, n2), key=lambda n: n.start_us)
                separation = b.start_us - a.end_us
                if separation >= -1e-9:
                    resolved.append(
                        ResolvedHazard(
                            diagnostic=d,
                            first=(r1, i1),
                            second=(r2, i2),
                            separation_us=max(0.0, separation),
                        )
                    )
                    ok = True
        if not ok:
            unexpected.append(d)

    return PipelineHazardReport(
        program=program.name,
        runs=runs,
        depth=schedule.depth,
        unexpected=tuple(unexpected),
        resolved=tuple(resolved),
        schedule_violations=tuple(schedule_violations(schedule)),
    )
