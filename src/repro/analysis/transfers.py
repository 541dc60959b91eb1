"""Transfer lint: the paper's ~50 % transfer share, found statically.

Tables I/II attribute 48.7 % (SaC route) and 42.4 % (Gaspard2 route) of
total runtime to ``host2device``/``device2host`` traffic.  This analyzer
flags the transfer work a compiler could have avoided, and prices each
finding with the calibrated PCIe model from :mod:`repro.gpu.cost` so the
report reads in the same microseconds as the paper's tables:

* **XFER001** — re-uploading a device buffer that is still resident and
  whose host source has not changed since the previous upload;
* **XFER002** — a download whose host result is never consumed (overwritten
  by a later download, or dead at program end);
* **XFER003** — a device allocation never bound to any kernel launch: its
  transfers are a pure PCIe round trip.
"""

from __future__ import annotations

from repro.analysis.diagnostics import Diagnostic
from repro.gpu.calibration import GTX480_CALIBRATED
from repro.gpu.cost import CostModel
from repro.ir.program import (
    AllocDevice,
    DeviceProgram,
    DeviceToHost,
    FreeDevice,
    HostCompute,
    HostToDevice,
    LaunchKernel,
    transfer_nbytes,
)

__all__ = ["find_transfer_waste"]


def find_transfer_waste(
    program: DeviceProgram, cost: CostModel | None = None
) -> list[Diagnostic]:
    """Redundant/dead transfer diagnostics for ``program``."""
    cost = cost or CostModel(GTX480_CALIBRATED)
    where = f"program {program.name!r}"

    allocs: dict[str, AllocDevice] = {}
    # device buffer -> (host source, host generation) while the copy is fresh
    resident: dict[str, tuple[str, int]] = {}
    host_gen: dict[str, int] = {}
    # host array -> op index of an unconsumed download into it
    pending_d2h: dict[str, int] = {}
    launched: set[str] = set()

    out: list[Diagnostic] = []

    def dead_download(host: str, at: int) -> None:
        op = program.ops[at]
        assert isinstance(op, DeviceToHost)
        nbytes = transfer_nbytes(op, allocs[op.device]) if op.device in allocs else 0
        out.append(
            Diagnostic(
                code="XFER002",
                severity="warning",
                message=(
                    f"ops[{at}] downloads {op.device!r} into host array "
                    f"{host!r} but the result is never consumed"
                ),
                location=where,
                hint="drop the DeviceToHost or consume the host array",
                wasted_us=cost.d2h_time_us(nbytes) if nbytes else None,
                fixable_by="dce",
            )
        )

    for i, op in enumerate(program.ops):
        if isinstance(op, AllocDevice):
            allocs[op.buffer] = op
            resident.pop(op.buffer, None)
        elif isinstance(op, FreeDevice):
            resident.pop(op.buffer, None)
        elif isinstance(op, HostToDevice):
            if op.host in pending_d2h:  # the upload consumes the host array
                pending_d2h.pop(op.host)
            gen = host_gen.setdefault(op.host, 0)
            if resident.get(op.device) == (op.host, gen):
                nbytes = (
                    transfer_nbytes(op, allocs[op.device])
                    if op.device in allocs else 0
                )
                out.append(
                    Diagnostic(
                        code="XFER001",
                        severity="warning",
                        message=(
                            f"ops[{i}] re-uploads host array {op.host!r} into "
                            f"{op.device!r}, which already holds an identical "
                            f"copy"
                        ),
                        location=where,
                        hint="drop the HostToDevice; the data is resident",
                        wasted_us=cost.h2d_time_us(nbytes) if nbytes else None,
                        fixable_by="transfer-elimination",
                    )
                )
            if op.region is None:
                resident[op.device] = (op.host, gen)
            else:
                # a partial upload moves only a sub-box: afterwards host
                # and device are not known to agree everywhere
                resident.pop(op.device, None)
        elif isinstance(op, DeviceToHost):
            if op.host in pending_d2h and op.region is None:
                # only a whole-array download overwrites the pending one;
                # a partial download keeps the untouched elements
                dead_download(op.host, pending_d2h[op.host])
            pending_d2h[op.host] = i
            host_gen[op.host] = host_gen.get(op.host, 0) + 1
            if op.region is None:
                # after the download, host and device hold identical data —
                # a subsequent re-upload of the pair is a pure PCIe round trip
                resident[op.device] = (op.host, host_gen[op.host])
            else:
                resident.pop(op.device, None)
        elif isinstance(op, LaunchKernel):
            for param, buf in op.array_args:
                launched.add(buf)
                if op.kernel.array(param).intent != "in":
                    resident.pop(buf, None)  # device copy diverges from host
        elif isinstance(op, HostCompute):
            for name in op.reads:
                pending_d2h.pop(name, None)
            for name in op.writes:
                host_gen[name] = host_gen.get(name, 0) + 1
                # invalidate residency of buffers sourced from this host array
                for buf, (src, _) in list(resident.items()):
                    if src == name:
                        resident.pop(buf)

    outputs = set(program.host_outputs)
    for host, at in sorted(pending_d2h.items(), key=lambda kv: kv[1]):
        if host not in outputs:
            dead_download(host, at)

    for buf, alloc in allocs.items():
        if buf in launched:
            continue
        wasted = 0.0
        for op in program.ops:
            if isinstance(op, HostToDevice) and op.device == buf:
                wasted += cost.h2d_time_us(transfer_nbytes(op, alloc))
            elif isinstance(op, DeviceToHost) and op.device == buf:
                wasted += cost.d2h_time_us(transfer_nbytes(op, alloc))
        out.append(
            Diagnostic(
                code="XFER003",
                severity="warning",
                message=(
                    f"device buffer {buf!r} is allocated but never bound to a "
                    f"kernel launch"
                ),
                location=where,
                hint="remove the allocation (and its transfers), or launch on it",
                wasted_us=wasted if wasted else None,
                fixable_by="dce",
            )
        )
    return out
