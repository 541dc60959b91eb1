"""Experiment runner: regenerates the paper's evaluation artefacts.

Drives both compilation routes over the synthetic video and adds up the
executor's per-op prices into the exact shapes the paper reports:

* :meth:`DownscalerLab.table1` — Gaspard2/OpenCL operation breakdown;
* :meth:`DownscalerLab.table2` — SaC/CUDA (non-generic) breakdown;
* :meth:`DownscalerLab.figure9` — per-filter execution times of the four
  SaC configurations;
* :meth:`DownscalerLab.figure12` — per-operation comparison of the routes;
* :meth:`DownscalerLab.headline_claims` — the Section VIII/IX ratios.

Timing convention (matching the paper): the tables process ``frames``
frames x 3 RGB channels (900 transfer calls at 300 frames), adding one
run's :meth:`~repro.gpu.executor.GPUExecutor.price` run by run in op
order, as cudaprof's per-call log would; Figure 9 runs
each filter for ``frames`` iterations on one channel, counting the filter's
*own* work — kernels, host steps and intermediate transfers — but not the
shared frame upload/result download that the tables account separately.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.downscaler import reference
from repro.apps.downscaler.arrayol_model import downscaler_allocation, downscaler_model
from repro.apps.downscaler.config import HD, FrameSize, horizontal_filter, vertical_filter
from repro.apps.downscaler.sac_sources import GENERIC, NONGENERIC, downscaler_program_source
from repro.apps.downscaler.serving import GaspardDownscalerJob, SacDownscalerJob
from repro.apps.downscaler.video import channels_of, synthetic_frame
from repro.cpu import CPUExecutor
from repro.errors import ReproError
from repro.gpu import CostModel, CostParams, GPUExecutor, GTX480_CALIBRATED, RunResult
from repro.ir.program import DeviceProgram, DeviceToHost, HostToDevice, LaunchKernel
from repro.runtime.cache import CompileCache
from repro.runtime.pipeline import PipelineJob
from repro.sac.backend import CompileOptions

__all__ = [
    "ProfileRow",
    "OperationTable",
    "Figure9Row",
    "Figure12Series",
    "DownscalerLab",
]


@dataclass(frozen=True)
class ProfileRow:
    """One cudaprof-style table row."""

    operation: str
    calls: int
    gpu_time_us: float
    gpu_time_pct: float


@dataclass(frozen=True)
class OperationTable:
    """A Table I/II-shaped result."""

    title: str
    rows: tuple[ProfileRow, ...]
    total_us: float

    def row(self, label_prefix: str) -> ProfileRow:
        for r in self.rows:
            if r.operation.startswith(label_prefix):
                return r
        raise KeyError(label_prefix)


@dataclass(frozen=True)
class Figure9Row:
    """One bar group of Figure 9: a filter under one configuration."""

    configuration: str  # e.g. "SAC-Seq Generic"
    hfilter_s: float
    vfilter_s: float


@dataclass(frozen=True)
class Figure12Series:
    """Figure 12: per-operation seconds for both routes."""

    operations: tuple[str, ...]
    sac_s: tuple[float, ...]
    gaspard_s: tuple[float, ...]


class DownscalerLab:
    """Compiles, validates and times every downscaler configuration."""

    def __init__(
        self,
        size: FrameSize = HD,
        frames: int = 300,
        params: CostParams = GTX480_CALIBRATED,
        validate: bool = True,
    ):
        self.size = size
        self.frames = frames
        self.params = params
        self.validate = validate
        #: memoises both routes' compilations (with hit/miss statistics)
        self.cache = CompileCache()

    # -- compilation -------------------------------------------------------------

    def sac_compiled(self, variant: str, target: str, entry: str = "downscale"):
        source = downscaler_program_source(self.size, variant)
        return self.cache.compile_sac(source, entry, CompileOptions(target=target))

    def gaspard_compiled(self):
        return self.cache.compile_gaspard(
            downscaler_model(self.size), downscaler_allocation()
        )

    # -- execution helpers -----------------------------------------------------------

    def _gpu_executor(self) -> GPUExecutor:
        return GPUExecutor(CostModel(self.params))

    def first_frame(self, job: PipelineJob) -> tuple[DeviceProgram, RunResult]:
        """Compile ``job`` through the lab's cache and run its frame 0
        (first instance) functionally, checked against ``job.golden``."""
        program = job.compile(self.cache)
        result = self._gpu_executor().run(program, job.env(0, 0))
        if self.validate:
            for name, want in job.golden(0, 0, program).items():
                if not np.array_equal(result.outputs[name], want):
                    raise ReproError(
                        f"{program.name}: functional mismatch on output {name!r}"
                    )
        return program, result

    # -- kernel/filter attribution ------------------------------------------------------

    def _filter_grouping(self, program: DeviceProgram) -> tuple[dict[str, str], dict[str, int]]:
        """Map kernel names to 'H. Filter (n kernels)' / 'V. Filter' labels."""
        h_shape = horizontal_filter(self.size).out_shape
        v_shape = vertical_filter(self.size).out_shape
        h_kernels, v_kernels = [], []
        for k in program.kernels:
            out_shapes = {a.shape for a in k.output_arrays}
            if h_shape in out_shapes:
                h_kernels.append(k.name)
            elif v_shape in out_shapes:
                v_kernels.append(k.name)
        h_unique = sorted(set(h_kernels))
        v_unique = sorted(set(v_kernels))
        grouping: dict[str, str] = {}
        counts = {"H": len(h_unique), "V": len(v_unique)}
        for name in h_unique:
            grouping[name] = f"H. Filter ({counts['H']} kernels)"
        for name in v_unique:
            grouping[name] = f"V. Filter ({counts['V']} kernels)"
        return grouping, counts

    def operation_table(self, title: str, job: PipelineJob) -> OperationTable:
        """The device operations of ``frames`` frames of ``job``, grouped
        into Table I/II rows (host steps excluded, as in cudaprof)."""
        program, _ = self.first_frame(job)
        grouping, _ = self._filter_grouping(program)
        priced: list[tuple[str, float]] = []
        for op, us in zip(program.ops, self._gpu_executor().price(program)):
            if isinstance(op, HostToDevice):
                priced.append(("memcpyHtoDasync" if op.is_async else "memcpyHtoD", us))
            elif isinstance(op, DeviceToHost):
                priced.append(("memcpyDtoHasync" if op.is_async else "memcpyDtoH", us))
            elif isinstance(op, LaunchKernel):
                priced.append((grouping.get(op.kernel.name, op.kernel.name), us))
        calls: dict[str, int] = {}
        times: dict[str, float] = {}
        for _run in range(self.frames * job.instances_per_frame):
            for label, us in priced:
                calls[label] = calls.get(label, 0) + 1
                times[label] = times.get(label, 0.0) + us

        # paper layout: filters first, then HtoD, then DtoH
        def order(label: str) -> int:
            if label.startswith("H. Filter"):
                return 0
            if label.startswith("V. Filter"):
                return 1
            if "HtoD" in label:
                return 2
            return 3

        labels = sorted(times, key=order)
        total = sum(times[label] for label in labels)
        rows = tuple(
            ProfileRow(
                label,
                # the paper reports per-kernel calls: one per frame
                self.frames if label.endswith("kernels)") else calls[label],
                times[label],
                100.0 * times[label] / total if total else 0.0,
            )
            for label in labels
        )
        return OperationTable(title=title, rows=rows, total_us=total)

    # -- the paper's artefacts -------------------------------------------------------------

    def table1(self) -> OperationTable:
        """Table I: Gaspard2 kernel execution and data transfer times."""
        return self.operation_table(
            "Kernel execution and data transfer times of GASPARD2 implementation",
            GaspardDownscalerJob(self.size),
        )

    def table2(self) -> OperationTable:
        """Table II: SaC (non-generic) kernel execution and transfer times."""
        return self.operation_table(
            "Kernel execution and data transfer times of SAC implementation",
            SacDownscalerJob(self.size, NONGENERIC),
        )

    # -- Figure 9 ---------------------------------------------------------------------------

    @staticmethod
    def _filter_work_us(program: DeviceProgram, executor) -> float:
        """One run's filter-own work: kernels + host steps + intermediate
        transfers (boundary frame upload / result download excluded),
        priced by the GPU or the sequential executor."""
        total = 0.0
        for op, us in zip(program.ops, executor.price(program)):
            if isinstance(op, HostToDevice) and op.host in program.host_inputs:
                continue
            if isinstance(op, DeviceToHost) and op.host in program.host_outputs:
                continue
            total += us
        return total

    def figure9(self) -> list[Figure9Row]:
        """Per-filter execution times (seconds, ``frames`` iterations)."""
        channel = channels_of(synthetic_frame(self.size, 0))["r"]
        hout = reference.apply_filter(channel, horizontal_filter(self.size))
        # each filter's (input, expected output) on frame 0's red channel
        io = {
            "hfilter": (channel, hout),
            "vfilter": (hout, reference.apply_filter(hout, vertical_filter(self.size))),
        }
        out = []
        for variant in (GENERIC, NONGENERIC):
            for target, label in (("seq", "SAC-Seq"), ("cuda", "SAC-CUDA")):
                times = {}
                for entry, (inp, want) in io.items():
                    program = self.sac_compiled(variant, target, entry).program
                    ex = (
                        self._gpu_executor() if target == "cuda"
                        else CPUExecutor(CostModel(self.params))
                    )
                    # functional validation once
                    if self.validate:
                        got = ex.run(program, {"frame": inp}).outputs
                        if not np.array_equal(got[program.host_outputs[0]], want):
                            raise ReproError(
                                f"{program.name}: functional mismatch on channel 'r'"
                            )
                    per_run = self._filter_work_us(program, ex)
                    times[entry] = per_run * self.frames / 1e6
                suffix = "Generic" if variant == GENERIC else "Non-Generic"
                out.append(
                    Figure9Row(
                        configuration=f"{label} {suffix}",
                        hfilter_s=times["hfilter"],
                        vfilter_s=times["vfilter"],
                    )
                )
        return out

    # -- Figure 12 ----------------------------------------------------------------------------

    def figure12(self) -> Figure12Series:
        """Per-operation comparison of the two routes (seconds)."""
        t2 = self.table2()
        t1 = self.table1()

        def seconds(table: OperationTable, prefix: str) -> float:
            try:
                return table.row(prefix).gpu_time_us / 1e6
            except KeyError:
                return 0.0

        ops = ("Horizontal Filter", "Vertical Filter", "Host2Device", "Device2Host")
        sac = (
            seconds(t2, "H. Filter"),
            seconds(t2, "V. Filter"),
            seconds(t2, "memcpyHtoD"),
            seconds(t2, "memcpyDtoH"),
        )
        gaspard = (
            seconds(t1, "H. Filter"),
            seconds(t1, "V. Filter"),
            seconds(t1, "memcpyHtoD"),
            seconds(t1, "memcpyDtoH"),
        )
        return Figure12Series(operations=ops, sac_s=sac, gaspard_s=gaspard)

    # -- headline claims -------------------------------------------------------------------------

    def headline_claims(self) -> dict[str, float]:
        """The Section VIII/IX ratios the paper states."""
        fig9 = {r.configuration: r for r in self.figure9()}
        gen_cuda = fig9["SAC-CUDA Generic"]
        non_cuda = fig9["SAC-CUDA Non-Generic"]
        gen_seq = fig9["SAC-Seq Generic"]
        non_seq = fig9["SAC-Seq Non-Generic"]
        t1 = self.table1()
        t2 = self.table2()
        transfers1 = sum(
            r.gpu_time_us for r in t1.rows if r.operation.startswith("memcpy")
        )
        transfers2 = sum(
            r.gpu_time_us for r in t2.rows if r.operation.startswith("memcpy")
        )
        return {
            "generic_over_nongeneric_h": gen_cuda.hfilter_s / non_cuda.hfilter_s,
            "generic_over_nongeneric_v": gen_cuda.vfilter_s / non_cuda.vfilter_s,
            "speedup_gpu_vs_seq_h": non_seq.hfilter_s / non_cuda.hfilter_s,
            "speedup_gpu_vs_seq_v": non_seq.vfilter_s / non_cuda.vfilter_s,
            "seq_generic_over_nongeneric_h": gen_seq.hfilter_s / non_seq.hfilter_s,
            "transfer_share_gaspard": transfers1 / t1.total_us,
            "transfer_share_sac": transfers2 / t2.total_us,
            "gaspard_over_sac_total": t1.total_us / t2.total_us,
        }
