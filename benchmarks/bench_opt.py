"""Optimiser before/after at the paper's scale (``BENCH_opt.json``).

Three program configurations per route frame the ``repro.opt`` story:

* ``naive`` — per-kernel transfer placement, unoptimised.  Each WITH-loop
  (SaC) / repetitive task (Gaspard2) brackets its launch with PCIe
  traffic: the regime behind the paper's ~50 % transfer share
  (Tables I/II).
* ``pr2`` — boundary placement, unoptimised.  The PR-2 baseline; already
  byte-minimal (zero transfer lints), so it anchors the makespan gate.
* ``optimized`` — the naive placement fed through the full ``repro.opt``
  pipeline.  Transfer elimination recovers boundary placement, fusion
  then deletes single-use intermediates (and their allocations), pooling
  caps the device footprint.

Acceptance, gated by the slow HD lane:

* every configuration is bit-exact against the NumPy reference;
* fusion eliminates at least one intermediate device buffer;
* ``optimized`` moves strictly fewer bytes than ``naive``;
* ``optimized``'s overlapped makespan beats the PR-2 baseline;
* the optimised program triggers zero TRANSFER diagnostics.

Every test merges its rows into ``benchmarks/BENCH_opt.json`` so the
optimiser's trajectory is tracked across PRs.  CI's fast lane runs the
CIF smoke only.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from benchmarks.conftest import FRAMES, run_once
from repro.analysis import find_transfer_waste
from repro.apps.downscaler import CIF, HD, reference
from repro.apps.downscaler.arrayol_model import (
    downscaler_allocation,
    downscaler_model,
)
from repro.apps.downscaler.sac_sources import NONGENERIC, downscaler_program_source
from repro.apps.downscaler.video import channels_of, synthetic_frame
from repro.arrayol.transform import GaspardContext, standard_chain
from repro.gpu import CostModel, GPUExecutor, GTX480_CALIBRATED
from repro.opt import OptOptions, ProgramStats
from repro.runtime import build_schedule
from repro.sac.backend import CompileOptions, compile_function
from repro.sac.parser import parse

RESULTS = Path(__file__).with_name("BENCH_opt.json")

#: the three placements/pipelines every route is measured under
CONFIGS = (
    ("naive", "per_kernel", None),
    ("pr2", "boundary", None),
    ("optimized", "per_kernel", OptOptions()),
)


def _compile(route: str, size, transfers: str, opt):
    """One route under one configuration -> ``(program, OptReport|None)``."""
    if route == "sac":
        cf = compile_function(
            parse(downscaler_program_source(size, NONGENERIC)),
            "downscale",
            CompileOptions(target="cuda", transfers=transfers, opt=opt),
        )
        return cf.program, cf.opt_report
    ctx = GaspardContext(
        model=downscaler_model(size), allocation=downscaler_allocation()
    )
    standard_chain(transfers=transfers, opt=opt).run(ctx)
    return ctx.program, ctx.opt_report


def _bit_exact(route: str, program, size, ex: GPUExecutor) -> bool:
    """Run one frame and compare every output to the NumPy reference."""
    chans = channels_of(synthetic_frame(size, 0))
    if route == "sac":
        res = ex.run(program, {"frame": chans["r"]})
        want = reference.downscale_frame(chans["r"], size)
        return np.array_equal(res.outputs[program.host_outputs[0]], want)
    res = ex.run(program, {f"in_{c}": v for c, v in chans.items()})
    return all(
        np.array_equal(
            res.outputs[f"out_{c}"], reference.downscale_frame(chans[c], size)
        )
        for c in "rgb"
    )


def _measure(route: str, size, frames: int) -> dict:
    """All three configurations of one route, as BENCH rows."""
    rows = {}
    for config, transfers, opt in CONFIGS:
        program, report = _compile(route, size, transfers, opt)
        ex = GPUExecutor(CostModel(GTX480_CALIBRATED))
        exact = _bit_exact(route, program, size, ex)
        schedule = build_schedule(program, ex, runs=frames, depth=None)
        stats = ProgramStats.of(program)
        row = {
            "transfers": transfers,
            "ops": stats.ops,
            "launches": stats.launches,
            "transferred_bytes": stats.transferred_bytes,
            "peak_device_bytes": stats.peak_device_bytes,
            "serial_us": round(schedule.serial_us, 3),
            "overlapped_us": round(schedule.makespan_us, 3),
            "bit_exact": exact,
            "transfer_lints": len(find_transfer_waste(program)),
        }
        if report is not None:
            row["buffers_eliminated"] = list(report.buffers_eliminated)
            row["steps_removed"] = report.steps_removed
            row["bytes_saved"] = report.bytes_saved
            row["certified"] = report.certified
        rows[config] = row
    return rows


def _record(key: str, rows: dict) -> None:
    """Merge one route's rows into BENCH_opt.json."""
    doc = json.loads(RESULTS.read_text()) if RESULTS.exists() else {}
    doc[key] = rows
    RESULTS.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _check_acceptance(rows: dict) -> None:
    naive, pr2, optimized = rows["naive"], rows["pr2"], rows["optimized"]
    assert all(r["bit_exact"] for r in rows.values())
    assert optimized["certified"]
    assert len(optimized["buffers_eliminated"]) >= 1
    assert optimized["transferred_bytes"] < naive["transferred_bytes"]
    assert optimized["overlapped_us"] < pr2["overlapped_us"]
    assert optimized["transfer_lints"] == 0


@pytest.mark.slow
def test_opt_sac_hd(benchmark):
    rows = run_once(benchmark, lambda: _measure("sac", HD, FRAMES))
    _record("sac-hd", rows)
    print(
        f"\nsac hd: bytes {rows['naive']['transferred_bytes']} (naive) -> "
        f"{rows['optimized']['transferred_bytes']} (opt), overlapped "
        f"{rows['pr2']['overlapped_us']} -> {rows['optimized']['overlapped_us']} us"
    )
    _check_acceptance(rows)


@pytest.mark.slow
def test_opt_gaspard_hd(benchmark):
    rows = run_once(benchmark, lambda: _measure("gaspard", HD, FRAMES))
    _record("gaspard-hd", rows)
    print(
        f"\ngaspard hd: bytes {rows['naive']['transferred_bytes']} (naive) -> "
        f"{rows['optimized']['transferred_bytes']} (opt), overlapped "
        f"{rows['pr2']['overlapped_us']} -> {rows['optimized']['overlapped_us']} us"
    )
    _check_acceptance(rows)


def test_opt_sac_cif_smoke(benchmark):
    rows = run_once(benchmark, lambda: _measure("sac", CIF, 12))
    _record("sac-cif-smoke", rows)
    _check_acceptance(rows)


def test_opt_gaspard_cif_smoke(benchmark):
    rows = run_once(benchmark, lambda: _measure("gaspard", CIF, 12))
    _record("gaspard-cif-smoke", rows)
    _check_acceptance(rows)
