"""Extension experiment: stream pipelining of the async transfers.

The paper's Tables I/II serialise transfers against kernels even though
both routes issue ``memcpy*async`` — and note that transfers eat roughly
half the time.  This bench schedules the compiled programs onto Fermi's
two copy engines plus the compute engine across back-to-back frames:

* the **non-generic** SaC program pipelines: steady-state time approaches
  the busiest engine (the kernels) and the transfers are hidden almost
  entirely (~1.9x at HD under the calibrated model);
* the **generic** program cannot pipeline at all — its host output tiler
  synchronises every frame.  Losing WLF costs the streaming headroom too.
"""

import pytest

from benchmarks.conftest import run_once
from repro.apps.downscaler import HD, GENERIC, NONGENERIC, downscaler_program_source
from repro.apps.downscaler.video import synthetic_frame
from repro.gpu import CostModel, GPUExecutor, GTX480_CALIBRATED
from repro.runtime import build_schedule
from repro.sac.backend import CompileOptions, compile_function
from repro.sac.parser import parse

FRAMES = 300


def pipelined(cf, ex):
    """``FRAMES`` back-to-back runs with private buffers per frame."""
    return build_schedule(cf.program, ex, runs=FRAMES, depth=None)


@pytest.fixture(scope="module")
def warm():
    """Compiled programs + executors with warmed kernel probes."""
    frame = synthetic_frame(HD, 0)[..., 0]
    out = {}
    for variant in (NONGENERIC, GENERIC):
        prog = parse(downscaler_program_source(HD, variant))
        cf = compile_function(prog, "downscale", CompileOptions(target="cuda"))
        ex = GPUExecutor(CostModel(GTX480_CALIBRATED))
        ex.run(cf.program, {"frame": frame})
        out[variant] = (cf, ex)
    return out


def test_overlap_nongeneric(warm, benchmark):
    cf, ex = warm[NONGENERIC]
    r = run_once(benchmark, lambda: pipelined(cf, ex))
    print(f"\nnon-generic: serial={r.serial_us/1e6:.2f}s "
          f"pipelined={r.makespan_us/1e6:.2f}s speedup={r.speedup:.2f}x")
    assert r.speedup > 1.5  # the transfers hide behind the kernels
    # steady state bounded by the busiest engine (compute)
    busiest = max(r.engine_busy_us(e) for e in ("h2d", "compute", "d2h"))
    assert r.makespan_us == pytest.approx(busiest, rel=0.1)


def test_overlap_generic_blocked(warm, benchmark):
    cf, ex = warm[GENERIC]
    r = run_once(benchmark, lambda: pipelined(cf, ex))
    print(f"\ngeneric: serial={r.serial_us/1e6:.2f}s "
          f"pipelined={r.makespan_us/1e6:.2f}s speedup={r.speedup:.2f}x")
    # the host output tiler synchronises every frame: no pipelining win
    assert r.speedup == pytest.approx(1.0, abs=0.05)


def test_overlap_widens_the_variant_gap(warm):
    """With streaming, the non-generic advantage grows beyond Figure 9's
    serial ratios — fusion buys pipelinability, not just fewer ops."""
    cf_non, ex_non = warm[NONGENERIC]
    cf_gen, ex_gen = warm[GENERIC]
    r_non = pipelined(cf_non, ex_non)
    r_gen = pipelined(cf_gen, ex_gen)
    serial_ratio = r_gen.serial_us / r_non.serial_us
    pipelined_ratio = r_gen.makespan_us / r_non.makespan_us
    print(f"\ngeneric/non-generic: serial={serial_ratio:.2f}x "
          f"pipelined={pipelined_ratio:.2f}x")
    assert pipelined_ratio > serial_ratio
