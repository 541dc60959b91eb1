"""Extension experiment: pipelining the downscaler's async transfers.

The paper observes that data transfers consume about half of each route's
GPU time (Tables I/II), with every operation serialised.  Since both
routes already use ``memcpy*async``, the natural follow-up is to stream
frames: overlap frame *t+1*'s upload with frame *t*'s kernels on Fermi's
separate copy engines.

This example schedules the compiled SaC programs across engines for a
window of frames and prints the resulting Gantt charts:

* non-generic (fully fused by WLF): the transfers vanish behind the
  kernels — ~1.9x end-to-end;
* generic: the host-side output tiler synchronises every frame and the
  pipeline never fills — losing WLF also loses streamability.

Run:  python examples/streaming_overlap.py
"""

from repro.apps.downscaler import GENERIC, HD, NONGENERIC, downscaler_program_source
from repro.apps.downscaler.video import synthetic_frame
from repro.gpu import CostModel, GPUExecutor, GTX480_CALIBRATED
from repro.report.gantt import render_gantt
from repro.runtime import build_schedule
from repro.sac.backend import CompileOptions, compile_function
from repro.sac.parser import parse

FRAMES = 12  # enough to reach steady state in the chart


def main() -> None:
    frame = synthetic_frame(HD, 0)[..., 0]
    for variant in (NONGENERIC, GENERIC):
        program = parse(downscaler_program_source(HD, variant))
        compiled = compile_function(
            program, "downscale", CompileOptions(target="cuda")
        )
        executor = GPUExecutor(CostModel(GTX480_CALIBRATED))
        executor.run(compiled.program, {"frame": frame})  # warm the probes

        # depth=None: private buffers per frame, the unbounded what-if
        schedule = build_schedule(
            compiled.program, executor, runs=FRAMES, depth=None
        )
        print(f"=== {variant} variant, {FRAMES} frames ===")
        print(render_gantt(schedule))
        print()


if __name__ == "__main__":
    main()
