"""When aggressive fusion backfires: separable convolution on both routes.

The paper's conclusion notes that "compiler-driven optimisations often lead
to benefits, [but] in the context of GPGPU programming they can equally add
overheads".  This example exhibits exactly that, on a workload where the
fusion decision flips against SaC:

* each pass of a separable K-tap stencil is a single full-coverage
  WITH-loop, so SaC's WITH-loop folding **fuses the two passes into one
  kernel** — eliminating the intermediate array but *recomputing* the
  horizontal pass K times per output (K*K reads instead of 2K);
* the ArrayOL model keeps one kernel per repetitive task with an
  intermediate buffer — more traffic and launches, but no recomputation.

For a 5-tap Gaussian the recomputation dominates: Gaspard2's two-kernel
schedule beats SaC's single fused kernel by ~2x under the calibrated
model.  (In the downscaler it was the other way around — the modarray
output tiler blocked cross-filter fusion and fragmentation hurt SaC for a
different reason.  Fusion is a trade-off, not a free lunch.)

Run:  python examples/convolution_both_routes.py
"""

import numpy as np

from repro.apps.convolution import (
    convolution_allocation,
    convolution_model,
    convolution_program_source,
    convolve,
    gaussian5,
)
from repro.arrayol.transform import GaspardContext, standard_chain
from repro.gpu import CostModel, GPUExecutor, GTX480_CALIBRATED
from repro.sac.backend import CompileOptions, compile_function
from repro.sac.parser import parse


def main() -> None:
    config = gaussian5(1080, 1920)
    rng = np.random.default_rng(2)
    image = rng.normal(size=config.shape)
    golden = convolve(image, config)

    # SaC route: WLF fuses hpass and vpass into a single kernel
    program = parse(convolution_program_source(config))
    sac = compile_function(program, "blur", CompileOptions(target="cuda"))
    sac_ex = GPUExecutor(CostModel(GTX480_CALIBRATED))
    sac_res = sac_ex.run(sac.program, {"img": image})
    assert np.allclose(sac_res.outputs[sac.program.host_outputs[0]], golden)
    [fused] = sac.program.kernels
    print(f"SaC:      {sac.kernel_count} kernel, "
          f"{fused.facts.reads} reads/output (recomputed h-pass), "
          f"kernel time {sac_res.kernel_us:8.1f} us")

    # ArrayOL route: one kernel per pass, intermediate buffer in between
    ctx = GaspardContext(
        model=convolution_model(config), allocation=convolution_allocation()
    )
    standard_chain().run(ctx)
    gas_ex = GPUExecutor(CostModel(GTX480_CALIBRATED))
    gas_res = gas_ex.run(ctx.program, {"image": image})
    assert np.allclose(gas_res.outputs["blurred"], golden)
    per_pass_reads = ctx.program.kernels[0].facts.reads
    print(f"Gaspard2: {ctx.program.launch_count} kernels, "
          f"{per_pass_reads} reads/output per pass (+ intermediate buffer), "
          f"kernel time {gas_res.kernel_us:8.1f} us")

    ratio = sac_res.kernel_us / gas_res.kernel_us
    print(f"-> on this workload the aggressive fusion COSTS {ratio:.2f}x:")
    print("   recomputation beats the saved intermediate — the flip side of")
    print("   the downscaler result, matching the paper's conclusion that")
    print("   compiler optimisations 'can equally add overheads'.")


if __name__ == "__main__":
    main()
