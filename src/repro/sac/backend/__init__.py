"""SaC CUDA/sequential backend: eligibility, lowering, wrap splitting,
transfer insertion, kernel outlining, CUDA source emission."""

from repro.sac.backend.driver import (
    CompiledFunction,
    CompileOptions,
    compile_function,
    compile_stages,
)
from repro.sac.backend.eligibility import is_cuda_eligible, rejection_reason
from repro.sac.backend.lower import LoweredGenerator, LoweredLoop, lower_withloop
from repro.sac.backend.lowerexpr import LoweringError
from repro.sac.backend.split import split_loop, split_wrap_regions

__all__ = [
    "CompileOptions", "CompiledFunction", "compile_function", "compile_stages",
    "is_cuda_eligible", "rejection_reason",
    "lower_withloop", "LoweredLoop", "LoweredGenerator", "LoweringError",
    "split_loop", "split_wrap_regions",
]
