"""High-level SaC optimisations: inlining, partial evaluation, WITH-loop
folding, dead-code elimination — orchestrated by :mod:`pipeline`."""

from repro.sac.opt.constant_fold import fold_function
from repro.sac.opt.dce import dce_function
from repro.sac.opt.inline import inline_function, is_inlinable
from repro.sac.opt.normalize import normalize_function
from repro.sac.opt.pipeline import OptimisationFlags, optimize_function, optimize_program
from repro.sac.opt.wlf import count_withloops, wlf_function
from repro.sac.opt.withinfo import (
    StaticRange,
    const_int_vector,
    generators_cover_frame,
    is_full_coverage_single_generator,
    static_frame_shape,
    static_generator_range,
)

__all__ = [
    "OptimisationFlags", "optimize_program", "optimize_function",
    "inline_function", "is_inlinable",
    "normalize_function",
    "fold_function",
    "wlf_function", "count_withloops",
    "dce_function",
    "StaticRange", "const_int_vector", "static_frame_shape",
    "static_generator_range", "is_full_coverage_single_generator",
    "generators_cover_frame",
]
