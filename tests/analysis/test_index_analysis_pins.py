"""Pins of the index analysis on the programs both backends emit.

Every launched kernel's access boxes (:func:`kernel_access_boxes`, as
``Box.as_dict()``) and bounds diagnostics (:func:`check_kernel_bounds`)
are digested per program.  A box change that moves no modelled time,
such as one that only changes fusion legality, changes a digest here.
"""

import hashlib
import json

import pytest

from repro.analysis import check_kernel_bounds, kernel_access_boxes
from repro.apps.convolution import (
    convolution_allocation,
    convolution_model,
    convolution_program_source,
    gaussian3,
)
from repro.apps.downscaler.config import CIF
from repro.apps.downscaler.sac_sources import GENERIC, NONGENERIC
from repro.apps.downscaler.serving import downscaler_job
from repro.ir import FusedKernel, LaunchKernel
from repro.opt import OptOptions
from repro.runtime.cache import CompileCache
from repro.sac.backend import CompileOptions

#: the first 16 hex digits of each program's analysis digest
PINS = {
    "convolution-gaspard-default": "fe8c4df59d1e220b",
    "convolution-gaspard-opt": "fe8c4df59d1e220b",
    "convolution-sac-default": "f502fc85885b999f",
    "convolution-sac-opt": "f502fc85885b999f",
    "downscaler-gaspard-default": "1be327d4db4cd850",
    "downscaler-gaspard-opt": "7cb52f387b487ad5",
    "downscaler-sac-default": "c71f6c1dfeeba5fb",
    "downscaler-sac-generic-default": "1e566af714ba6fc6",
    "downscaler-sac-generic-opt": "1e566af714ba6fc6",
    "downscaler-sac-opt": "c71f6c1dfeeba5fb",
}


@pytest.fixture(scope="module")
def cache():
    return CompileCache()


def _program(name: str, cache: CompileCache):
    app, *route, setting = name.split("-")
    opt = OptOptions() if setting == "opt" else None
    if app == "downscaler":
        variant = GENERIC if route[1:] == ["generic"] else NONGENERIC
        return downscaler_job(route[0], size=CIF, variant=variant, opt=opt).compile(cache)
    config = gaussian3(96, 128)
    if route == ["sac"]:
        return cache.compile_sac(
            convolution_program_source(config), "blur", CompileOptions(opt=opt)
        ).program
    return cache.compile_gaspard(
        convolution_model(config), convolution_allocation(), opt=opt
    )[0].program


def analysis_digest(program) -> str:
    """Digest of every launched kernel's boxes and bounds diagnostics."""
    entries = []
    for op in program.ops:
        if not isinstance(op, LaunchKernel):
            continue
        stages = (
            [(st.kernel, st.scalar_args) for st in op.kernel.stages]
            if isinstance(op.kernel, FusedKernel)
            else [(op.kernel, op.scalar_args)]
        )
        for kernel, scalar_args in stages:
            boxes = kernel_access_boxes(kernel, scalar_args)
            diags = check_kernel_bounds(kernel, scalars=dict(scalar_args))
            entries.append([
                kernel.name,
                {
                    name: [[b.as_dict() for b in pa.reads], [b.as_dict() for b in pa.writes]]
                    for name, pa in sorted(boxes.items())
                },
                [[d.code, d.severity, d.message] for d in diags],
            ])
    assert entries
    text = json.dumps(entries, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(PINS))
def test_index_analysis_of_emitted_programs_is_pinned(name, cache):
    assert analysis_digest(_program(name, cache)) == PINS[name]
