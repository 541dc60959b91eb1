"""Pins of the cost model's inputs on the programs both backends emit.

Every launched kernel's (unique read bytes, unique write bytes, read
strides, write strides) — :func:`unique_access_bytes` and
:func:`probe_access_profile` — is digested per program.  The calibrated
downscaler kernels are issue-bound, so a footprint that shrank or grew
would move no modelled time the other tests check; it changes a digest
here.
"""

import hashlib
import json

import pytest

from repro.apps.convolution import (
    convolution_allocation,
    convolution_model,
    convolution_program_source,
    gaussian3,
)
from repro.apps.downscaler.config import CIF, HD
from repro.apps.downscaler.sac_sources import GENERIC, NONGENERIC
from repro.apps.downscaler.serving import downscaler_job
from repro.ir import FusedKernel, LaunchKernel, probe_access_profile, unique_access_bytes
from repro.opt import OptOptions
from repro.runtime.cache import CompileCache
from repro.sac.backend import CompileOptions

#: the first 16 hex digits of each program's cost-input digest
PINS = {
    "convolution-gaspard-96x128-default": "5557995b390b7a53",
    "convolution-gaspard-96x128-opt": "5557995b390b7a53",
    "convolution-gaspard-cif-default": "5100569078ef93a0",
    "convolution-gaspard-cif-opt": "5100569078ef93a0",
    "convolution-gaspard-hd-default": "f4da0e492f44c1de",
    "convolution-gaspard-hd-opt": "f4da0e492f44c1de",
    "convolution-sac-96x128-default": "0d288fdf4de5e402",
    "convolution-sac-96x128-opt": "0d288fdf4de5e402",
    "convolution-sac-cif-default": "dced41f9711e2d6c",
    "convolution-sac-cif-opt": "dced41f9711e2d6c",
    "convolution-sac-hd-default": "87bb8c543c984f31",
    "convolution-sac-hd-opt": "87bb8c543c984f31",
    "downscaler-gaspard-cif-default": "537de10e38e4471b",
    "downscaler-gaspard-cif-opt": "78e869a68f2f6191",
    "downscaler-gaspard-hd-default": "6bcd8838681e2a80",
    "downscaler-gaspard-hd-opt": "1c5e42120dc99885",
    "downscaler-sac-cif-default": "95cde38805cdf1b1",
    "downscaler-sac-cif-opt": "95cde38805cdf1b1",
    "downscaler-sac-generic-cif-default": "d9cc40a97187143a",
    "downscaler-sac-generic-cif-opt": "d9cc40a97187143a",
    "downscaler-sac-generic-hd-default": "7ff74e05d6ff278e",
    "downscaler-sac-generic-hd-opt": "7ff74e05d6ff278e",
    "downscaler-sac-hd-default": "837632a717ed2402",
    "downscaler-sac-hd-opt": "837632a717ed2402",
}

_SIZES = {"96x128": (96, 128), "cif": (CIF.rows, CIF.cols), "hd": (HD.rows, HD.cols)}


@pytest.fixture(scope="module")
def cache():
    return CompileCache()


def _program(name: str, cache: CompileCache):
    app, *route, size, setting = name.split("-")
    opt = OptOptions() if setting == "opt" else None
    if app == "downscaler":
        variant = GENERIC if route[1:] == ["generic"] else NONGENERIC
        frame = CIF if size == "cif" else HD
        return downscaler_job(route[0], size=frame, variant=variant, opt=opt).compile(cache)
    config = gaussian3(*_SIZES[size])
    if route == ["sac"]:
        return cache.compile_sac(
            convolution_program_source(config), "blur", CompileOptions(opt=opt)
        ).program
    return cache.compile_gaspard(
        convolution_model(config), convolution_allocation(), opt=opt
    )[0].program


def cost_input_digest(program) -> str:
    """Digest of every launched kernel's unique bytes and strides, fused
    stages included."""
    entries = []
    for op in program.ops:
        if not isinstance(op, LaunchKernel):
            continue
        kernels = (
            [st.kernel for st in op.kernel.stages]
            if isinstance(op.kernel, FusedKernel)
            else [op.kernel]
        )
        for kernel in kernels:
            profile = probe_access_profile(kernel)
            entries.append([
                kernel.name,
                *unique_access_bytes(kernel),
                list(profile.read_strides),
                list(profile.write_strides),
            ])
    assert entries
    return hashlib.sha256(json.dumps(entries).encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(PINS))
def test_cost_inputs_of_emitted_programs_are_pinned(name, cache):
    assert cost_input_digest(_program(name, cache)) == PINS[name]
