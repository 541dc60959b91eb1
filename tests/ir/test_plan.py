"""Tests for per-kernel NumPy plans (:mod:`repro.ir.plan`).

The differential properties (plan, interpreter and scalar reference agree
bit-exactly, errors included) live in ``test_evalvec_properties.py``.
These pin what makes the plan pay: every kernel the backends emit gets
one, lowered to slices and ``np.take`` with no fancy index, each is built
once per kernel object, and keeping it on the kernel changes nothing a
kernel is compared, hashed, printed or keyed by.
"""

import dataclasses

import numpy as np
import pytest

import repro.ir.plan as plan_module
from repro.apps.convolution import (
    convolution_allocation,
    convolution_model,
    convolution_program_source,
    gaussian3,
)
from repro.apps.downscaler.config import CIF, HD
from repro.apps.downscaler.sac_sources import GENERIC, NONGENERIC
from repro.apps.downscaler.serving import downscaler_job
from repro.ir import (
    ArrayParam,
    BinOp,
    Const,
    FusedKernel,
    IndexSpace,
    Kernel,
    LaunchKernel,
    Read,
    Store,
    ThreadIdx,
    evaluate_kernel,
)
from repro.ir.evalvec import _Evaluator
from repro.ir.plan import plan_of
from repro.opt import OptOptions
from repro.runtime import FramePipeline
from repro.runtime.cache import CompileCache, canonical
from repro.sac.backend import CompileOptions


@pytest.fixture(scope="module")
def cache():
    return CompileCache()


def _launched_kernels(program):
    """Every kernel a program launches, fused stages included."""
    for op in program.ops:
        if isinstance(op, LaunchKernel):
            if isinstance(op.kernel, FusedKernel):
                yield from (st.kernel for st in op.kernel.stages)
            else:
                yield op.kernel


def _assert_sliced_plans(program):
    kernels = list(_launched_kernels(program))
    assert kernels
    for kernel in kernels:
        plan = plan_of(kernel)
        assert plan is not None, f"{kernel.name} falls back to the interpreter"
        assert all(how in ("slice", "take") for _, how in plan.accesses), (
            kernel.name, plan.accesses
        )


@pytest.mark.parametrize("opt", [None, OptOptions()], ids=["default", "opt"])
@pytest.mark.parametrize("size", [CIF, HD], ids=["cif", "hd"])
@pytest.mark.parametrize(
    "route,variant",
    [("sac", NONGENERIC), ("sac", GENERIC), ("gaspard", NONGENERIC)],
    ids=["sac", "sac-generic", "gaspard"],
)
def test_every_downscaler_kernel_gets_a_sliced_plan(route, variant, size, opt, cache):
    job = downscaler_job(route, size=size, variant=variant, opt=opt)
    _assert_sliced_plans(job.compile(cache))


@pytest.mark.parametrize("opt", [None, OptOptions()], ids=["default", "opt"])
@pytest.mark.parametrize("route", ["sac", "gaspard"])
def test_every_convolution_kernel_gets_a_sliced_plan(route, opt, cache):
    config = gaussian3(96, 128)
    if route == "sac":
        program = cache.compile_sac(
            convolution_program_source(config), "blur", CompileOptions(opt=opt)
        ).program
    else:
        program = cache.compile_gaspard(
            convolution_model(config), convolution_allocation(), opt=opt
        )[0].program
    _assert_sliced_plans(program)


def test_data_dependent_index_runs_in_the_interpreter():
    """An index read from memory (a gather through a lookup table) gets
    no plan, and the launch still computes what the interpreter does."""
    kernel = Kernel(
        "gather",
        IndexSpace((0,), (8,)),
        (
            ArrayParam("lut", (8,), intent="in"),
            ArrayParam("src", (8,), intent="in"),
            ArrayParam("dst", (8,), intent="out"),
        ),
        body=(Store("dst", (ThreadIdx(0),), Read("src", (Read("lut", (ThreadIdx(0),)),))),),
    )
    assert plan_of(kernel) is None
    rng = np.random.default_rng(3)
    lut = rng.permutation(8).astype(np.int32)
    src = rng.integers(-9, 9, size=8).astype(np.int32)
    launched = {"lut": lut, "src": src, "dst": np.zeros(8, np.int32)}
    interpreted = dict(launched, dst=np.zeros(8, np.int32))
    evaluate_kernel(kernel, launched)
    _Evaluator(interpreted, {}, kernel.space).exec(kernel.body)
    np.testing.assert_array_equal(launched["dst"], interpreted["dst"])
    np.testing.assert_array_equal(launched["dst"], src[lut])


@pytest.mark.parametrize(
    "route,variant",
    [("sac", NONGENERIC), ("sac", GENERIC), ("gaspard", NONGENERIC)],
    ids=["sac", "sac-generic", "gaspard"],
)
def test_each_plan_is_built_once_over_a_pipeline_run(route, variant, monkeypatch):
    """20 checked frames build one plan per kernel object, host-loop
    kernels included, and no launch falls back to the interpreter."""
    builds: dict[int, int] = {}
    launches: list = []
    real_compile, real_plan_of = plan_module._Compiler.compile, plan_module.plan_of

    def compile_spy(self):
        builds[id(self.kernel)] = builds.get(id(self.kernel), 0) + 1
        return real_compile(self)

    def plan_of_spy(kernel):
        plan = real_plan_of(kernel)
        launches.append((kernel.name, plan))
        return plan

    monkeypatch.setattr(plan_module._Compiler, "compile", compile_spy)
    monkeypatch.setattr(plan_module, "plan_of", plan_of_spy)
    job = downscaler_job(route, size=CIF, variant=variant)
    report = FramePipeline(validate="all").run(job, 20)
    assert report.validated_instances == 20 * job.instances_per_frame
    assert builds and set(builds.values()) == {1}
    assert [name for name, plan in launches if plan is None] == []
    assert len(launches) >= 20 * job.instances_per_frame * len(builds)


def test_plan_memo_is_invisible_to_dataclass_machinery(cache, monkeypatch):
    """A kernel that holds its plan (and its canonical text) compares,
    hashes, prints and serialises as a fresh equal kernel; ``replace``
    builds a new kernel that compiles its own plan; and a launch finds
    the plan without hashing the kernel tree."""
    program = downscaler_job("gaspard", size=CIF).compile(cache)
    held = next(_launched_kernels(program))
    fresh = dataclasses.replace(held)
    text = canonical(held)
    plan = plan_of(held)
    assert plan is not None and plan_of(held) is plan
    assert held == fresh and hash(held) == hash(fresh) and repr(held) == repr(fresh)
    assert canonical(held) == text == canonical(fresh)
    assert plan_module._PLAN not in fresh.__dict__
    renamed = dataclasses.replace(held, name="renamed")
    assert plan_module._PLAN not in renamed.__dict__
    assert plan_of(renamed) is not plan
    arrays = {a.name: np.zeros(a.shape, a.dtype) for a in held.arrays}

    def no_hash(self):
        raise AssertionError("a launch hashed the kernel")

    monkeypatch.setattr(Kernel, "__hash__", no_hash)
    evaluate_kernel(held, arrays)


def test_shared_read_is_reread_after_any_store():
    """``a`` and ``b`` are bound to one buffer: the second read of ``a``
    must see the store to ``b`` between them."""
    space = IndexSpace((0,), (6,))
    read_a = Read("a", (ThreadIdx(0),))
    kernel = Kernel(
        "alias",
        space,
        (ArrayParam("a", (6,), intent="in"), ArrayParam("b", (6,), intent="inout")),
        body=(
            Store("b", (ThreadIdx(0),), BinOp("+", read_a, Const(1))),
            Store("b", (ThreadIdx(0),), BinOp("*", read_a, Const(10))),
        ),
    )
    assert plan_of(kernel).accesses.count(("read", "slice")) == 2
    buf = np.arange(6, dtype=np.int32)
    evaluate_kernel(kernel, {"a": buf, "b": buf})
    np.testing.assert_array_equal(buf, (np.arange(6) + 1) * 10)
