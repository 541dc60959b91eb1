"""``Kernel.facts`` against the walkers it replaced.

The oracle below is the logic of the separate ``Kernel`` methods and
``validate_kernel``'s statement walk that :func:`repro.ir.stmt.body_facts`
folded into one walk: each answer comes from its own pass over the body.
"""

from dataclasses import fields, replace

import pytest
from hypothesis import given, settings

import repro.ir.kernel as kernel_module
from repro.apps.convolution import (
    convolution_allocation,
    convolution_model,
    convolution_program_source,
    gaussian3,
)
from repro.apps.downscaler.config import CIF
from repro.apps.downscaler.sac_sources import GENERIC, NONGENERIC
from repro.apps.downscaler.serving import downscaler_job
from repro.ir import (
    Assign,
    BinOp,
    For,
    FusedKernel,
    LocalRef,
    ParamRef,
    Read,
    Select,
    Store,
    ThreadIdx,
    UnOp,
)
from repro.ir.expr import walk
from repro.ir.stmt import walk_stmts
from repro.opt import OptOptions
from repro.runtime.cache import CompileCache, canonical
from repro.sac.backend import CompileOptions
from tests.ir.test_evalvec_properties import kernels_2d, rand_kernels
from tests.ir.test_validate import MULTI_FAULTS, SINGLE_FAULTS


def _roots(s):
    if isinstance(s, Assign):
        return (s.value,)
    if isinstance(s, Store):
        return (*s.index, s.value)
    return ()


def _with_multiplicity(stmts, mult=1):
    for s in stmts:
        yield s, mult
        if isinstance(s, For):
            yield from _with_multiplicity(s.body, mult * s.trip_count)


def oracle_facts(kernel) -> dict:
    body = kernel.body
    exprs = [e for s in walk_stmts(body) for root in _roots(s) for e in walk(root)]

    def per_item(types):
        return sum(
            mult * sum(isinstance(e, types) for root in _roots(s) for e in walk(root))
            for s, mult in _with_multiplicity(body)
        )

    bound, free = set(), set()

    def scan(stmts):
        for s in stmts:
            for root in _roots(s):
                free.update(
                    e.name for e in walk(root)
                    if isinstance(e, LocalRef) and e.name not in bound
                )
            if isinstance(s, Assign):
                bound.add(s.name)
            elif isinstance(s, For):
                bound.add(s.var)
                scan(s.body)

    scan(body)
    accesses = []
    for s in walk_stmts(body):
        if isinstance(s, Store):
            accesses.append(("store", s.array, len(s.index)))
        for root in _roots(s):
            accesses += [("read", e.array, len(e.index)) for e in walk(root) if isinstance(e, Read)]
    return {
        "accesses": tuple(dict.fromkeys(accesses)),
        "scalars": {e.name for e in exprs if isinstance(e, ParamRef)},
        "unbound_locals": free,
        "highest_thread_dim": max((e.dim for e in exprs if isinstance(e, ThreadIdx)), default=-1),
        "reads": per_item(Read),
        "writes": sum(mult for s, mult in _with_multiplicity(body) if isinstance(s, Store)),
        "flops": per_item((BinOp, UnOp, Select)),
    }


def assert_facts_match(kernel):
    facts = kernel.facts
    assert {f.name: getattr(facts, f.name) for f in fields(facts)} == oracle_facts(kernel)


@given(rand_kernels())
@settings(max_examples=150, deadline=None)
def test_facts_of_random_kernels(kernel):
    assert_facts_match(kernel)


@given(kernels_2d())
@settings(max_examples=150, deadline=None)
def test_facts_of_2d_kernels(kernel):
    assert_facts_match(kernel)


@pytest.mark.parametrize("case", sorted(SINGLE_FAULTS) + sorted(MULTI_FAULTS))
def test_facts_of_faulty_kernels(case):
    kernel, _ = {**SINGLE_FAULTS, **MULTI_FAULTS}[case]
    assert_facts_match(kernel)


def _emitted_programs(opt):
    cache = CompileCache()
    for variant in (NONGENERIC, GENERIC):
        yield downscaler_job("sac", size=CIF, variant=variant, opt=opt).compile(cache)
    yield downscaler_job("gaspard", size=CIF, opt=opt).compile(cache)
    config = gaussian3(CIF.rows, CIF.cols)
    yield cache.compile_sac(
        convolution_program_source(config), "blur", CompileOptions(opt=opt)
    ).program
    yield cache.compile_gaspard(
        convolution_model(config), convolution_allocation(), opt=opt
    )[0].program


@pytest.mark.parametrize("opt", [None, OptOptions()], ids=["default", "opt"])
def test_facts_of_emitted_kernels(opt):
    kernels = []
    for program in _emitted_programs(opt):
        for k in program.kernels:
            kernels += [st.kernel for st in k.stages] if isinstance(k, FusedKernel) else [k]
    assert len(kernels) >= 10
    for kernel in kernels:
        assert_facts_match(kernel)


def test_facts_are_kept_per_instance_and_invisible():
    kernel, _ = SINGLE_FAULTS["read rank"]
    fresh = replace(kernel)
    assert kernel.facts is kernel.facts
    assert "facts" in kernel.__dict__ and "facts" not in fresh.__dict__
    assert fresh == kernel and hash(fresh) == hash(kernel)
    assert repr(fresh) == repr(kernel) and canonical(fresh) == canonical(kernel)


def test_a_tuner_search_walks_each_kernel_instance_once(monkeypatch):
    """A budget-6 Gaspard CIF search validates its launches many times;
    only the first look at each kernel instance walks its body."""
    from repro.tune import DownscalerSubject, tune

    walked = []
    real = kernel_module.body_facts

    def counting(stmts):
        walked.append(stmts)  # held, so no id is reused
        return real(stmts)

    monkeypatch.setattr(kernel_module, "body_facts", counting)
    result = tune(DownscalerSubject("gaspard", size=CIF), budget=6, frames=3,
                  cache=CompileCache(), validate=False)
    assert result.candidates == 6
    assert walked
    assert len({id(b) for b in walked}) == len(walked)
