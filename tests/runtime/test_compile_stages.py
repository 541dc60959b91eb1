"""CompileCache's staged compilation: one memo per stage, one-shot results.

A miss runs its route as a list of stages, each memoised on the cache
under its upstream's key plus the inputs it declares.  These tests pin
that the memo changes no compiled artefact, that configurations share the
stages before the one they differ in, that a later stage never changes an
earlier artefact, and that warm lookups touch no stage.
"""

from collections import Counter

import pytest

from repro.apps.downscaler import CIF, NONGENERIC, downscaler_program_source
from repro.apps.downscaler.arrayol_model import downscaler_allocation, downscaler_model
from repro.apps.downscaler.serving import downscaler_job
from repro.arrayol.transform import GaspardContext, chain_pass_names, standard_chain
from repro.arrayol.transform import passes as passes_module
from repro.errors import OptError
from repro.obs import Tracer
from repro.opt import OptOptions
from repro.runtime import CompileCache, canonical, gaspard_key
from repro.runtime import cache as cache_module
from repro.sac.backend import CompileOptions, compile_function
from repro.sac.backend import driver
from repro.sac.parser import parse
from repro.tune.space import enumerate_opt_options

TRANSFERS = ("boundary", "per_kernel")
SAC_SRC = downscaler_program_source(CIF, NONGENERIC)
SMALL_SRC = (
    "int[16] f(int[16] a) { b = with { (. <= iv <= .) : a[iv] * 2; } : genarray([16]); "
    "c = with { ([1] <= iv < [15]) : b[iv - 1] + b[iv + 1]; } : genarray([16]); return c; }"
)


def _sac_record(cf) -> tuple:
    return (
        canonical(cf.program),
        cf.kernel_count,
        cf.host_step_count,
        cf.rejected,
        canonical(cf.diagnostics),
        canonical(cf.opt_report),
    )


def _gaspard_record(ctx, chain) -> tuple:
    return (
        canonical(ctx.program),
        canonical(tuple(ctx.diagnostics)),
        canonical(ctx.opt_report),
        tuple(chain.trace),
    )


def _outcome(compile, record) -> tuple:
    """``record`` of what ``compile()`` returns, or the error it raises
    (certification rejects some per-kernel configurations)."""
    try:
        return record(*compile())
    except OptError as err:
        return ("OptError", str(err))


@pytest.fixture
def sac_opt_calls(monkeypatch):
    """Counts the calls of the SaC high-level optimiser (``sac.opt``)."""
    calls = []
    real = driver.optimize_program

    def counted(program, entry, flags):
        calls.append(entry)
        return real(program, entry=entry, flags=flags)

    monkeypatch.setattr(driver, "optimize_program", counted)
    return calls


# -- (a) the cached compile is the one-shot compile ---------------------------


def _sac_configurations(transfers: str) -> list[CompileOptions]:
    configs = [CompileOptions(opt=opt, transfers=transfers) for opt in enumerate_opt_options()]
    return configs + [
        CompileOptions(target="seq", transfers=transfers),
        CompileOptions(lint=True, transfers=transfers),
        CompileOptions(lint=True, opt=OptOptions(), transfers=transfers),
    ]


@pytest.mark.parametrize("transfers", TRANSFERS)
def test_cached_sac_compiles_equal_one_shot_compiles(transfers, monkeypatch):
    """Every repro.opt configuration, ``seq`` and ``lint`` compiled through
    one cache (so sharing every stage it can) equals
    ``compile_function(parse(src), ...)``."""
    cache = CompileCache()
    configs = _sac_configurations(transfers)
    cached = [
        _outcome(lambda: (cache.compile_sac(SAC_SRC, "downscale", options),), _sac_record)
        for options in configs
    ]

    # the one-shot reference runs every stage itself except that it keeps
    # the optimised tree of its one parsed program: sac.opt is
    # deterministic, and running it per configuration would take a minute
    parsed = parse(SAC_SRC)
    kept = {}
    real = driver.optimize_program

    def optimise_once(program, entry, flags):
        assert program is parsed
        if (entry, flags) not in kept:
            kept[entry, flags] = real(program, entry=entry, flags=flags)
        return kept[entry, flags]

    monkeypatch.setattr(driver, "optimize_program", optimise_once)
    for options, got in zip(configs, cached):
        want = _outcome(lambda: (compile_function(parsed, "downscale", options),), _sac_record)
        assert got == want, options
    assert sum(got[0] != "OptError" for got in cached) == len(cache)


@pytest.mark.parametrize("transfers", TRANSFERS)
def test_cached_gaspard_compiles_equal_one_shot_chains(transfers):
    model, allocation = downscaler_model(CIF), downscaler_allocation()
    cache = CompileCache()
    configs = [(False, opt) for opt in enumerate_opt_options()]
    configs += [(True, None), (True, OptOptions())]
    stored = 0
    for lint, opt in configs:
        got = _outcome(
            lambda: cache.compile_gaspard(
                model, allocation, lint=lint, opt=opt, transfers=transfers
            ),
            _gaspard_record,
        )

        def one_shot():
            chain = standard_chain(lint=lint, opt=opt, transfers=transfers)
            return chain.run(GaspardContext(model=model, allocation=allocation)), chain

        assert got == _outcome(one_shot, _gaspard_record), (lint, opt)
        stored += got[0] != "OptError"
    assert len(cache) == stored


# -- (b) configurations share the stages before the one they differ in ---------


SHARING = (
    CompileOptions(),
    CompileOptions(opt=OptOptions()),
    CompileOptions(transfers="per_kernel", opt=OptOptions(fusion=False)),
)


def test_configurations_differing_after_sac_opt_run_it_once(sac_opt_calls):
    cache = CompileCache()
    for options in SHARING:
        cache.compile_sac(SMALL_SRC, "f", options)
    assert len(sac_opt_calls) == 1
    assert (cache.stats.misses, len(cache)) == (3, 3)
    # a fresh cache is a cold compile
    for options in SHARING:
        CompileCache().compile_sac(SMALL_SRC, "f", options)
    assert len(sac_opt_calls) == 4


def test_cuda_and_seq_share_sac_opt(sac_opt_calls):
    cache = CompileCache()
    cuda = cache.compile_sac(SMALL_SRC, "f", CompileOptions(target="cuda"))
    seq = cache.compile_sac(SMALL_SRC, "f", CompileOptions(target="seq"))
    assert len(sac_opt_calls) == 1
    assert cuda.optimized is seq.optimized
    assert (cuda.program.name, seq.program.name) == ("f_cuda", "f_seq")


def test_a_changed_upstream_input_is_a_new_stage_key(sac_opt_calls):
    cache = CompileCache()
    cache.compile_sac(SMALL_SRC, "f", CompileOptions())
    cache.compile_sac(SMALL_SRC + " ", "f", CompileOptions())
    cache.compile_sac(SMALL_SRC, "f", CompileOptions(check=False))
    assert len(sac_opt_calls) == 3


# -- (c) a later stage never changes an earlier artefact ------------------------


def test_later_gaspard_stages_leave_the_plain_entry_unchanged():
    cache = CompileCache()
    model, allocation = downscaler_model(CIF), downscaler_allocation()
    ctx, chain = cache.compile_gaspard(model, allocation)
    program, text = ctx.program, canonical(ctx.program)
    ops, kernels, trace = list(ctx.ops), dict(ctx.kernels), list(chain.trace)
    for lint, opt, transfers in (
        (False, OptOptions(), "boundary"),
        (True, None, "boundary"),
        (True, OptOptions(), "per_kernel"),
    ):
        other, _ = cache.compile_gaspard(
            model, allocation, lint=lint, opt=opt, transfers=transfers
        )
        assert other is not ctx
    again, again_chain = cache.compile_gaspard(model, allocation)
    assert (again, again_chain) == (ctx, chain)
    assert ctx.program is program and canonical(ctx.program) == text
    assert ctx.diagnostics == [] and ctx.opt_report is None
    assert (ctx.ops, ctx.kernels, chain.trace) == (ops, kernels, trace)


def test_context_copy_shares_values_not_containers():
    ctx, _ = CompileCache().compile_gaspard(downscaler_model(CIF), downscaler_allocation())
    copy = ctx.copy()
    assert copy.ops == ctx.ops and copy.ops is not ctx.ops
    assert copy.kernels is not ctx.kernels and copy.program is ctx.program
    copy.diagnostics.append("x")
    assert ctx.diagnostics == []


# -- spans, statistics and the warm path -----------------------------------------


def _stage_spans(tracer) -> list[str]:
    return [s.name for s in tracer.spans if s.category == "compile-pass"]


def test_stage_spans_appear_on_a_top_level_miss_only():
    cache = CompileCache()
    model, allocation = downscaler_model(CIF), downscaler_allocation()
    with Tracer() as tracer:
        cache.compile_sac(SMALL_SRC, "f", CompileOptions())
        cache.compile_gaspard(model, allocation)
    sac = ["sac.parse", "sac.check", "sac.opt", "sac.backend", "ir.validate"]
    gaspard = [f"arrayol.transform.{p}" for p in chain_pass_names()] + ["ir.validate"]
    assert sorted(_stage_spans(tracer)) == sorted(sac + gaspard)
    # each stage span sits inside its route's miss span
    by_id = {s.id: s for s in tracer.spans}
    for s in tracer.spans:
        if s.category == "compile-pass":
            assert by_id[s.parent_id].category == "compile"
    with Tracer() as warm:
        cache.compile_sac(SMALL_SRC, "f", CompileOptions())
        cache.compile_gaspard(model, allocation)
    assert _stage_spans(warm) == []
    assert [s.attrs["cache"] for s in warm.spans] == ["hit", "hit"]
    # an optimised configuration runs only the stages it adds
    with Tracer() as later:
        cache.compile_sac(SMALL_SRC, "f", CompileOptions(opt=OptOptions()))
        cache.compile_gaspard(model, allocation, opt=OptOptions())
    assert _stage_spans(later) == ["repro.opt", "arrayol.transform.optimize"]
    assert (cache.stats.hits, cache.stats.misses, len(cache)) == (2, 4, 4)


def test_clear_drops_stage_artefacts(sac_opt_calls):
    cache = CompileCache()
    cache.compile_sac(SMALL_SRC, "f", CompileOptions())
    assert cache.clear() == 1
    cache.compile_sac(SMALL_SRC, "f", CompileOptions(opt=OptOptions()))
    assert len(sac_opt_calls) == 2


def test_budget_four_sac_search_parses_and_optimises_once():
    """The structural check of the tuner gain (also run in CI): four SaC
    candidates share one parse and one sac.opt."""
    from repro.tune import DownscalerSubject, tune

    with Tracer() as tracer:
        result = tune(DownscalerSubject("sac", size=CIF), budget=4, validate=False)
    assert result.candidates == 4
    counts = Counter(_stage_spans(tracer))
    assert (counts["sac.parse"], counts["sac.opt"], counts["sac.backend"]) == (1, 1, 2)


def test_chain_pass_names_are_the_standard_chains():
    for lint in (False, True):
        for opt in (None, OptOptions()):
            names = tuple(p.name for p in standard_chain(lint=lint, opt=opt).passes)
            assert chain_pass_names(lint, opt is not None) == names


def test_warm_gaspard_lookup_builds_no_chain(monkeypatch):
    built = []
    real = passes_module.opencl_chain_passes

    def counted(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(passes_module, "opencl_chain_passes", counted)
    job = downscaler_job("gaspard", size=CIF, opt=OptOptions())
    cache = CompileCache()
    program = job.compile(cache)
    assert len(built) == 1
    for _ in range(3):
        assert job.compile(cache) is program
    assert len(built) == 1
    assert (cache.stats.hits, cache.stats.misses) == (3, 1)


def test_warm_gaspard_key_hashes_no_model_text(monkeypatch):
    model, allocation = downscaler_model(CIF), downscaler_allocation()
    names = chain_pass_names()
    key = gaspard_key(model, allocation, names)
    hashed, serialised = [], []
    real_digest, real_canonical = cache_module._digest, cache_module.canonical

    def measured(*parts):
        hashed.append(sum(map(len, parts)))
        return real_digest(*parts)

    def spied(value):
        serialised.append(value)
        return real_canonical(value)

    monkeypatch.setattr(cache_module, "_digest", measured)
    monkeypatch.setattr(cache_module, "canonical", spied)
    assert gaspard_key(model, allocation, iter(names)) == key
    # the held texts are neither read nor hashed again: only their digests
    assert not any(v is model or v is allocation for v in serialised)
    assert len(real_canonical(model)) > 10_000
    assert hashed and max(hashed) < 1_000
