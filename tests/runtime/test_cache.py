"""CompileCache: keying, hit/miss/invalidation accounting."""

import dataclasses
import hashlib
from dataclasses import dataclass

import numpy as np
import pytest

from repro.apps.downscaler import CIF, HD
from repro.apps.downscaler.arrayol_model import downscaler_allocation, downscaler_model
from repro.apps.downscaler.config import legal_pavings
from repro.opt import TAIL_PASSES, OptOptions
from repro.runtime import CompileCache, canonical, gaspard_key, sac_key
from repro.runtime import cache as cache_module
from repro.sac.backend import CompileOptions
from repro.tune.space import DEFAULT_CONFIG, enumerate_pass_configs, neighbours

SRC = (
    "int[32] f(int[32] a) { b = with { (. <= iv <= .) : a[iv] + 1; } "
    ": genarray([32]); return b; }"
)


def test_sac_hit_on_repeat():
    cache = CompileCache()
    first = cache.compile_sac(SRC, "f", CompileOptions(target="cuda"))
    second = cache.compile_sac(SRC, "f", CompileOptions(target="cuda"))
    assert second is first  # memoised artefact, not a recompilation
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1
    assert cache.stats.hit_rate == pytest.approx(0.5)
    assert len(cache) == 1


def test_sac_key_covers_source_entry_and_options():
    cache = CompileCache()
    cache.compile_sac(SRC, "f", CompileOptions(target="cuda"))
    # any changed compile input is a distinct key -> a miss
    cache.compile_sac(SRC + " ", "f", CompileOptions(target="cuda"))
    cache.compile_sac(SRC, "f", CompileOptions(target="seq"))
    cache.compile_sac(SRC, "f", CompileOptions(target="cuda", lint=True))
    assert cache.stats.misses == 4
    assert cache.stats.hits == 0
    assert len(cache) == 4


def test_key_functions_are_content_digests():
    opts = CompileOptions(target="cuda")
    assert sac_key(SRC, "f", opts) == sac_key(str(SRC), "f", opts)
    assert sac_key(SRC, "f", opts) != sac_key(SRC, "g", opts)
    model, alloc = downscaler_model(CIF), downscaler_allocation()
    assert gaspard_key(model, alloc) == gaspard_key(downscaler_model(CIF), alloc)
    assert gaspard_key(model, alloc) != gaspard_key(downscaler_model(HD), alloc)
    assert gaspard_key(model, alloc) != gaspard_key(model, alloc, lint=True)


@dataclass
class _ArrayModel:
    """A model-like dataclass carrying a large coefficient array."""

    name: str
    weights: np.ndarray


def test_keys_see_inside_large_arrays():
    """Regression: keys were digests of ``repr()``, and ndarray repr
    elides big arrays with ``...`` — two models differing only mid-array
    printed identically and collided onto one cache entry.  The canonical
    serialiser digests the raw bytes, so they key apart."""
    a = _ArrayModel("m", np.zeros(100_000, dtype=np.int32))
    b = _ArrayModel("m", np.zeros(100_000, dtype=np.int32))
    b.weights[50_000] = 7  # invisible to repr: elided by '...'
    assert repr(a) == repr(b)  # the exact collision the old keys digested
    assert canonical(a) != canonical(b)
    assert gaspard_key(a, allocation=None) != gaspard_key(b, allocation=None)


def test_canonical_is_content_complete():
    arr = np.arange(6, dtype=np.float64).reshape(2, 3)
    # equal content -> equal serialisation, regardless of identity
    assert canonical(arr) == canonical(arr.copy())
    # shape and dtype are part of the content
    assert canonical(arr) != canonical(arr.ravel())
    assert canonical(arr) != canonical(arr.astype(np.float32))
    # non-contiguous views serialise by content, not memory layout
    base = np.arange(12, dtype=np.int32)
    assert canonical(base[::2]) == canonical(base[::2].copy())
    # containers recurse; dict ordering is canonicalised
    assert canonical({"b": 1, "a": 2}) == canonical({"a": 2, "b": 1})
    assert canonical((1, "x")) != canonical([1, "x"])
    # callables key by qualified name, not their address-bearing repr
    assert canonical(len) == canonical(len)
    assert "0x" not in canonical(test_canonical_is_content_complete)


def test_gaspard_hit_on_repeat():
    cache = CompileCache()
    ctx1, chain1 = cache.compile_gaspard(downscaler_model(CIF), downscaler_allocation())
    ctx2, _ = cache.compile_gaspard(downscaler_model(CIF), downscaler_allocation())
    assert ctx2 is ctx1
    assert (cache.stats.hits, cache.stats.misses) == (1, 1)
    assert ctx1.program.launch_count > 0
    assert chain1.trace  # the producing chain rides along for its trace


def test_invalidate_and_clear():
    cache = CompileCache()
    key = sac_key(SRC, "f", CompileOptions(target="cuda"))
    cache.compile_sac(SRC, "f", CompileOptions(target="cuda"))
    assert key in cache
    assert cache.invalidate(key)
    assert not cache.invalidate(key)  # already gone
    assert key not in cache
    cache.compile_sac(SRC, "f", CompileOptions(target="cuda"))
    assert cache.stats.misses == 2  # recompiled after invalidation
    assert cache.clear() == 1
    assert cache.stats.invalidations == 2
    assert len(cache) == 0


def test_stats_snapshot_and_delta():
    cache = CompileCache()
    cache.compile_sac(SRC, "f", CompileOptions(target="cuda"))
    before = cache.stats.snapshot()
    for _ in range(5):
        cache.compile_sac(SRC, "f", CompileOptions(target="cuda"))
    delta = cache.stats.since(before)
    assert (delta.hits, delta.misses, delta.invalidations) == (5, 0, 0)
    assert delta.hit_rate == pytest.approx(1.0)
    d = delta.as_dict()
    assert d["hits"] == 5 and d["hit_rate"] == 1.0


# -- the immutable-value memo ------------------------------------------------


def _reference_canonical(value) -> str:
    """The serialiser as it was before :func:`canonical` kept a memo.

    A verbatim copy of the plain recursion: the byte-for-byte oracle the
    memoised serialiser must keep matching, on first and on later calls.
    """
    if isinstance(value, np.ndarray):
        payload = hashlib.sha256(
            np.ascontiguousarray(value).tobytes()
        ).hexdigest()
        return (
            f"ndarray(shape={tuple(value.shape)},dtype={value.dtype.str},"
            f"sha256={payload})"
        )
    if isinstance(value, np.generic):
        return f"{type(value).__name__}({value!r})"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = ",".join(
            f"{f.name}={_reference_canonical(getattr(value, f.name))}"
            for f in dataclasses.fields(value)
        )
        return f"{type(value).__qualname__}({fields})"
    if isinstance(value, tuple):
        return "(" + ",".join(_reference_canonical(v) for v in value) + ")"
    if isinstance(value, list):
        return "[" + ",".join(_reference_canonical(v) for v in value) + "]"
    if isinstance(value, dict):
        items = sorted(
            (_reference_canonical(k), _reference_canonical(v))
            for k, v in value.items()
        )
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if isinstance(value, (set, frozenset)):
        return "set{" + ",".join(sorted(_reference_canonical(v) for v in value)) + "}"
    if value is None or isinstance(value, (bool, int, float, complex, str, bytes)):
        return repr(value)
    if callable(value):
        module = getattr(value, "__module__", "?")
        qualname = getattr(value, "__qualname__", type(value).__qualname__)
        return f"callable:{module}.{qualname}"
    return repr(value)


def _assert_matches_reference(value) -> None:
    want = _reference_canonical(value)
    assert canonical(value) == want  # cold: serialises (and may memoise)
    assert canonical(value) == want  # warm: from the memo where one is kept


@pytest.mark.parametrize("size", [CIF, HD], ids=["cif", "hd"])
def test_memoised_model_serialises_like_the_reference(size):
    for paving in legal_pavings(size):
        model = downscaler_model(size, paving=paving)
        _assert_matches_reference(model)
        # held: the second call hands back the kept string itself
        assert canonical(model) is canonical(model)


def test_allocation_serialises_like_the_reference():
    allocation = downscaler_allocation()
    _assert_matches_reference(allocation)
    # its mapping index is not a field, so the text is held like a model's
    assert canonical(allocation) is canonical(allocation)


def test_warm_gaspard_lookup_does_not_serialise_the_allocation(monkeypatch):
    """A held job's warm compile reads the model's and the allocation's
    text from the memo: no dataclass is serialised again."""
    from repro.apps.downscaler.serving import downscaler_job

    job = downscaler_job("gaspard", size=CIF)
    cache = CompileCache()
    program = job.compile(cache)
    _, allocation = job._compile_inputs
    assert allocation.on_device("hf_rhf")  # builds the index on first use
    seen = []
    real = cache_module._serialise

    def spy(value, mutable):
        seen.append(type(value))
        return real(value, mutable)

    monkeypatch.setattr(cache_module, "_serialise", spy)
    assert job.compile(cache) is program
    assert (cache.stats.hits, cache.stats.misses) == (1, 1)
    assert seen and not any(dataclasses.is_dataclass(t) for t in seen), seen


@pytest.mark.parametrize(
    "options",
    [
        CompileOptions(),
        CompileOptions(target="seq", transfers="per_kernel", lint=True),
        CompileOptions(opt=OptOptions()),
        CompileOptions(
            opt=OptOptions(fusion=False, order=tuple(reversed(TAIL_PASSES)))
        ),
    ],
    ids=["default", "seq-per-kernel", "opt", "opt-reordered"],
)
def test_compile_options_serialise_like_the_reference(options):
    _assert_matches_reference(options)


def test_tune_configs_serialise_like_the_reference():
    space = enumerate_pass_configs() + neighbours(
        dataclasses.replace(DEFAULT_CONFIG, opt=OptOptions()),
        pavings=(1, 2),
        devices=2,
    )
    assert any(c.opt is not None and c.opt.order is not None for c in space)
    for config in space:
        _assert_matches_reference(config)


def test_compiled_program_serialises_like_the_reference(gaspard_program):
    _assert_matches_reference(gaspard_program)


@dataclass(frozen=True)
class _FrozenArrayModel:
    """A frozen model-like dataclass whose coefficient array stays mutable."""

    name: str
    weights: np.ndarray


@dataclass(frozen=True)
class _FrozenListModel:
    """A frozen model-like dataclass holding a (mutable) list."""

    name: str
    items: list


def test_frozen_values_with_mutable_contents_are_not_memoised():
    """The frozen twin of ``test_keys_see_inside_large_arrays``: freezing
    the dataclass does not freeze what it holds, so a memo on it would
    serve the key of contents that have since changed."""
    a = _FrozenArrayModel("m", np.zeros(100_000, dtype=np.int32))
    before = canonical(a)
    a.weights[50_000] = 7
    assert canonical(a) != before
    assert canonical(a) == _reference_canonical(a)
    b = _FrozenListModel("m", [1, 2])
    before = canonical(b)
    b.items.append(3)
    assert canonical(b) != before
    assert canonical(b) == _reference_canonical(b)


def test_second_canonical_of_a_held_model_does_not_recurse(monkeypatch):
    model = downscaler_model(CIF)
    first = canonical(model)
    calls = []
    real = cache_module._serialise

    def spy(value, mutable):
        calls.append(type(value))
        return real(value, mutable)

    monkeypatch.setattr(cache_module, "_serialise", spy)
    assert canonical(model) == first
    assert calls == []
    # a model no call has seen yet still recurses, through the spy
    assert canonical(downscaler_model(CIF)) == first
    assert len(calls) > 1


def test_memo_is_invisible_to_dataclass_machinery():
    held, fresh = CompileOptions(opt=OptOptions()), CompileOptions(opt=OptOptions())
    canonical(held)
    assert held == fresh
    assert hash(held) == hash(fresh)
    assert repr(held) == repr(fresh)
    assert dataclasses.asdict(held) == dataclasses.asdict(fresh)
    # replace() builds a new value: it serialises its own content
    changed = dataclasses.replace(held, lint=True)
    assert canonical(changed) == _reference_canonical(changed) != canonical(held)
