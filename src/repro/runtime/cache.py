"""CompileCache: memoised compilation for both routes.

Every frame of the paper's 300-frame experiments runs the *same* two
compiled programs, yet the seed reproduction recompiled per use.  The
cache keys each route on everything that determines its output:

* **SaC**: the source text, the entry function and every field of
  :class:`~repro.sac.backend.CompileOptions` (target, optimisation flags,
  wrap splitting, lint, transfer placement, the ``repro.opt``
  configuration) — a changed flag is a changed key, so ablations never
  see stale programs;
* **ArrayOL/Gaspard2**: the application model, the MARTE allocation and
  the transformation-chain configuration (pass names + lint + transfer
  placement + the ``repro.opt`` configuration).

Keys are content digests, so two textually identical sources share an
entry regardless of identity.  A frame loop asks for the same key every
frame, so :func:`canonical` memoises the serialisation of a frozen
dataclass that is immutable all the way down (a model, an options
record) on the value itself, with its digest beside it: a job that holds
its compile inputs pays a few dictionary reads and one digest per warm
lookup.  An ndarray, list, dict, set, non-frozen dataclass or ``repr``
fallback anywhere inside the value turns the memo off, so mutable
content is re-read on every call and a key can never go stale.
Hit/miss/invalidation counts are kept in :class:`CacheStats` — the
``repro pipeline`` report shows them, and the acceptance gate requires
>= frames-1 hits per route over a video run.

A miss compiles its route as a list of :class:`~repro.stages.Stage`
objects (:func:`~repro.sac.backend.compile_stages` after ``sac.parse``;
:func:`~repro.arrayol.transform.chain_stages` for Gaspard2).  Each
stage's artefact is memoised on the cache instance under its upstream
stage's key plus the inputs the stage declares, and a stage that runs
records a ``compile-pass`` span named after it.  So every configuration
differing only in ``repro.opt`` options or transfer placement shares
parsing, checking and ``sac.opt``; a fresh cache compiles cold.  The
stage memo is not an entry: :class:`CacheStats`, ``len`` and ``in``
count top-level entries only, and a warm lookup touches no stage.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.obs.span import current_tracer

__all__ = [
    "CacheStats",
    "CompileCache",
    "canonical",
    "sac_key",
    "gaspard_key",
    "tune_eval_key",
    "tune_record_key",
]


def _digest(*parts: str) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


#: the instance-dict keys under which :func:`canonical` keeps a value's
#: text and :func:`_content_digest` its digest
_MEMO = "_canonical_text"
_MEMO_DIGEST = "_canonical_digest"


def canonical(value) -> str:
    """A content-complete canonical serialisation for cache keys.

    ``repr()`` is *not* content-complete: ``numpy.ndarray.__repr__``
    elides large arrays with ``...``, so two models differing only inside
    a big array repr identically — and would digest to the same cache key,
    serving a stale compiled program.  This serialiser recurses
    dataclasses, containers and ndarrays (shape + dtype + a digest of the
    raw bytes) and names callables by module/qualname (their repr embeds
    a memory address, which is unstable across runs).

    A frozen dataclass that is immutable all the way down keeps its
    first serialisation in its instance ``__dict__``, and later calls
    return it without recursing.  Immutable means every value below it
    is a frozen dataclass, tuple, frozenset, scalar, string, numpy scalar
    or callable.  An ndarray, list, dict, set, non-frozen dataclass or
    ``repr`` fallback anywhere below turns the memo off for that value,
    as does a frozen dataclass declared with ``__slots__``.  Only the
    value passed in is memoised, not its inner nodes.  The memo lies
    outside ``dataclasses.fields``, so ``__eq__``, ``__hash__``,
    ``repr``, ``replace`` and ``asdict`` never see it.
    """
    memo = _memo_of(value)
    if memo is not None and _MEMO in memo:
        return memo[_MEMO]
    mutable: list[type] = []
    text = _serialise(value, mutable)
    if memo is not None and not mutable:
        memo[_MEMO] = text
    return text


def _content_digest(value) -> str:
    """The SHA-256 of ``canonical(value)``, kept beside a memoised text."""
    memo = _memo_of(value)
    if memo is not None and _MEMO_DIGEST in memo:
        return memo[_MEMO_DIGEST]
    text = canonical(value)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    if memo is not None and _MEMO in memo:
        memo[_MEMO_DIGEST] = digest
    return digest


def _memo_of(value) -> dict | None:
    """The instance dict of a frozen dataclass instance, else ``None``."""
    params = getattr(type(value), "__dataclass_params__", None)
    if params is None or not params.frozen:
        return None
    return getattr(value, "__dict__", None)


def _serialise(value, mutable: list[type]) -> str:
    """The canonical text of ``value``.

    Appends to ``mutable`` the type of every value met on the way whose
    content could change after it was serialised.
    """
    if isinstance(value, np.ndarray):
        mutable.append(np.ndarray)
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
        if not type(value).__dataclass_params__.frozen:
            mutable.append(type(value))
        fields = ",".join(
            f"{f.name}={_serialise(getattr(value, f.name), mutable)}"
            for f in dataclasses.fields(value)
        )
        return f"{type(value).__qualname__}({fields})"
    if isinstance(value, tuple):
        return "(" + ",".join(_serialise(v, mutable) for v in value) + ")"
    if isinstance(value, list):
        mutable.append(list)
        return "[" + ",".join(_serialise(v, mutable) for v in value) + "]"
    if isinstance(value, dict):
        mutable.append(dict)
        items = sorted(
            (_serialise(k, mutable), _serialise(v, mutable))
            for k, v in value.items()
        )
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if isinstance(value, (set, frozenset)):
        if isinstance(value, set):
            mutable.append(set)
        return "set{" + ",".join(sorted(_serialise(v, mutable) for v in value)) + "}"
    if value is None or isinstance(value, (bool, int, float, complex, str, bytes)):
        return repr(value)
    if callable(value):
        module = getattr(value, "__module__", "?")
        qualname = getattr(value, "__qualname__", type(value).__qualname__)
        return f"callable:{module}.{qualname}"
    mutable.append(type(value))
    return repr(value)


def sac_key(source: str, entry: str, options) -> tuple:
    """Cache key of one SaC compilation (source x entry x options)."""
    return ("sac", entry, _digest(source, canonical(options)))


def gaspard_key(
    model,
    allocation,
    chain_passes=(),
    lint: bool = False,
    opt=None,
    transfers: str = "boundary",
) -> tuple:
    """Cache key of one Gaspard2 chain run (model x allocation x chain).

    ``opt`` and ``transfers`` reconfigure the chain's emitted program, so
    they are part of the content key — toggling the optimiser can never
    serve a stale unoptimised program (the SaC route gets the same
    guarantee through ``canonical(CompileOptions)`` in :func:`sac_key`).
    ``chain_passes`` are pass names, whose tuple's ``repr`` is its
    content; a held model and allocation contribute their kept digests.
    """
    return (
        "gaspard",
        _digest(
            _content_digest(model),
            _content_digest(allocation),
            repr(tuple(chain_passes)),
            repr(bool(lint)),
            canonical(opt),
            canonical(transfers),
        ),
    )


def tune_eval_key(app: str, route: str, size, config) -> tuple:
    """Cache key of one tuner cost evaluation.

    ``config`` is a :class:`repro.tune.TuneConfig` dataclass; its
    :func:`canonical` serialisation recurses *every* field — the
    ``OptOptions`` (toggles **and** tail-pass order), transfer placement,
    pipeline depth, paving granularity and fleet placement policy — so two
    configurations differing in any single tuned knob can never collide.
    """
    return ("tune-eval", app, route, _digest(canonical(size), canonical(config)))


def tune_record_key(app: str, route: str, size) -> tuple:
    """Cache key of the winning tuning record for one (app, route, size)."""
    return ("tune-record", app, route, _digest(canonical(size)))


@dataclass
class CacheStats:
    """Hit/miss/invalidation counters of a :class:`CompileCache`."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> "CacheStats":
        return CacheStats(self.hits, self.misses, self.invalidations)

    def since(self, earlier: "CacheStats") -> "CacheStats":
        """Counter deltas relative to an earlier :meth:`snapshot`."""
        return CacheStats(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            invalidations=self.invalidations - earlier.invalidations,
        )

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "hit_rate": round(self.hit_rate, 4),
        }


class CompileCache:
    """Memoises compilation results under explicit content keys."""

    def __init__(self) -> None:
        self._entries: dict[tuple, Any] = {}
        #: stage artefacts by stage key (see :meth:`_run_stages`)
        self._stages: dict[str, Any] = {}
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    def get_or_compile(self, key: tuple, builder: Callable[[], Any]) -> Any:
        """Return the cached artefact for ``key``, building it on miss."""
        try:
            value = self._entries[key]
        except KeyError:
            self.stats.misses += 1
            with current_tracer().span(
                f"compile:{key[0]}", category="compile", cache="miss"
            ):
                value = self._entries[key] = builder()
        else:
            self.stats.hits += 1
            current_tracer().event(
                f"compile:{key[0]}", category="compile", cache="hit"
            )
        return value

    def store(self, key: tuple, value: Any) -> Any:
        """Insert (or overwrite) an artefact under an explicit key.

        The tuner's write path: cost evaluations and winning tuning
        records are deposited here so later searches and AOT consumers
        can :meth:`peek` them without recomputing.
        """
        self._entries[key] = value
        return value

    def peek(self, key: tuple, default: Any = None) -> Any:
        """Return the artefact under ``key`` without building on miss.

        Counts as a lookup (hit or miss) in :attr:`stats`.
        """
        if key in self._entries:
            self.stats.hits += 1
            return self._entries[key]
        self.stats.misses += 1
        return default

    def invalidate(self, key: tuple) -> bool:
        """Drop one entry; returns whether it existed."""
        if key in self._entries:
            del self._entries[key]
            self.stats.invalidations += 1
            return True
        return False

    def clear(self) -> int:
        """Drop every entry and stage artefact; returns how many entries
        were invalidated."""
        n = len(self._entries)
        self._entries.clear()
        self._stages.clear()
        self.stats.invalidations += n
        return n

    def _run_stages(self, stages, value, key: str) -> tuple[Any, str]:
        """Run ``stages`` from ``value``, whose key is ``key``.

        Each stage's key digests its upstream's key, its name and its
        declared inputs; a stage already run under that key hands back
        its artefact, any other runs under a ``compile-pass`` span.
        Returns the last artefact and its key.
        """
        tracer = current_tracer()
        for stage in stages:
            key = _digest(key, stage.name, canonical(stage.inputs))
            try:
                value = self._stages[key]
            except KeyError:
                with tracer.span(stage.name, category="compile-pass"):
                    value = self._stages[key] = stage.run(value)
        return value, key

    # -- route-specific conveniences ----------------------------------------

    def compile_sac(self, source: str, entry: str, options=None):
        """Parse + compile a SaC source through the cache.

        Returns the :class:`~repro.sac.backend.CompiledFunction` that
        ``compile_function(parse(source), entry, options)`` returns; a
        miss runs ``sac.parse`` and then
        :func:`~repro.sac.backend.compile_stages` through the stage memo.
        """
        from repro.sac.backend import CompileOptions

        options = CompileOptions() if options is None else options

        def build():
            from repro.sac.backend import compile_stages
            from repro.sac.parser import parse
            from repro.stages import Stage

            parsed = Stage("sac.parse", (source,), lambda _: parse(source))
            program, key = self._run_stages((parsed,), None, "sac")
            cf, _ = self._run_stages(compile_stages(program, entry, options), program, key)
            return cf

        return self.get_or_compile(sac_key(source, entry, options), build)

    def compile_gaspard(
        self, model, allocation, lint: bool = False, opt=None,
        transfers: str = "boundary",
    ):
        """Run the Gaspard2 chain through the cache.

        Returns ``(ctx, chain)`` — the transformed
        :class:`~repro.arrayol.transform.GaspardContext` and the chain that
        produced it (for its trace).  A hit builds no chain; a miss runs
        :func:`~repro.arrayol.transform.chain_stages` through the stage
        memo.
        """
        from repro.arrayol.transform import chain_pass_names

        key = gaspard_key(
            model, allocation, chain_pass_names(lint, opt is not None), lint,
            opt=opt, transfers=transfers,
        )

        def build():
            from repro.arrayol.transform import GaspardContext, chain_stages, standard_chain

            chain = standard_chain(lint=lint, opt=opt, transfers=transfers)
            start = (GaspardContext(model=model, allocation=allocation), ())
            root = _digest("gaspard", _content_digest(model), _content_digest(allocation))
            (ctx, trace), _ = self._run_stages(chain_stages(chain), start, root)
            chain.trace = list(trace)
            return ctx, chain

        return self.get_or_compile(key, build)
