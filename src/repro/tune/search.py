"""The search driver: exhaustive pass grid, then greedy with restarts.

:func:`tune` explores the legal configuration space in two phases:

1. **Exhaustive** over the program-shaping knobs — every distinct
   optimiser configuration (toggles x distinguishable tail-pass orders,
   plus the paper-literal ``None``) crossed with both transfer
   placements, at the baseline depth/paving/placement.
2. **Greedy with random restarts** over the joint combinatorial space:
   from seeded starting points, repeatedly move to the best improving
   single-knob neighbour (depth, paving, placement, transfers, optimiser
   mutation) until a local optimum, restarting until the candidate
   budget is spent.  The only randomness is the seeded restart draw —
   same seed, same winner.

Every candidate is priced by the modelled cost only (static program
stats + a region-edge schedule replay, the same edges
:class:`~repro.runtime.pipeline.FramePipeline` charges; no functional
execution),
memoised in the :class:`~repro.runtime.cache.CompileCache` under
:func:`~repro.runtime.cache.tune_eval_key` — revisits are free, which is
what lets a few hundred visited candidates cost only tens of distinct
compiles.  Configurations the certifier rejects (:class:`~repro.errors.
OptError`) are recorded as infeasible and never become the winner.

The winner is then **re-executed bit-exactly**: compiled with
certification forced on and run functionally against the subject's
golden outputs.  A winner that fails either gate raises — the tuner
never silently hands back an uncertified or wrong configuration.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

import numpy as np

from repro.errors import OptError, ReproError
from repro.opt.report import ProgramStats
from repro.runtime.cache import CompileCache, tune_eval_key, tune_record_key
from repro.runtime.fleet import DeviceTopology
from repro.runtime.schedule import build_schedule
from repro.tune.cost import CandidateCost
from repro.tune.records import TuningRecord
from repro.tune.space import DEFAULT_CONFIG, TuneConfig, enumerate_pass_configs, neighbours
from repro.tune.subjects import TuneSubject

__all__ = ["TuneResult", "tune"]


@dataclass
class TuneResult:
    """Everything one :func:`tune` call established."""

    subject: TuneSubject
    record: TuningRecord
    default_cost: CandidateCost
    winner: TuneConfig
    winner_cost: CandidateCost
    #: candidates visited, memoised revisits included
    candidates: int
    #: distinct cost evaluations computed
    evaluations: int
    #: configs the certifier rejected
    rejected: int
    #: (visited-count, best-so-far makespan) trace for reporting
    trace: list[tuple[int, float]] = field(default_factory=list)
    #: winner re-executed bit-exactly with certification on
    validated: bool = False

    @property
    def improved(self) -> bool:
        return self.winner_cost < self.default_cost

    def as_dict(self) -> dict:
        return {
            "app": self.subject.app,
            "route": self.subject.route,
            "size": self.subject.size_name,
            "default": {
                "config": DEFAULT_CONFIG.as_dict(),
                "cost": self.default_cost.as_dict(),
            },
            "winner": {
                "config": self.winner.as_dict(),
                "cost": self.winner_cost.as_dict(),
                "describe": self.winner.describe(),
            },
            "candidates": self.candidates,
            "evaluations": self.evaluations,
            "rejected": self.rejected,
            "improved": self.improved,
            "validated": self.validated,
            "record_content": self.record.content,
        }


class _Evaluator:
    """Prices configurations; memoises through the compile cache."""

    def __init__(
        self,
        subject: TuneSubject,
        cache: CompileCache,
        executor,
        frames: int,
        devices: int,
    ):
        self.subject = subject
        self.cache = cache
        self.executor = executor
        self.frames = frames
        self.devices = devices
        self.topology = DeviceTopology.build(devices)
        self.candidates = 0
        self.evaluations = 0
        self.rejected = 0

    def cost_of(self, config: TuneConfig) -> CandidateCost | None:
        """Modelled cost, or ``None`` when the certifier rejects."""
        self.candidates += 1
        key = tune_eval_key(
            self.subject.app, self.subject.route, self.subject.size_token,
            (config, self.frames, self.devices),
        )
        if key in self.cache:
            return self.cache.peek(key)
        self.evaluations += 1

        def build():
            try:
                program = self.subject.compile(self.cache, config)
            except OptError:
                return None
            stats = ProgramStats.of(program)
            runs = self.frames * self.subject.instances_per_frame
            schedule = build_schedule(
                program,
                self.executor,
                runs=runs,
                depth=config.depth,
                topology=self.topology,
                placement=config.placement,
                frame_batch=self.subject.instances_per_frame,
            )
            return CandidateCost(
                makespan_us=schedule.makespan_us,
                transferred_bytes=stats.transferred_bytes,
                launches=stats.launches,
            )

        cost = self.cache.get_or_compile(key, build)
        if cost is None:
            self.rejected += 1
        return cost


def _validate_winner(
    subject: TuneSubject, cache: CompileCache, config: TuneConfig
) -> None:
    """Re-run the winner bit-exactly with certification forced on."""
    from repro.gpu import GTX480_CALIBRATED, CostModel, GPUExecutor

    certified = config
    if config.opt is not None and not config.opt.certify:
        certified = replace(config, opt=replace(config.opt, certify=True))
    # certification happens inside compile (OptError propagates here)
    program = subject.compile(cache, certified)
    executor = GPUExecutor(CostModel(GTX480_CALIBRATED))
    for instance in range(subject.instances_per_frame):
        result = executor.run(program, subject.env(instance))
        for name, expected in subject.golden(instance, program).items():
            got = result.outputs.get(name)
            if got is None or not np.array_equal(got, expected):
                raise ReproError(
                    f"tuned winner of {subject.app}/{subject.route} is not "
                    f"bit-exact on output {name!r} (instance {instance})"
                )


def tune(
    subject: TuneSubject,
    budget: int = 200,
    seed: int = 0,
    frames: int = 4,
    devices: int = 1,
    cache: CompileCache | None = None,
    executor=None,
    validate: bool = True,
) -> TuneResult:
    """Search the legal configuration space of ``subject``.

    ``budget`` bounds the candidates *visited* (memoised revisits count —
    they are the search's steps, even when free).  The default
    configuration is always evaluated first and the winner can never be
    worse than it: the default is in the candidate set, and comparison is
    the lexicographic :class:`~repro.tune.cost.CandidateCost` order.
    """
    if budget < 1:
        raise ReproError("tuning budget must be >= 1")
    cache = CompileCache() if cache is None else cache
    if executor is None:
        from repro.gpu import GTX480_CALIBRATED, CostModel, GPUExecutor

        executor = GPUExecutor(CostModel(GTX480_CALIBRATED))

    ev = _Evaluator(subject, cache, executor, frames, devices)
    rng = random.Random(seed)
    pavings = tuple(subject.pavings)

    best_cost = ev.cost_of(DEFAULT_CONFIG)
    if best_cost is None:
        raise ReproError(
            "the default configuration failed certification — the baseline "
            "must always be evaluable"
        )
    default_cost = best_cost
    best = DEFAULT_CONFIG
    trace: list[tuple[int, float]] = [(ev.candidates, best_cost.makespan_us)]

    # phase 1: exhaustive over the program-shaping knobs
    phase1 = enumerate_pass_configs(DEFAULT_CONFIG)
    for config in phase1:
        if ev.candidates >= budget:
            break
        cost = ev.cost_of(config)
        if cost is not None and cost < best_cost:
            best, best_cost = config, cost
            trace.append((ev.candidates, cost.makespan_us))

    # phase 2: greedy hill-climbing with seeded random restarts over the
    # joint (depth x paving x placement x transfers x opt) space
    def random_start() -> TuneConfig:
        base = phase1[rng.randrange(len(phase1))]
        from repro.tune.space import DEPTH_CHOICES, PLACEMENT_CHOICES

        return replace(
            base,
            depth=rng.choice(DEPTH_CHOICES),
            paving=rng.choice(pavings) if pavings else 1,
            placement=(
                rng.choice(PLACEMENT_CHOICES) if devices > 1 else "round-robin"
            ),
        )

    first_restart = True
    while ev.candidates < budget:
        current = best if first_restart else random_start()
        first_restart = False
        current_cost = ev.cost_of(current)
        while current_cost is None and ev.candidates < budget:
            current = random_start()
            current_cost = ev.cost_of(current)
        if current_cost is None:
            break
        improved = True
        while improved and ev.candidates < budget:
            improved = False
            step_best, step_cost = None, current_cost
            for move in neighbours(current, pavings=pavings, devices=devices):
                if ev.candidates >= budget:
                    break
                cost = ev.cost_of(move)
                if cost is not None and cost < step_cost:
                    step_best, step_cost = move, cost
            if step_best is not None:
                current, current_cost = step_best, step_cost
                improved = True
                if current_cost < best_cost:
                    best, best_cost = current, current_cost
                    trace.append((ev.candidates, current_cost.makespan_us))

    if validate:
        _validate_winner(subject, cache, best)

    record = TuningRecord(
        app=subject.app,
        route=subject.route,
        size=subject.size_name,
        config=best,
        cost=best_cost,
        default_cost=default_cost,
        seed=seed,
        candidates=ev.candidates,
        evaluations=ev.evaluations,
    )
    cache.store(
        tune_record_key(subject.app, subject.route, subject.size_token), record
    )

    return TuneResult(
        subject=subject,
        record=record,
        default_cost=default_cost,
        winner=best,
        winner_cost=best_cost,
        candidates=ev.candidates,
        evaluations=ev.evaluations,
        rejected=ev.rejected,
        trace=trace,
        validated=validate,
    )
