"""One route of one workload, in a fresh process.

``run.py`` starts this file as ``python3 worker.py '<json config>'`` with
``src`` on ``PYTHONPATH``.  The worker

1. sets up cold: imports ``repro``, compiles the route's job through a
   :class:`~repro.runtime.CompileCache`, probes every distinct kernel and
   checks the first frame bit-exact (inputs and goldens are prewarmed on
   the side and their time is reported apart, so it can be subtracted);
2. prints a hello line, then runs one rep of one of the workload's two
   phases per command line: the *ops* phase (timing-path work) or the
   *checked* phase (functional execution checked bit-exact);
3. prints its totals as one JSON line and exits.

Traced workers (``"trace": true``) compile through :class:`StagedCache`,
which splits a miss into its public stages under layer spans, run the
reps ``run.py`` marks as traced inside the tracer, and write a Chrome
trace.
"""

from __future__ import annotations

import contextlib
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, replace
from typing import Callable

from repro.apps.downscaler import CIF, HD, GaspardDownscalerJob, SacDownscalerJob
from repro.errors import ReproError
from repro.gpu import GTX480_CALIBRATED, CostModel, GPUExecutor
from repro.ir.program import LaunchKernel
from repro.obs import Tracer, chrome_trace, current_tracer, validate_chrome_trace
from repro.obs import write_chrome_trace
from repro.runtime import CompileCache, FramePipeline, canonical, gaspard_key, sac_key

import layers
from host import PERIOD_S, HostGate, SpeedMeter

SIZES = {"hd": HD, "cif": CIF}
#: warm job.compile(cache) calls timed one by one in a traced run
LOOKUPS = 20


def now() -> float:
    """The clock run.py also reads (system-wide monotonic)."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def bench_span(layer: str, **attrs):
    """A span of the benchmark's own, named after the layer it times."""
    return current_tracer().span(layer, category="bench", **attrs)


def _offset_job(base):
    class Seeded(base):
        """The route's job reading frames ``offset`` onwards (the seed)."""

        offset = 0

        def env(self, frame, instance):
            return super().env(frame + self.offset, instance)

        def golden(self, frame, instance, program):
            return super().golden(frame + self.offset, instance, program)

    return Seeded


_JOBS = {"sac": _offset_job(SacDownscalerJob), "gaspard": _offset_job(GaspardDownscalerJob)}


def make_job(route: str, size, seed: int, checked_frames: int, **knobs):
    # the golden LRU holds (frame, channel) pairs, so it must hold three
    # per checked frame or the oracle reruns inside the timed region
    job = _JOBS[route](size, frame_cache=max(8, 3 * checked_frames), **knobs)
    job.offset = seed
    return job


class StagedCache(CompileCache):
    """A compile cache whose misses run stage by stage under layer spans.

    Keys and artefacts are those of :class:`CompileCache`; only the build
    on a miss is split into the public calls the route is made of, so the
    traced run can charge each to its layer.  The traced worker checks
    that the staged program serialises like the plainly cached one.
    """

    def compile_sac(self, source, entry, options=None):
        from repro.ir.validate import validate_program
        from repro.sac import check_program, parse, typecheck_program
        from repro.sac.backend import CompileOptions, compile_function
        from repro.sac.opt import optimize_program

        options = CompileOptions() if options is None else options

        def build():
            with bench_span("sac.parse"):
                program = parse(source)
            if options.check:
                with bench_span("sac.check"):
                    check_program(program)
                    typecheck_program(program)
            if options.optimize:
                with bench_span("sac.opt"):
                    program = optimize_program(program, entry=entry, flags=options.opt_flags)
            with bench_span("sac.backend") as span:
                cf = compile_function(
                    program, entry, replace(options, optimize=False, check=False)
                )
                span.set(kernels=cf.kernel_count, host_steps=cf.host_step_count)
            if options.target == "cuda":
                with bench_span("ir.validate"):
                    validate_program(cf.program)
            return cf

        return self.get_or_compile(sac_key(source, entry, options), build)

    def compile_gaspard(self, model, allocation, lint=False, opt=None, transfers="boundary"):
        from repro.arrayol.transform import GaspardContext, standard_chain
        from repro.ir.validate import validate_program

        chain = standard_chain(lint=lint, opt=opt, transfers=transfers)
        key = gaspard_key(
            model, allocation, (p.name for p in chain.passes), lint,
            opt=opt, transfers=transfers,
        )

        def build():
            ctx = GaspardContext(model=model, allocation=allocation)
            for p in chain.passes:
                with bench_span(f"arrayol.transform.{p.name}"):
                    p.apply(ctx)
            with bench_span("ir.validate"):
                validate_program(ctx.program)
            return ctx, chain

        return self.get_or_compile(key, build)


@dataclass
class Phase:
    """A timed phase: ``run()`` does one rep of ``ops`` operations."""

    name: str
    #: the layer whose span wraps a traced rep
    layer: str
    ops: int
    #: returns (failed operations, modelled values of the rep)
    run: Callable[[], tuple[int, dict]]


class Worker:
    def __init__(self, cfg: dict):
        self.cfg = cfg
        self.route = cfg["route"]
        self.size = SIZES[cfg["size"]]
        self.seed = cfg["seed"]
        self.p = cfg["params"]
        self.trace = cfg["trace"]
        self.tracer = Tracer() if self.trace else None
        # a traced run reports no times of its own: keep probes out of its spans
        self.meter = SpeedMeter(period_s=0 if self.trace else PERIOD_S)
        self.modelled: list[tuple[str, float]] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.bench = {"bench.inputs": 0.0, "bench.oracle": 0.0}
        #: TuneResult counters summed over the traced searches
        self.tune_counts: dict[str, int] = {}
        #: (job, program compiled through this worker's caches) pairs the
        #: traced run's guard recompiles plainly
        self.compiled: list = []

    # -- helpers -------------------------------------------------------------

    def new_cache(self) -> CompileCache:
        return StagedCache() if self.trace else CompileCache()

    def key(self, *parts) -> str:
        return "/".join([self.cfg["workload"], self.route, self.cfg["size"], *map(str, parts)])

    def prewarm(self, job, program, frames: int) -> None:
        """Synthesise the inputs and goldens of ``frames`` frames, timed apart."""
        runs = [(f, i) for f in range(frames) for i in range(job.instances_per_frame)]
        for layer, fetch in (
            ("bench.inputs", job.env),
            ("bench.oracle", lambda f, i: job.golden(f, i, program)),
        ):
            t0 = now()
            with bench_span(layer):
                for f, i in runs:
                    fetch(f, i)
            self.bench[layer] += now() - t0

    # -- cold set-up ---------------------------------------------------------

    def setup(self) -> float:
        """Compile, probe and check the first frame; returns when it is done.

        The speed sampled here also scales the interpreter's start and the
        imports before it, which run.py times with the rest.
        """
        self.meter.start()
        workload = self.cfg["workload"]
        if workload == "serve-cif":
            import repro.serve  # noqa: F401 - the workload's own layer loads cold
        elif workload == "tune-cif":
            import repro.tune  # noqa: F401
        self.job = make_job(self.route, self.size, self.seed, self.p["checked_frames"])
        self.cache = self.new_cache()
        if self.trace and self.route == "gaspard":
            from repro.apps.downscaler.arrayol_model import (
                downscaler_allocation,
                downscaler_model,
            )

            with bench_span("arrayol.model"):
                downscaler_model(self.size)
                downscaler_allocation()
        with bench_span("runtime.cache"):
            self.program = self.job.compile(self.cache)
        self.compiled.append((self.job, self.program))
        self.prewarm(self.job, self.program, 1)
        executor = GPUExecutor(CostModel(GTX480_CALIBRATED))
        kernels = {op.kernel for op in self.program.ops if isinstance(op, LaunchKernel)}
        for kernel in kernels:
            with bench_span("gpu.probe"):
                executor.kernel_cost_inputs(kernel)
        self.attempted += 1
        try:
            with bench_span("runtime.pipeline"):
                report = FramePipeline(cache=self.cache, validate="first").run(self.job, 1)
            self.failed += report.validated_instances != 1
        except ReproError as err:
            self.failed += 1
            self.errors.append(f"first frame: {err}")
        self.meter.stop()
        return now()

    def guard(self) -> bool:
        """Staged compiles must produce the programs the plain cache does."""
        return all(
            canonical(job.compile(CompileCache())) == canonical(program)
            for job, program in self.compiled
        )

    # -- phases --------------------------------------------------------------

    def phases(self) -> tuple[Phase, Phase]:
        return getattr(self, "phases_" + self.cfg["workload"].replace("-", "_"))()

    def phases_paper_hd(self):
        frames = self.p["replay_frames"]
        replay = FramePipeline(cache=self.cache, validate="first")
        validated = FramePipeline(cache=self.cache, validate="all")
        ipf = self.job.instances_per_frame

        def run_replay():
            rep = replay.run(self.job, frames)
            return 0, {
                self.key(f"replay{frames}", "overlapped_us"): rep.overlapped_us,
                self.key(f"replay{frames}", "serial_us"): rep.serial_us,
            }

        def run_validated():
            # one frame per checked rep, so a slot gets several reps: the
            # first, whose inputs and goldens set-up prewarmed; the replay
            # evicts none of them, as it validates only that frame
            rep = validated.run(self.job, 1)
            return 1 - rep.validated_instances // ipf, {
                self.key("validated1", "overlapped_us"): rep.overlapped_us,
            }

        return (
            Phase("replay", "runtime.pipeline", frames, run_replay),
            Phase("validated", "runtime.pipeline", 1, run_validated),
        )

    def phases_serve_cif(self):
        from repro.serve import ServeBroker, ServeConfig, run_open_loop

        rate, tenants = self.p["rate_rps"], self.p["tenants"]
        self.prewarm(self.job, self.program, self.p["checked_frames"])

        def serve(requests: int, execute: str):
            def run():
                broker = ServeBroker(self.job, ServeConfig(execute=execute), cache=self.cache)
                responses, report = run_open_loop(
                    broker, rate_rps=rate, requests=requests, tenants=tenants,
                    jitter_seed=self.p["arrival_seed"],
                )
                good = sum(r.ok and (execute == "none" or r.validated) for r in responses)
                tag = f"{'serve' if execute == 'none' else 'burst'}{requests}@{rate}"
                return requests - good, {
                    self.key(tag, "p50_us"): report.latency_p50_us,
                    self.key(tag, "p99_us"): report.latency_p99_us,
                    self.key(tag, "goodput_rps"): report.goodput_rps,
                }

            return run

        return (
            Phase("serve", "serve.broker", self.p["requests"], serve(self.p["requests"], "none")),
            Phase("burst", "serve.broker", self.p["checked_frames"],
                  serve(self.p["checked_frames"], "all")),
        )

    def phases_tune_cif(self):
        from repro.tune import DownscalerSubject, tune

        budget, frames, checked = self.p["budget"], self.p["frames"], self.p["checked_frames"]
        subject = DownscalerSubject(self.route, size=self.size)
        tag = f"tune{budget}x{frames}"
        self.tune_counts = dict.fromkeys(("candidates", "evaluations", "rejected"), 0)

        def run_tune():
            result = tune(subject, budget=budget, seed=self.seed, frames=frames,
                          cache=self.new_cache(), validate=False)
            self.winner = result.winner
            if current_tracer().enabled:
                for k in self.tune_counts:
                    self.tune_counts[k] += getattr(result, k)
            ok = result.candidates == budget and result.winner_cost <= result.default_cost
            modelled = {}
            for side, cost in (("default", result.default_cost), ("winner", result.winner_cost)):
                for field, value in cost.as_dict().items():
                    modelled[self.key(tag, f"{side}_{field}")] = value
            return (0 if ok else budget), modelled

        # the first search in a process also probes the kernels its
        # candidates create; it runs untimed so reps time the search alone
        run_tune()
        winner = self.winner
        opt = winner.opt if winner.opt is None else replace(winner.opt, certify=True)
        wjob = make_job(self.route, self.size, self.seed, checked,
                        opt=opt, transfers=winner.transfers, paving=winner.paving)
        wcache = self.new_cache()
        wprogram = wjob.compile(wcache)
        self.compiled.append((wjob, wprogram))
        self.prewarm(wjob, wprogram, checked)
        check = FramePipeline(cache=wcache, validate="all", depth=winner.depth)

        def run_winner():
            rep = check.run(wjob, checked)
            bad = checked - rep.validated_instances // wjob.instances_per_frame
            return bad, {self.key(tag, f"winner{checked}", "overlapped_us"): rep.overlapped_us}

        return (
            Phase("tune", "tune.search", budget, run_tune),
            Phase("winner", "runtime.pipeline", checked, run_winner),
        )

    # -- measurement ---------------------------------------------------------

    def rep(self, phase: Phase, traced: bool) -> dict:
        self.attempted += phase.ops
        self.meter.start()
        t0 = now()
        try:
            if traced:
                with self.tracer, bench_span(phase.layer, phase=phase.name):
                    bad, modelled = phase.run()
            else:
                bad, modelled = phase.run()
        except ReproError as err:
            bad, modelled = phase.ops, {}
            self.errors.append(f"{phase.name}: {err}")
        finally:
            self.meter.stop()
        wall = now() - t0
        self.failed += bad
        self.modelled.extend(modelled.items())
        return {"wall_s": wall, "ref_s": self.meter.reference_s(wall), "ops": phase.ops,
                "failed": bad, "traced": traced}

    def timed_lookups(self) -> None:
        with self.tracer:
            for _ in range(LOOKUPS):
                with bench_span("runtime.cache", call="lookup"):
                    self.job.compile(self.cache)

    def trace_report(self) -> dict:
        spans = self.tracer.spans
        lookups = [
            (s.end_us - s.start_us) / 1e6 for s in spans
            if s.name == "runtime.cache" and s.attrs.get("call") == "lookup"
        ]
        doc = chrome_trace(tracer=self.tracer, name=f"{self.cfg['workload']}/{self.route}")
        problems = validate_chrome_trace(doc)
        if problems:
            self.failed += 1
            self.errors.append(f"chrome trace invalid: {problems[:3]}")
        else:
            write_chrome_trace(self.cfg["trace_path"], doc)
        return {
            "layers": layers.self_times(spans),
            "counts": layers.span_counts(spans) | self.tune_counts,
            "lookup_s": statistics.median(lookups),
            "wall_s": layers.root_wall_s(spans),
            "file": self.cfg["trace_path"],
        }

    def final(self) -> dict:
        """Everything run.py adds up once the worker's reps are done."""
        out = {}
        if self.trace:
            self.attempted += 1
            if not self.guard():
                self.failed += 1
                self.errors.append("staged compile differs from the cached compile")
            self.timed_lookups()
            out["trace"] = self.trace_report()
        return out | {
            "modelled": self.modelled,
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }


def emit(message: dict) -> None:
    print(json.dumps(message), flush=True)


def main(cfg: dict) -> None:
    """Set up, say hello, then run one rep per command line on stdin.

    A command is ``{"phase": 0 | 1, "traced": bool}``; end of input (or
    ``{"finish": true}``) makes the worker print its totals and exit.
    A set-up-only sample prints hello and totals as one line and exits.
    """
    w = Worker(cfg)
    with w.tracer if w.trace else contextlib.nullcontext(), bench_span("bench.setup"):
        t_ready = w.setup()
    hello = {"t_ready": t_ready, "bench_s": sum(w.bench.values()),
             "probes_s": w.meter.inside_s, "scale": w.meter.scale()}
    if cfg["setup_only"]:
        emit(hello | w.final())
        return
    phases = w.phases()
    emit(hello)
    gate = HostGate()
    for line in sys.stdin:
        command = json.loads(line)
        if command.get("finish"):
            break
        gate.wait()
        emit(w.rep(phases[command["phase"]], command["traced"]))
    emit(w.final())


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
