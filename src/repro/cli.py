"""Command-line driver: ``python -m repro`` / ``repro``.

Subcommands::

    repro compile-sac FILE --entry F [--target cuda|seq] [--emit]
    repro gaspard [--size hd|cif] [--emit]
    repro experiment {table1,table2,figure9,figure12,claims,overlap,all}
                     [--frames N] [--size hd|cif] [--json]
    repro downscale [--size hd|cif] [--variant nongeneric|generic]
                    [--route sac|gaspard]
    repro pipeline [--route sac|gaspard|both] [--size hd|cif] [--frames N]
                   [--variant nongeneric|generic] [--depth D] [--serialize]
                   [--no-validate] [--lint] [--opt] [--trace [FILE]] [--json]
    repro trace [--route sac|gaspard|both] [--size hd|cif] [--frames N]
                [--variant nongeneric|generic] [--depth D] [--serialize]
                [--opt] [--out FILE]
    repro metrics [--route sac|gaspard|both] [--size hd|cif] [--frames N]
                  [--format text|json]
    repro lint [--route sac|gaspard|all] [--app downscaler|convolution]
               [--size hd|cif] [--format text|json] [--baseline FILE]
               [--assert-clean] [--explain CODE]
               [--file SAC_FILE --entry F]
    repro opt [--route sac|gaspard|both] [--size hd|cif]
              [--variant nongeneric|generic]
              [--transfers boundary|per_kernel]
              [--no-dce] [--no-transfer-elim] [--no-fusion]
              [--no-sibling-fusion] [--no-pooling]
              [--no-certify] [--json]
    repro serve [--route sac|gaspard|both] [--size hd|cif] [--depth D]
                [--opt] [--max-batch B] [--slo-ms S] [--requests N]
                [--rate RPS] [--mode open|closed] [--clients C]
                [--tenants T] [--deadline-ms D] [--queue-budget Q]
                [--no-execute] [--json]

Exit codes (all subcommands):

* ``0`` — success; for ``lint``, no error-severity findings;
* ``1`` — ``lint`` found at least one error-severity diagnostic;
* ``2`` — usage error (argparse), out-of-range numbers included, such
  as ``--frames -1``, ``--devices 0`` or ``--rate 0``;
* ``3`` — a repro error (parse/compile/validation failure).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

__all__ = ["build_parser", "main"]

#: documented exit codes
EXIT_OK = 0
EXIT_LINT_ERRORS = 1
EXIT_USAGE = 2
EXIT_REPRO_ERROR = 3


def _size(name: str):
    from repro.apps.downscaler.config import CIF, HD

    return {"hd": HD, "cif": CIF}[name]


def _routes(route: str) -> tuple[str, ...]:
    """The routes one ``--route`` choice names, in serving order."""
    return ("sac", "gaspard") if route in ("both", "all") else (route,)


def _variant(name: str) -> str:
    """The SaC source variant one ``--variant`` choice names."""
    from repro.apps.downscaler.sac_sources import GENERIC, NONGENERIC

    return NONGENERIC if name == "nongeneric" else GENERIC


def _depth(depth: int) -> int | None:
    """``--depth 0`` means one buffer slot per run (unbounded)."""
    return None if depth == 0 else depth


def _opt(enabled: bool):
    """The default :class:`~repro.opt.OptOptions` when ``enabled``."""
    if not enabled:
        return None
    from repro.opt import OptOptions

    return OptOptions()


def _print_json(doc: dict) -> None:
    print(json.dumps(doc, indent=2))


def _parse_file(path: str):
    """Parse one SaC source file, locating diagnostics in it."""
    from repro.sac.parser import parse

    with open(path, encoding="utf-8") as fh:
        return parse(fh.read(), filename=path)


def _cmd_compile_sac(args) -> int:
    from repro.sac.backend import CompileOptions, compile_function

    cf = compile_function(
        _parse_file(args.file), args.entry, CompileOptions(target=args.target)
    )
    print(f"compiled {args.entry!r} for target {args.target}")
    print(f"  kernels: {cf.kernel_count}")
    print(f"  host steps: {cf.host_step_count}")
    for name, reason in cf.rejected:
        print(f"  kept on host: {name}: {reason}")
    for k in cf.program.kernels:
        print(
            f"  kernel {k.name}: space {k.space.lower}..{k.space.upper} "
            f"step {k.space.step} ({k.provenance})"
        )
    if args.emit and args.target == "cuda":
        print()
        print(cf.program.source("kernels.cu"))
    return EXIT_OK


def _cmd_gaspard(args) -> int:
    from repro.apps.downscaler.arrayol_model import (
        downscaler_allocation,
        downscaler_model,
    )
    from repro.runtime.cache import CompileCache

    ctx, chain = CompileCache().compile_gaspard(
        downscaler_model(_size(args.size)), downscaler_allocation()
    )
    print("transformation chain trace:")
    for line in chain.trace:
        print("  " + line)
    print(f"kernels: {[k.name for k in ctx.program.kernels]}")
    if args.emit:
        print()
        print(ctx.program.source("kernels.cl"))
    return EXIT_OK


def _table_as_dict(t) -> dict:
    return {
        "title": t.title,
        "total_us": round(t.total_us, 3),
        "rows": [
            {
                "operation": r.operation,
                "calls": r.calls,
                "gpu_time_us": round(r.gpu_time_us, 3),
                "gpu_time_pct": round(r.gpu_time_pct, 3),
            }
            for r in t.rows
        ],
    }


def _overlap_as_dict(variant: str, result, frames: int) -> dict:
    return {
        "variant": variant,
        "frames": frames,
        "serial_us": round(result.serial_us, 3),
        "overlapped_us": round(result.makespan_us, 3),
        "speedup": round(result.speedup, 4),
        "engine_busy_us": {
            e: round(result.engine_busy_us(e), 3) for e in ("h2d", "compute", "d2h")
        },
    }


def _cmd_experiment(args) -> int:
    from repro.apps.downscaler import DownscalerLab
    from repro.report import (
        PAPER_TABLE1,
        PAPER_TABLE2,
        render_comparison,
        render_figure9,
        render_figure12,
        render_gantt,
        render_operation_table,
    )

    lab = DownscalerLab(size=_size(args.size), frames=args.frames)
    which = args.which
    doc: dict = {"size": args.size, "frames": args.frames}

    for key, table, paper in (
        ("table1", lab.table1, PAPER_TABLE1), ("table2", lab.table2, PAPER_TABLE2),
    ):
        if which in (key, "all"):
            t = table()
            if args.json:
                doc[key] = _table_as_dict(t)
            else:
                print(render_operation_table(t))
                print()
                print(render_comparison(t, paper, frames=args.frames))
                print()
    if which in ("figure9", "all"):
        rows = lab.figure9()
        if args.json:
            doc["figure9"] = [
                {
                    "configuration": r.configuration,
                    "hfilter_s": round(r.hfilter_s, 6),
                    "vfilter_s": round(r.vfilter_s, 6),
                }
                for r in rows
            ]
        else:
            print(render_figure9(rows))
    if which in ("figure12", "all"):
        series = lab.figure12()
        if args.json:
            doc["figure12"] = {
                "operations": list(series.operations),
                "sac_s": [round(v, 6) for v in series.sac_s],
                "gaspard_s": [round(v, 6) for v in series.gaspard_s],
            }
        else:
            print(render_figure12(series))
    if which in ("claims", "all"):
        claims = lab.headline_claims()
        if args.json:
            doc["claims"] = {k: round(v, 4) for k, v in claims.items()}
        else:
            print("headline claims (paper: 4.5x / 3x generic slowdown, up to 11x")
            print("GPU speedup, ~50% transfer share, routes within 85%):")
            for k, v in claims.items():
                print(f"  {k:34s} {v:8.2f}")
    if which in ("overlap", "all"):
        from repro.apps.downscaler import GENERIC, NONGENERIC, downscaler_job
        from repro.gpu import CostModel, GPUExecutor, GTX480_CALIBRATED
        from repro.runtime.schedule import build_schedule

        # the unbounded-buffering schedules of both SaC variants
        executor = GPUExecutor(CostModel(GTX480_CALIBRATED))
        results = [
            (variant, build_schedule(
                downscaler_job("sac", lab.size, variant).compile(lab.cache),
                executor, runs=args.frames, depth=None,
            ))
            for variant in (NONGENERIC, GENERIC)
        ]
        if args.json:
            doc["overlap"] = [
                _overlap_as_dict(v, r, args.frames) for v, r in results
            ]
        else:
            for variant, result in results:
                print(f"=== {variant} variant, {args.frames} frames ===")
                print(render_gantt(result))
                print()
    if args.json:
        _print_json(doc)
    return EXIT_OK


def _cmd_downscale(args) -> int:
    from repro.apps.downscaler import DownscalerLab, downscaler_job

    size = _size(args.size)
    job = downscaler_job(args.route, size=size, variant=_variant(args.variant))
    _program, res = DownscalerLab(size=size, frames=1).first_frame(job)
    print(f"program: {res.program}")
    print(f"  kernels:   {res.kernel_us:10.1f} us")
    print(f"  h2d:       {res.h2d_us:10.1f} us")
    print(f"  d2h:       {res.d2h_us:10.1f} us")
    print(f"  host:      {res.host_us:10.1f} us")
    print(f"  total:     {res.total_us:10.1f} us")
    for name, arr in res.outputs.items():
        arr = np.asarray(arr)
        print(f"  output {name}: shape {arr.shape} checksum {int(arr.sum())}")
    return EXIT_OK


def _render_pipeline_report(r) -> str:
    fleet = getattr(r, "devices", 1) > 1
    if fleet:
        # namespaced engines: one h2d/compute/d2h triple per device
        occ = " | ".join(
            f"{name} " + "/".join(
                f"{100 * r.engine_occupancy.get(f'{name}:{e}', 0.0):.0f}%"
                for e in ("h2d", "compute", "d2h")
            )
            for name in sorted(r.per_device)
        )
    else:
        occ = " | ".join(
            f"{e} {100 * r.engine_occupancy.get(e, 0.0):.1f}%"
            for e in ("h2d", "compute", "d2h")
        )
    lines = [
        f"=== pipeline {r.job}: {r.frames} frames x "
        f"{r.instances // max(1, r.frames)} run(s) ({r.program or 'nothing compiled'}) ===",
        f"  compile:    {r.cache.misses} miss(es), {r.cache.hits} hit(s) "
        f"(hit rate {100 * r.cache.hit_rate:.1f}%)",
        f"  serial:     {r.serial_us:12.1f} us",
        f"  overlapped: {r.overlapped_us:12.1f} us  (speedup {r.speedup:.2f}x, "
        f"depth {r.depth}{', serialized' if r.serialize else ''})",
        f"  frames/s:   {r.frames_per_second:12.1f}",
        f"  latency:    p50 {r.latency_p50_us:.1f} us, p95 {r.latency_p95_us:.1f} us",
        f"  engines:    {occ}  (busy/makespan)",
        f"  transfers:  {100 * r.transfer_share_serial:.1f}% of serial time "
        f"(paper claims ~50%)",
        f"  validated:  {r.validated_instances} run(s) bit-exact vs NumPy reference",
    ]
    if fleet:
        shares = ", ".join(
            f"{name} {stats['frames']}f"
            for name, stats in sorted(r.per_device.items())
        )
        mig = (
            f", {r.migrations} migration(s) ({r.migration_us:.1f} us host-staged)"
            if r.migrations else ""
        )
        lines.insert(
            1,
            f"  fleet:      {r.devices} device(s), {r.placement} placement: "
            f"{shares}{mig}",
        )
    return "\n".join(lines)


def _collect_run(reg, pipe, report):
    """Add one served route to ``reg``: the report's aggregates plus the
    pipeline executor's allocator state, read right after the route's run."""
    from repro.obs import collect_memory, collect_pipeline_report

    collect_pipeline_report(reg, report, route=report.job)
    collect_memory(reg, pipe.executor.memory, route=report.job)
    return reg


def _race_check(entry: dict, job, report, pipe, quiet: bool) -> int:
    """``pipeline --lint`` on one served report: races within one run of
    its program (the rule ``repro lint`` applies) and ordering violations
    of its schedule, across runs, recycled slots and fleet devices.  Adds
    them to ``entry``; returns how many there are."""
    from repro.analysis.hazards import find_hazards
    from repro.runtime import schedule_violations

    served = report.schedule is not None  # zero frames serve nothing
    races = find_hazards(job.compile(pipe.cache)) if served else []
    violations = schedule_violations(report.schedule) if served else []
    entry["hazards"] = {
        "runs": report.instances,
        "unexpected": [d.message for d in races],
        "schedule_violations": violations,
    }
    if not quiet:
        print(
            f"  hazards:    {'FINDINGS' if races or violations else 'clean'} "
            f"over {report.instances} run(s) ({len(races)} race(s) within a "
            f"run, {len(violations)} schedule violation(s))"
        )
        for d in races:
            print(f"    {d.message}")
        for v in violations:
            print(f"    schedule: {v}")
    return len(races) + len(violations)


def _cmd_pipeline(args) -> int:
    from repro.apps.downscaler.serving import downscaler_job
    from repro.obs import MetricsRegistry, Tracer
    from repro.runtime import FramePipeline

    size = _size(args.size)
    variant = _variant(args.variant)
    routes = _routes(args.route)
    pipe = FramePipeline(
        depth=_depth(args.depth),
        serialize=args.serialize,
        validate="none" if args.no_validate else "first",
        devices=args.devices,
        placement=args.placement,
    )

    doc: dict = {"size": args.size, "frames": args.frames, "routes": []}
    hazard_failures = 0
    for route in routes:
        job = downscaler_job(route, size=size, variant=variant)
        tracer = pipe.tracer = Tracer() if args.trace else None
        report = pipe.run(job, frames=args.frames)
        entry = report.as_dict()
        # each route entry pairs the run report with a metrics-registry
        # snapshot, so one `pipeline --json` feeds both a results consumer
        # and a metrics scraper without a second run
        metrics = _collect_run(MetricsRegistry(), pipe, report).as_dict()
        doc["routes"].append({"report": entry, "metrics": metrics})
        if not args.json:
            print(_render_pipeline_report(report))
        if args.lint:
            hazard_failures += _race_check(entry, job, report, pipe, args.json)
        if args.opt:
            opt_job = downscaler_job(route, size=size, variant=variant, opt=_opt(args.opt))
            opt_report = pipe.run(opt_job, frames=args.frames)
            opt_entry = opt_report.as_dict()
            opt_entry["baseline_job"] = report.job
            # no frames, no rate: a zero-frame run has no speed-up to report
            opt_entry["fps_speedup_vs_baseline"] = (
                round(opt_report.frames_per_second / report.frames_per_second, 4)
                if report.frames_per_second else None
            )
            metrics = _collect_run(MetricsRegistry(), pipe, opt_report).as_dict()
            doc["routes"].append({"report": opt_entry, "metrics": metrics})
            if not args.json:
                print(_render_pipeline_report(opt_report))
                speedup = opt_entry["fps_speedup_vs_baseline"]
                print(
                    f"  --opt:      {report.frames_per_second:.1f} -> "
                    f"{opt_report.frames_per_second:.1f} frames/s "
                    f"({'n/a' if speedup is None else f'{speedup:.2f}x'}), "
                    f"p95 latency {report.latency_p95_us:.1f} -> "
                    f"{opt_report.latency_p95_us:.1f} us"
                )
            if args.lint:
                hazard_failures += _race_check(
                    opt_entry, opt_job, opt_report, pipe, args.json
                )
        if args.trace:
            path = _trace_path(args.trace, route, multi=len(routes) > 1)
            trace_doc, _busy = _write_trace(path, job, report, tracer, args)
            entry["trace"] = path
            if not args.json:
                print(
                    f"  trace:      wrote {path} "
                    f"({len(trace_doc['traceEvents'])} events)"
                )
        if not args.json:
            print()
    if args.json:
        _print_json(doc)
    return EXIT_LINT_ERRORS if hazard_failures else EXIT_OK


def _trace_path(out: str, route: str, multi: bool) -> str:
    """Insert the route into the trace filename when serving both routes."""
    if not multi:
        return out
    stem, dot, ext = out.rpartition(".")
    return f"{stem}.{route}.{ext}" if dot else f"{out}.{route}"


def _write_trace(path: str, job, report, tracer, args) -> tuple[dict, dict]:
    """Write one served route's Chrome trace to ``path``; returns the trace
    and its per-engine busy times, which must equal the report's (else
    :class:`~repro.errors.ReproError`: the artefact must agree with the
    report it visualises)."""
    from repro.errors import ReproError
    from repro.obs import chrome_trace, engine_busy_from_trace, write_chrome_trace

    doc = chrome_trace(
        schedule=report.schedule,
        tracer=tracer,
        frame_batch=job.instances_per_frame,
        name=f"{job.name} ({args.size}, {args.frames} frames)",
    )
    busy = engine_busy_from_trace(doc)
    for engine, want in report.engine_busy_us.items():
        got = busy.get(engine, 0.0)
        if abs(got - want) > 1e-6 * max(1.0, abs(want)):
            raise ReproError(
                f"trace export of {job.name}: engine {engine} busy "
                f"{got:.3f} us disagrees with the pipeline report "
                f"({want:.3f} us)"
            )
    write_chrome_trace(path, doc)
    return doc, busy


def _cmd_trace(args) -> int:
    """Serve a traced pipeline run; write a Chrome/Perfetto trace per route."""
    from repro.apps.downscaler.serving import downscaler_job
    from repro.obs import Tracer
    from repro.report import render_span_tree
    from repro.runtime import FramePipeline

    size = _size(args.size)
    routes = _routes(args.route)
    for route in routes:
        tracer = Tracer()
        pipe = FramePipeline(
            depth=_depth(args.depth), serialize=args.serialize, tracer=tracer
        )
        job = downscaler_job(
            route, size=size, variant=_variant(args.variant), opt=_opt(args.opt)
        )
        report = pipe.run(job, frames=args.frames)
        path = _trace_path(args.out, route, multi=len(routes) > 1)
        doc, busy = _write_trace(path, job, report, tracer, args)
        print(f"=== trace {job.name} ({args.size}, {args.frames} frames) ===")
        print(
            f"  wrote {path}: {len(doc['traceEvents'])} events, "
            f"modelled makespan {report.overlapped_us:.1f} us"
        )
        busy_line = " | ".join(
            f"{e} {busy.get(e, 0.0):.1f} us"
            for e in ("h2d", "compute", "d2h", "host")
            if e in busy
        )
        print(f"  engine busy (trace == report): {busy_line}")
        print("  open in https://ui.perfetto.dev or chrome://tracing")
        print()
        print(render_span_tree(tracer))
        print()
    return EXIT_OK


def _cmd_metrics(args) -> int:
    """Serve a short run per route; export the metrics registry."""
    from repro.apps.downscaler.serving import downscaler_job
    from repro.obs import MetricsRegistry
    from repro.runtime import FramePipeline

    reg = MetricsRegistry()
    for route in _routes(args.route):
        pipe = FramePipeline()
        report = pipe.run(downscaler_job(route, size=_size(args.size)), frames=args.frames)
        _collect_run(reg, pipe, report)
    if args.format == "json":
        _print_json(reg.as_dict())
    else:
        print(reg.render_text(), end="")
    return EXIT_OK


def _cmd_serve(args) -> int:
    """Drive the async serving tier over one or both routes."""
    from repro.apps.downscaler.config import CIF
    from repro.apps.downscaler.serving import downscaler_job
    from repro.obs import MetricsRegistry, collect_serving_report
    from repro.serve import (
        ServeBroker,
        ServeConfig,
        run_closed_loop,
        run_open_loop,
    )

    size = _size(args.size)
    variant = _variant(args.variant)
    opt = _opt(args.opt)
    deadline_us = None if args.deadline_ms is None else args.deadline_ms * 1000.0
    doc: dict = {
        "size": args.size,
        "mode": args.mode,
        "requests": args.requests,
        "routes": [],
    }
    for route in _routes(args.route):
        job = downscaler_job(route, size=size, variant=variant, opt=opt)
        # graceful degradation target: the same route at CIF size (when
        # already serving CIF there is nothing smaller to degrade to)
        degraded_job = None
        if size is not CIF:
            degraded_job = downscaler_job(route, size=CIF, variant=variant, opt=opt)
        config = ServeConfig(
            max_batch=args.max_batch,
            slo_us=args.slo_ms * 1000.0,
            queue_budget=args.queue_budget,
            depth=_depth(args.depth),
            execute="none" if args.no_execute else "all",
            devices=args.devices,
        )
        reg = MetricsRegistry()
        broker = ServeBroker(job, config, degraded_job=degraded_job, registry=reg)
        if args.mode == "closed":
            _responses, report = run_closed_loop(
                broker,
                clients=args.clients,
                requests_per_client=max(1, args.requests // args.clients),
                deadline_us=deadline_us,
            )
        else:
            _responses, report = run_open_loop(
                broker,
                rate_rps=args.rate,
                requests=args.requests,
                tenants=args.tenants,
                deadline_us=deadline_us,
                jitter_seed=args.jitter_seed,
            )
        collect_serving_report(reg, report, route=job.name)
        if args.json:
            doc["routes"].append({
                "report": report.as_dict(),
                "metrics": reg.as_dict(),
            })
        else:
            print(report.render())
            print()
    if args.json:
        _print_json(doc)
    return EXIT_OK


#: ``repro opt``'s pass switches: (OptOptions field, ``--no-`` flag, help)
_OPT_TOGGLES = (
    ("dce", "dce", "disable dead-code elimination"),
    ("transfers", "transfer-elim", "disable redundant-transfer elimination"),
    ("fusion", "fusion", "disable kernel fusion"),
    (
        "sibling_fusion", "sibling-fusion",
        "disable region-oracle fusion of independent sibling launches",
    ),
    ("pooling", "pooling", "disable memory pooling"),
    ("certify", "certify", "skip re-running the hazard/transfer/bounds analyses"),
)


def _cmd_opt(args) -> int:
    """Optimise the compiled downscaler routes; print before/after reports."""
    from repro.apps.downscaler.serving import downscaler_job
    from repro.gpu import CostModel, GPUExecutor, GTX480_CALIBRATED
    from repro.opt import OptOptions, optimize_program
    from repro.runtime.cache import CompileCache

    options = OptOptions(**{
        field: not getattr(args, "no_" + flag.replace("-", "_"))
        for field, flag, _help in _OPT_TOGGLES
    })
    doc: dict = {
        "size": args.size,
        "transfers": args.transfers,
        "passes": list(options.enabled_passes),
        "routes": [],
    }
    cache = CompileCache()
    for route in _routes(args.route):
        job = downscaler_job(
            route, _size(args.size), _variant(args.variant), transfers=args.transfers
        )
        executor = GPUExecutor(CostModel(GTX480_CALIBRATED))
        _optimized, report = optimize_program(
            job.compile(cache), options, executor=executor
        )
        entry = report.as_dict()
        entry["route"] = job.name
        doc["routes"].append(entry)
        if not args.json:
            print(
                f"=== {job.name} ({args.size}, transfers={args.transfers}) ==="
            )
            print(report.render())
            print()
    if args.json:
        _print_json(doc)
    return EXIT_OK


def _cmd_tune(args) -> int:
    """Autotune one app x route; print the winner and its provenance."""
    from repro.tune import make_subject, tune

    doc: dict = {"app": args.app, "size": args.size, "routes": []}
    for route in _routes(args.route):
        subject = make_subject(args.app, route, size=_size(args.size))
        result = tune(
            subject,
            budget=args.budget,
            seed=args.seed,
            frames=args.frames,
            devices=args.devices,
        )
        doc["routes"].append(result.as_dict())
        if not args.json:
            d, w = result.default_cost, result.winner_cost
            print(f"=== {args.app}/{route} ({subject.size_name}) ===")
            print(f"candidates visited   {result.candidates}")
            print(f"distinct evaluations {result.evaluations}")
            print(f"certifier rejections {result.rejected}")
            print(f"default   {d.makespan_us:12.1f} us  "
                  f"{d.transferred_bytes:>12} B  {d.launches:>3} launches")
            print(f"winner    {w.makespan_us:12.1f} us  "
                  f"{w.transferred_bytes:>12} B  {w.launches:>3} launches")
            print(f"config    {result.winner.describe()}")
            print(f"improved  {result.improved}   "
                  f"validated bit-exact: {result.validated}")
            print(f"record    {result.record.content[:16]}")
            print()
    if args.json:
        _print_json(doc)
    return EXIT_OK


def _explain_code(code: str) -> int:
    """Print the documentation block of one diagnostic code."""
    from repro.analysis import CODES, EXPLAIN, registered_passes

    if code not in CODES:
        known = ", ".join(sorted(CODES))
        print(f"error: unknown diagnostic code {code!r}", file=sys.stderr)
        print(f"known codes: {known}", file=sys.stderr)
        return EXIT_USAGE
    print(f"{code}: {CODES[code]}")
    emitters = [p.name for p in registered_passes() if code in p.codes]
    if emitters:
        print(f"emitted by pass: {', '.join(emitters)}")
    print()
    print(EXPLAIN[code].rstrip())
    return EXIT_OK


def _cmd_lint(args) -> int:
    """Run every registered analyzer; exit 1 on error-severity findings."""
    from repro.analysis import (
        apply_baseline,
        has_errors,
        load_baseline,
        render_json,
        render_text,
    )

    if args.explain is not None:
        return _explain_code(args.explain.upper())

    if args.assert_clean and args.file is not None:
        print(
            "error: --assert-clean applies to the compiled routes, "
            "not --file",
            file=sys.stderr,
        )
        return EXIT_USAGE

    diags = []
    titles = []
    if args.file is not None:
        diags += _lint_sac_file(args.file, args.entry, titles)
    else:
        for route in _routes(args.route):
            diags += _lint_route(
                route, args.app, _size(args.size), _opt(args.assert_clean), titles
            )

    baseline = load_baseline(args.baseline) if args.baseline else None
    kept, suppressed = apply_baseline(diags, baseline)

    title = "lint: " + ", ".join(titles)
    if args.format == "json":
        print(render_json(kept, title=title))
    else:
        print(render_text(kept, title=title))
        if suppressed:
            print(f"({len(suppressed)} finding(s) suppressed by baseline)")
    if args.assert_clean:
        transfer = [d for d in kept if d.code.startswith("XFER")]
        if transfer:
            print(
                f"assert-clean: FAILED — {len(transfer)} TRANSFER finding(s) "
                f"survive optimisation"
            )
            return EXIT_LINT_ERRORS
        print(
            "assert-clean: optimised routes trigger zero TRANSFER diagnostics"
        )
    return EXIT_LINT_ERRORS if has_errors(kept) else EXIT_OK


def _lint_sac_file(path: str, entry: str | None, titles: list) -> list:
    from repro.analysis import analyze_program, analyze_sac_program
    from repro.sac.backend import CompileOptions, compile_function

    prog = _parse_file(path)
    diags = list(analyze_sac_program(prog))
    if entry:
        cf = compile_function(prog, entry, CompileOptions(target="cuda"))
        diags += analyze_program(cf.program)
        titles.append(f"{path} (entry {entry!r})")
    else:
        titles.append(path)
    return diags


def _lint_route(route: str, app: str, size, opt, titles: list) -> list:
    """Compile one app on one route with the analyzers on; its findings."""
    from repro.apps import convolution as conv
    from repro.apps.downscaler import arrayol_model, sac_sources
    from repro.runtime.cache import CompileCache
    from repro.sac.backend import CompileOptions

    cache = CompileCache()
    suffix = " +opt" if opt is not None else ""
    if route == "sac":
        if app == "convolution":
            source = conv.convolution_program_source(conv.gaussian3(size.rows, size.cols))
            entry, label = "blur", "SaC convolution"
        else:
            source = sac_sources.downscaler_program_source(size, sac_sources.NONGENERIC)
            entry, label = "downscale", "SaC non-generic"
        options = CompileOptions(target="cuda", lint=True, opt=opt)
        cf = cache.compile_sac(source, entry, options)
        titles.append(f"{label} {size.name} ({cf.kernel_count} kernels){suffix}")
        return list(cf.diagnostics)
    if app == "convolution":
        model = conv.convolution_model(conv.gaussian3(size.rows, size.cols))
        allocation, label = conv.convolution_allocation(), "Gaspard2 convolution"
    else:
        model = arrayol_model.downscaler_model(size)
        allocation, label = arrayol_model.downscaler_allocation(), "Gaspard2"
    ctx, _chain = cache.compile_gaspard(model, allocation, lint=True, opt=opt)
    titles.append(f"{label} {size.name} ({ctx.program.launch_count} launches){suffix}")
    return list(ctx.diagnostics)


def _number(kind, low, strict: bool = False):
    """An argparse ``type=`` accepting a ``kind`` number ``>= low`` (``> low``
    when ``strict``): an out-of-range value exits 2, not a traceback."""

    def parse(text: str):
        value = kind(text)
        if not (value > low if strict else value >= low):
            op = ">" if strict else ">="
            raise argparse.ArgumentTypeError(f"must be {op} {low}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse's "invalid int value" wording
    return parse


#: every option more than one subcommand takes, declared once; a
#: subcommand lists the ones it takes (and any keyword it declares
#: differently) with :func:`_shared`
_SHARED: dict[str, dict] = {
    "route": dict(choices=("sac", "gaspard", "both"), default="both"),
    "size": dict(choices=("hd", "cif"), default="hd"),
    "frames": dict(type=_number(int, 0), default=4),
    "variant": dict(
        choices=("nongeneric", "generic"), default="nongeneric",
        help="SaC route variant",
    ),
    "depth": dict(
        type=_number(int, 0), default=2,
        help="device buffer slots per array (0 = one per run)",
    ),
    "serialize": dict(
        action="store_true", help="disable overlap (the paper's measurement regime)"
    ),
    "opt": dict(action="store_true", help="serve the repro.opt-optimised program"),
    "devices": dict(
        type=_number(int, 1), default=1,
        help="size of the simulated device fleet to shard frames over",
    ),
    "json": dict(action="store_true", help="emit machine-readable JSON"),
}


def _shared(p: argparse.ArgumentParser, *names: str, **overrides: dict) -> None:
    """Add the named :data:`_SHARED` options to ``p``; ``overrides`` maps an
    option to the keywords this subcommand declares differently."""
    for name in names:
        p.add_argument(f"--{name}", **{**_SHARED[name], **overrides.get(name, {})})


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser, one subparser per subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SaC/ArrayOL GPU-compilation reproduction (HIPS 2011)",
        epilog=(
            "exit codes: 0 success (lint: clean), 1 lint found errors, "
            "2 usage error (out-of-range numbers included), "
            "3 repro error (parse/compile/validation)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile-sac", help="compile a SaC source file")
    p.add_argument("file")
    p.add_argument("--entry", required=True)
    p.add_argument("--target", choices=("cuda", "seq"), default="cuda")
    p.add_argument("--emit", action="store_true", help="print generated CUDA")
    p.set_defaults(fn=_cmd_compile_sac)

    p = sub.add_parser("gaspard", help="run the Gaspard2 OpenCL chain")
    _shared(p, "size")
    p.add_argument("--emit", action="store_true", help="print generated OpenCL")
    p.set_defaults(fn=_cmd_gaspard)

    p = sub.add_parser("experiment", help="regenerate a paper artefact")
    p.add_argument(
        "which",
        choices=(
            "table1", "table2", "figure9", "figure12", "claims", "overlap", "all",
        ),
    )
    _shared(p, "frames", "size", "json", frames=dict(type=_number(int, 1), default=300))
    p.set_defaults(fn=_cmd_experiment)

    p = sub.add_parser(
        "pipeline",
        help="serve the synthetic video through the stream-overlapped runtime",
        description=(
            "Runs either compilation route (or both) over the synthetic video "
            "with the repro.runtime frame pipeline: cached compilation, "
            "bit-exact validation, and a three-engine overlapped schedule "
            "reported against the serial total."
        ),
    )
    _shared(
        p, "route", "size", "frames", "variant", "depth", "serialize",
        frames=dict(default=300),
    )
    p.add_argument(
        "--no-validate", action="store_true",
        help="skip the bit-exact functional check",
    )
    _shared(p, "devices")
    p.add_argument(
        "--placement",
        choices=("round-robin", "least-loaded", "cache-affinity"),
        default="round-robin",
        help="frame-placement policy when --devices > 1",
    )
    p.add_argument(
        "--lint", action="store_true",
        help=(
            "race-check each served program and its schedule (exit 1 on "
            "any race or ordering violation)"
        ),
    )
    _shared(
        p, "opt",
        opt=dict(help="also serve the repro.opt-optimised program and report both"),
    )
    p.add_argument(
        "--trace", nargs="?", const="trace.json", default=None, metavar="FILE",
        help=(
            "write a Chrome trace-event JSON of the served schedule "
            "(route name inserted when --route both; default FILE trace.json)"
        ),
    )
    _shared(p, "json")
    p.set_defaults(fn=_cmd_pipeline)

    p = sub.add_parser(
        "trace",
        help="write a Chrome/Perfetto trace of a pipeline run",
        description=(
            "Serves the synthetic video through the frame pipeline with the "
            "span tracer enabled and writes a Chrome trace-event JSON: one "
            "track per device engine (h2d/compute/d2h/host) from the modelled "
            "schedule, flow arrows along dependence edges, and the host "
            "wall-clock compile/opt/schedule/execute span tree alongside. "
            "Open the file in https://ui.perfetto.dev or chrome://tracing."
        ),
    )
    _shared(
        p, "route", "size", "frames", "variant", "depth", "serialize", "opt",
        opt=dict(help="trace the repro.opt-optimised program instead of the baseline"),
    )
    p.add_argument(
        "--out", default="trace.json",
        help="output file (route name inserted when --route both)",
    )
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser(
        "metrics",
        help="export the runtime metrics registry (text or JSON)",
        description=(
            "Serves a short run per route and prints the repro.obs metrics "
            "registry: compile-cache counters, device allocator traffic, "
            "schedule engine busy/occupancy and pipeline throughput/latency, "
            "as Prometheus-style text or JSON."
        ),
    )
    _shared(p, "route", "size", "frames")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=_cmd_metrics)

    p = sub.add_parser(
        "serve",
        help="run the async multi-tenant serving tier over a route",
        description=(
            "Puts the repro.serve broker in front of the runtime: a load "
            "generator submits per-frame requests (tenant id + optional "
            "deadline), the dynamic batcher coalesces them into pipeline "
            "batches, admission control and per-tenant quotas reject early "
            "under overload, and sustained SLO pressure degrades service to "
            "CIF frames until load recedes.  Reports goodput, latency "
            "percentiles, batch shapes and every gate's counters."
        ),
    )
    _shared(p, "route", "size", "variant", "depth", "opt", size=dict(default="cif"))
    p.add_argument("--requests", type=int, default=32, help="total requests")
    p.add_argument(
        "--mode", choices=("open", "closed"), default="open",
        help="open loop (fixed offered rate) or closed loop (N clients)",
    )
    p.add_argument(
        "--rate", type=_number(float, 0, strict=True), default=200.0,
        help="open-loop offered load, requests/s of virtual time",
    )
    p.add_argument(
        "--clients", type=_number(int, 1), default=8,
        help="closed-loop client count (one request in flight each)",
    )
    p.add_argument("--tenants", type=int, default=4, help="distinct tenant ids")
    p.add_argument(
        "--max-batch", type=_number(int, 1), default=8,
        help="dynamic batcher flush size",
    )
    _shared(
        p, "devices",
        devices=dict(
            help="device fleet size; each batch dispatches to the first-free device"
        ),
    )
    p.add_argument(
        "--slo-ms", type=float, default=50.0,
        help="latency SLO driving flush slack and degradation",
    )
    p.add_argument(
        "--deadline-ms", type=float, default=None,
        help="per-request deadline relative to arrival (default: none)",
    )
    p.add_argument(
        "--queue-budget", type=int, default=64,
        help="admission control's pending-request cap",
    )
    p.add_argument(
        "--jitter-seed", type=int, default=None,
        help="seeded exponential inter-arrival jitter (default: uniform gaps)",
    )
    p.add_argument(
        "--no-execute", action="store_true",
        help="model service times only; skip functional execution",
    )
    _shared(p, "json")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser("downscale", help="downscale one synthetic frame")
    _shared(
        p, "size", "variant", "route",
        route=dict(choices=("sac", "gaspard"), default="sac"),
    )
    p.set_defaults(fn=_cmd_downscale)

    p = sub.add_parser(
        "lint",
        help="run the static-analysis suite (exit 1 on error findings)",
        description=(
            "Runs every registered analyzer (hazards, transfers, bounds, "
            "coalescing, SaC lints, tiler lints) over the compiled downscaler "
            "routes, or over a SaC source file given with --file."
        ),
    )
    _shared(p, "route", route=dict(choices=("sac", "gaspard", "all"), default="all"))
    p.add_argument(
        "--app", choices=("downscaler", "convolution"), default="downscaler",
        help="application to compile and lint",
    )
    _shared(p, "size")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--baseline", help="suppression file (CODE [@ location])")
    p.add_argument("--file", help="lint a SaC source file instead of the routes")
    p.add_argument("--entry", help="with --file: also compile and lint the program")
    p.add_argument(
        "--assert-clean", action="store_true",
        help=(
            "optimise the routes with repro.opt first and exit 1 if any "
            "TRANSFER diagnostic survives"
        ),
    )
    p.add_argument(
        "--explain", metavar="CODE",
        help="print the documentation block for one diagnostic code and exit",
    )
    p.set_defaults(fn=_cmd_lint)

    p = sub.add_parser(
        "opt",
        help="optimise the compiled routes and report before/after",
        description=(
            "Compiles the downscaler through either route, runs the repro.opt "
            "pipeline (redundant-transfer elimination, cross-kernel fusion, "
            "liveness-driven memory pooling) and prints a before/after report: "
            "steps removed, bytes saved, modelled microseconds saved and the "
            "peak device footprint."
        ),
    )
    _shared(p, "route", "size", "variant")
    p.add_argument(
        "--transfers", choices=("boundary", "per_kernel"), default="per_kernel",
        help=(
            "unoptimised transfer placement: per_kernel is the paper's "
            "measured regime, boundary is the PR-2 default"
        ),
    )
    for _field, flag, help_text in _OPT_TOGGLES:
        p.add_argument(f"--no-{flag}", action="store_true", help=help_text)
    _shared(p, "json")
    p.set_defaults(fn=_cmd_opt)

    p = sub.add_parser(
        "tune",
        help="autotune the certified optimisation space with modelled cost",
        description=(
            "Searches the legal configuration space — optimiser pass toggles "
            "and tail order, transfer placement, pipeline depth, ArrayOL "
            "paving granularity, fleet placement — with modelled cost "
            "(makespan + transferred bytes + launches), then re-runs the "
            "winner bit-exactly with certification forced on.  The winning "
            "record is cached per (app, route, size)."
        ),
    )
    p.add_argument(
        "--app", choices=("downscaler", "convolution"), default="downscaler"
    )
    _shared(p, "route", "size")
    p.add_argument(
        "--budget", type=int, default=200,
        help="candidates to visit (memoised revisits included)",
    )
    p.add_argument("--seed", type=int, default=0, help="restart RNG seed")
    _shared(
        p, "frames", "devices", "json",
        frames=dict(type=_number(int, 1), help="frames replayed by the modelled schedule"),
        devices=dict(help="fleet size; placement policy is tuned only when > 1"),
    )
    p.set_defaults(fn=_cmd_tune)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as err:
        from repro.errors import ReproError

        if isinstance(err, (ReproError, OSError)):
            print(f"error: {err}", file=sys.stderr)
            return EXIT_REPRO_ERROR
        raise


if __name__ == "__main__":
    sys.exit(main())
