"""Wall-clock benchmark: host seconds to cold-start, replay, serve and tune.

The committed ``BENCH_*.json`` suites record *modelled* device
microseconds.  This benchmark records what producing them costs the host,
per route (SaC and Gaspard2 each in their own row), on three workloads:

* ``paper-hd``  -- the paper's experiment at HD: cold set-up, the
  300-frame replay, and frames executed and checked bit-exact;
* ``serve-cif`` -- the serving broker at CIF, open loop on its virtual
  clock, timing-only, plus a functionally executed burst;
* ``tune-cif``  -- the autotuner at CIF: every candidate misses and is
  stored, then the winner is executed and checked bit-exact.

Every route runs in fresh worker processes (``worker.py``), one at a
time, with one thread each.  Usage::

    python3 benchmarks/wall/run.py --workload paper-hd --seed 0 --seconds 10 --trace 0
    python -m benchmarks.wall --seed 0 [--workload W] [--trace] [--smoke] [--json OUT]

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics, or
with ``--trace 1`` the per-layer metrics of a traced run.  See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import select
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import layers
from host import HostGate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected_modelled.json"
ROUTES = ("sac", "gaspard")
#: BENCHMARK.json's run_seconds
DEFAULT_SECONDS = 18
#: a run must end within 180 s; keep a margin for this process's own work
RUN_LIMIT_S = 170.0

#: per workload: frame size, cold set-ups per route (fresh processes; the
#: median is reported), the parameters of each route's worker, and each
#: route's shares of the window for its (ops, checked) slots, set so that
#: every slot gets several reps
WORKLOADS = {
    "paper-hd": {
        "size": "hd",
        # an HD cold start costs 10-25 s per route: one sample per run
        "setups": 1,
        "params": {"replay_frames": 300, "checked_frames": 1},
        # a replay rep costs ~1.1 s (sac) and ~2.3 s (gaspard), a checked
        # frame ~0.3 s and ~0.5 s
        "shares": {"sac": (4, 2), "gaspard": (4, 2)},
    },
    "serve-cif": {
        "size": "cif",
        "setups": 3,
        # both rates sit below the knee: no request is refused or late
        "params": {"requests": 200, "tenants": 3, "arrival_seed": 0, "checked_frames": 8},
        "routes": {"sac": {"rate_rps": 250}, "gaspard": {"rate_rps": 800}},
        # 200 requests cost ~0.15 s (sac) and ~0.9 s (gaspard), a burst ~0.2 s
        "shares": {"sac": (2, 1), "gaspard": (5, 1)},
    },
    "tune-cif": {
        "size": "cif",
        "setups": 3,
        # budgets below 130 stay in the exhaustive phase-1 prefix, so the
        # search visits the same candidates whatever its seed
        "params": {"frames": 3, "checked_frames": 3},
        # the smallest budgets that still find each route's winner, so the
        # window holds more reps
        "routes": {"sac": {"budget": 4}, "gaspard": {"budget": 6}},
        # a search rep costs ~1.2 s (sac) and ~0.5 s (gaspard), a checked
        # rep ~0.1 s
        "shares": {"sac": (6, 1), "gaspard": (4, 1)},
    },
}
#: --smoke: CIF only, one rep, budgets of 8 or less
SMOKE = {
    "paper-hd": {"size": "cif", "params": {"replay_frames": 30}},
    "serve-cif": {"params": {"requests": 60}},
    "tune-cif": {"routes": {"sac": {"budget": 2}, "gaspard": {"budget": 6}}},
}

END_TO_END = (
    ("setup_s", "s"),
    ("sac.ops_per_s", "1/s"),
    ("gaspard.ops_per_s", "1/s"),
    ("sac.checked_ms", "ms"),
    ("gaspard.checked_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def route_spec(workload: str, route: str, smoke: bool) -> tuple[str, int, dict]:
    spec = WORKLOADS[workload]
    size, setups = spec["size"], spec["setups"]
    params = dict(spec["params"], **spec.get("routes", {}).get(route, {}))
    if smoke:
        over = SMOKE[workload]
        size, setups = over.get("size", size), 1
        params.update(over.get("params", {}), **over.get("routes", {}).get(route, {}))
    return size, setups, params


class WorkerProcess:
    """A live worker, spoken to one JSON line at a time."""

    def __init__(self, cfg: dict, deadline: float):
        self.name = f"{cfg['workload']}/{cfg['route']}"
        self.deadline = deadline
        env = dict(os.environ, PYTHONPATH=str(SRC), OMP_NUM_THREADS="1",
                   OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def read(self) -> dict:
        # the worker answers each command with exactly one line, so no
        # second line can hide in the pipe's buffer from select()
        ready, _, _ = select.select([self.proc.stdout], [], [], max(0.0, self.deadline - now()))
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            self.close()
            state = f"exited {self.proc.returncode}" if ready else "timed out"
            raise BenchError(f"{self.name}: worker {state}")
        return json.loads(line)

    def ask(self, command: dict) -> dict:
        self.proc.stdin.write(json.dumps(command) + "\n")
        self.proc.stdin.flush()
        return self.read()

    def close(self) -> None:
        """End the worker (end of input lets it exit) and wait for it."""
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.proc.wait()


def summary(values: list[float], wall_values: list[float]) -> dict:
    """The median rep as the value, with the quartiles and count.

    ``values`` are in reference seconds (``host.SpeedMeter``): the host's
    vCPUs change speed by up to 1.7x for 30 ms to over 10 s at a time
    (README, "Noise"), and the raw wall times, whose median is reported
    beside, follow them.
    """
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"value": med, "p25": q1, "p75": q3, "n": len(values),
            "wall_median": statistics.median(wall_values)}


def measure(
    live: dict, trace: bool, window: float, min_reps: int, trace_reps: int, shares: dict
) -> dict:
    """Reps of every (route, phase) slot; returns the rep records per slot.

    Untraced, the four slots take turns over the whole window, each
    getting its ``shares`` of the time.  A slot is charged the whole
    round trip of a rep, the worker's wait at its gate included, so
    cheap checked reps do not eat the window in gate waits.  A route's
    reps then spread over the full window instead of half of it, so one
    of the host's slow spells rarely covers all of them.
    Traced, each slot runs ``trace_reps`` untraced/traced pairs: the two
    of a pair see the same warm state, so their ratio is the overhead.
    """
    reps = {(route, phase): [] for route in live for phase in (0, 1)}

    def run(slot, traced: bool) -> float:
        route, phase = slot
        t0 = now()
        reps[slot].append(live[route].ask({"phase": phase, "traced": traced}))
        return now() - t0

    if trace:
        for slot in reps:
            for _ in range(trace_reps):
                run(slot, False)
                run(slot, True)
        return reps
    spent = dict.fromkeys(reps, 0.0)
    end = now() + window
    while True:
        short = [slot for slot in reps if len(reps[slot]) < min_reps]
        if not short and now() >= end:
            return reps
        slot = min(short or reps, key=lambda s: spent[s] / shares[s])
        spent[slot] += run(slot, False)


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, smoke: bool, gate: HostGate
) -> dict:
    deadline = now() + RUN_LIMIT_S
    totals = {"attempted": 0, "failed": 0, "rss": 0.0}
    modelled, errors, per_route, live = [], [], {}, {}

    def absorb(route: str, out: dict) -> None:
        totals["attempted"] += out["attempted"]
        totals["failed"] += out["failed"]
        totals["rss"] = max(totals["rss"], out["peak_rss_mb"])
        modelled.extend(out["modelled"])
        errors.extend(f"{route}: {e}" for e in out["errors"])

    try:
        for route in ROUTES:
            size, setups, params = route_spec(workload, route, smoke)
            if trace:
                setups = 1  # a traced run reports no set-up time
            samples = []
            for i in range(setups):
                cfg = {
                    "workload": workload, "route": route, "size": size, "seed": seed,
                    "params": params, "setup_only": i < setups - 1, "trace": trace,
                    "trace_path": str(OUT / f"{workload}-{route}.trace.json"),
                }
                gate.wait()  # the worker inherits the pinning to a fast vCPU
                t_spawn = now()
                worker = WorkerProcess(cfg, deadline)
                hello = worker.read()
                wall = hello["t_ready"] - t_spawn - hello["bench_s"] - hello["probes_s"]
                samples.append(wall * hello["scale"])
                if cfg["setup_only"]:
                    absorb(route, hello)
                    worker.close()
                else:
                    live[route] = worker
            per_route[route] = {"setup_s": samples}
        gate.release()  # the workers pin themselves before each rep
        shares = {
            (route, phase): share
            for route in live
            for phase, share in enumerate(WORKLOADS[workload]["shares"][route])
        }
        reps = measure(live, trace, 0.0 if smoke else seconds,
                       min_reps=1 if smoke else 2, trace_reps=1 if smoke else 2, shares=shares)
        for route, worker in live.items():
            out = worker.ask({"finish": True})
            absorb(route, out)
            per_route[route].update(
                ops=reps[route, 0], checked=reps[route, 1], trace=out.get("trace")
            )
    finally:
        for worker in live.values():
            worker.close()

    expected = json.loads(EXPECTED.read_text())["values"]
    bad = [
        key for key, value in modelled
        if key not in expected or round(value, 3) != round(expected[key], 3)
    ]
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "smoke": smoke, "routes": per_route,
        "attempted": totals["attempted"], "failed": totals["failed"],
        "checks": {
            "error_rate": totals["failed"] / max(1, totals["attempted"]),
            "modelled_mismatches": len(bad),
            "modelled_checked": len(modelled),
            "mismatched_keys": sorted(set(bad)),
        },
        "modelled": dict(modelled),
        "errors": errors,
    }
    if workload == "serve-cif":
        # the load generator waits on the broker's virtual clock, so it
        # can never fall behind its schedule
        report["checks"]["loadgen_late_s"] = 0.0
    if trace:
        report["layers"] = layer_metrics(per_route)
    else:
        report["metrics"] = end_to_end(per_route, totals["rss"])
    return report


def end_to_end(per_route: dict, rss: float) -> dict:
    metrics = {
        "setup_s": {
            "value": sum(statistics.median(r["setup_s"]) for r in per_route.values()),
            "per_route": {k: r["setup_s"] for k, r in per_route.items()},
        },
    }
    for route, r in per_route.items():
        metrics[f"{route}.ops_per_s"] = summary(
            *([x["ops"] / x[t] for x in r["ops"]] for t in ("ref_s", "wall_s"))
        )
        metrics[f"{route}.checked_ms"] = summary(
            *([1000 * x[t] / x["ops"] for x in r["checked"]] for t in ("ref_s", "wall_s"))
        )
    metrics["peak_rss_mb"] = {"value": rss}
    for name, unit in END_TO_END:
        metrics[name]["unit"] = unit
    return {name: metrics[name] for name, _ in END_TO_END}


def layer_metrics(per_route: dict) -> dict:
    """The per-layer table of a traced run, summed over the routes."""
    seconds, counts = defaultdict(float), defaultdict(float)
    wall = traced = untraced = lookup = 0.0
    for r in per_route.values():
        t = r["trace"]
        for k, v in t["layers"].items():
            seconds[k] += v
        for k, v in t["counts"].items():
            counts[k] += v
        wall += t["wall_s"]
        lookup += t["lookup_s"]
        for rep in r["ops"] + r["checked"]:
            if rep["traced"]:
                traced += rep["wall_s"]
            else:
                untraced += rep["wall_s"]
    hits, misses = counts.get("runtime.cache.hits", 0), counts.get("runtime.cache.misses", 0)
    derived = {
        "runtime.cache.lookup_s": lookup,
        "runtime.cache.hit_rate": hits / max(1, hits + misses),
        "trace.overhead_ratio": traced / untraced,
        "trace.coverage": 1 - sum(seconds.get(g, 0.0) for g in layers.GLUE_LAYERS) / wall,
    }
    if "serve.broker.batches" in counts:
        derived["serve.broker.batch_size_mean"] = (
            counts["serve.broker.batch_requests"] / counts["serve.broker.batches"]
        )
    if "evaluations" in counts:
        derived["tune.search.waste_ratio"] = counts["rejected"] / max(1, counts["evaluations"])
        for k in ("candidates", "evaluations", "rejected"):
            derived[f"tune.search.{k}"] = counts[k]

    table = {}
    for layer in layers.CATALOGUE:
        m = layer.metric
        if m in derived:
            value = derived[m]
        elif layer.unit == "s":
            value = seconds.pop(m.rsplit(".", 1)[0].removesuffix(".self"), None)
        else:
            value = counts.get(m)
        if value is not None:
            table[m] = {"value": value, "unit": layer.unit}
    # layers outside the catalogue (glue, the Gaspard optimize pass)
    for k, v in seconds.items():
        table.setdefault(layers.time_metric(k), {"value": v, "unit": "s"})
    for row in table.values():
        if row["unit"] == "s":
            row["share"] = row["value"] / wall
    return {"wall_s": wall, "table": table,
            "files": [r["trace"]["file"] for r in per_route.values()]}


def result_line(report: dict) -> dict:
    """The contract's last line: every end-to-end or every per-layer metric."""
    if report["trace"]:
        rows = report["layers"]["table"]
        names = [layer.metric for layer in layers.EVERYWHERE]
    else:
        rows = report["metrics"]
        names = [name for name, _ in END_TO_END]
    missing = [name for name in names if name not in rows]
    if missing:
        raise BenchError(f"{report['workload']}: no measurement of {missing}")
    return {
        "correct": report["failed"] == 0 and report["checks"]["modelled_mismatches"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": rows[name]["value"], "unit": rows[name]["unit"]} for name in names
        },
    }


def render(report: dict) -> str:
    mode = "traced" if report["trace"] else "untraced"
    lines = [f"== {report['workload']} (seed {report['seed']}, "
             f"{report['seconds']:g} s, {mode}{', smoke' if report['smoke'] else ''}) =="]
    if report["trace"]:
        by_metric = {layer.metric: layer for layer in layers.CATALOGUE}
        lines.append(f"  {'layer metric':34} {'value':>12} {'unit':6} {'share':>6}  should move")
        for name, row in report["layers"]["table"].items():
            share = f"{100 * row['share']:5.1f}%" if "share" in row else ""
            moves = by_metric[name].moves if name in by_metric else ""
            lines.append(f"  {name:34} {row['value']:12.6g} {row['unit']:6} {share:>6}  {moves}")
        lines.append(f"  traced wall time {report['layers']['wall_s']:.3f} s; Chrome traces: "
                     + ", ".join(report["layers"]["files"]))
    else:
        for name, row in report["metrics"].items():
            spread = (f"  median rep (p25 {row['p25']:.4g}, p75 {row['p75']:.4g}, "
                      f"n={row['n']}); wall-clock median {row['wall_median']:.4g}"
                      if "n" in row else "")
            lines.append(f"  {name:20} {row['value']:12.6g} {row['unit']}{spread}")
    checks = report["checks"]
    lines.append(f"  {'error_rate':20} {checks['error_rate']:12.6g} fraction "
                 f"({report['failed']} of {report['attempted']} operations)")
    lines.append(f"  {'modelled_mismatches':20} {checks['modelled_mismatches']:12d} count "
                 f"(of {checks['modelled_checked']} modelled values)")
    if "loadgen_late_s" in checks:
        lines.append(f"  {'loadgen_late_s':20} {checks['loadgen_late_s']:12g} s "
                     "(the load generator runs on the broker's virtual clock)")
    lines += [f"  ! {key} differs from expected_modelled.json" for key in checks["mismatched_keys"]]
    lines += [f"  ! {e}" for e in report["errors"]]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all three in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measured seconds per run, shared by the routes")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: a traced run that reports the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="CIF only, one rep, small budgets (under 30 s)")
    parser.add_argument("--json", type=Path, help="also write the full report here")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "repro").is_dir():
        print(f"benchmark: no program to measure under {SRC}", file=sys.stderr)
        return 2

    compileall.compile_dir(SRC / "repro", quiet=1)  # bytecode is not a cold-start cost
    OUT.mkdir(exist_ok=True)
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    reports, ok, gate = {}, True, HostGate()
    try:
        for workload in workloads:
            report = run_workload(
                workload, args.seed, args.seconds, bool(args.trace), args.smoke, gate
            )
            reports[workload] = report
            print(render(report), flush=True)
            report["result"] = result_line(report)
            ok &= report["result"]["correct"]
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    if args.json:
        args.json.write_text(json.dumps(reports, indent=1) + "\n")
    for workload in workloads:
        print(json.dumps(reports[workload]["result"]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
