"""Smoke test of the wall-clock benchmark: ``run.py --smoke``, untraced and traced.

Not part of the tier-1 suite (``testpaths`` is ``tests``); run it from the
repository root with::

    PYTHONPATH=src python -m pytest benchmarks/wall/test_wall_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(tmp_path: Path, trace: int) -> dict:
    out = tmp_path / f"smoke-{trace}.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "3",
         "--trace", str(trace), "--json", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=150,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    return json.loads(out.read_text())


def test_smoke_emits_every_metric_and_checks_outputs(tmp_path):
    untraced, traced = smoke(tmp_path, 0), smoke(tmp_path, 1)
    assert set(untraced) == set(traced) == {w["name"] for w in SPEC["workloads"]}
    for reports, listed in ((untraced, "end_to_end"), (traced, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in SPEC[listed]}
        for name, report in reports.items():
            assert report["checks"]["error_rate"] == 0, (name, report["errors"])
            assert report["checks"]["modelled_mismatches"] == 0, (
                name, report["checks"]["mismatched_keys"],
            )
            metrics = report["result"]["metrics"]
            assert {k: v["unit"] for k, v in metrics.items()} == wanted, name
            assert all(v["value"] > 0 for k, v in metrics.items()
                       if listed == "end_to_end"), name
    for name in traced:
        # tracing must not change a modelled answer, and the layers must
        # account for the traced wall time
        assert traced[name]["modelled"] == untraced[name]["modelled"], name
        assert traced[name]["result"]["metrics"]["trace.coverage"]["value"] >= 0.9, name
