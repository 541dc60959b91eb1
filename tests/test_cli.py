"""Tests for the command-line driver."""

import pytest

from repro.cli import main


def test_downscale_sac(capsys):
    assert main(["downscale", "--size", "cif"]) == 0
    out = capsys.readouterr().out
    assert "kernels:" in out
    assert "output" in out
    assert "(128, 132)" in out  # the paper's CIF result size


def test_downscale_gaspard(capsys):
    assert main(["downscale", "--size", "cif", "--route", "gaspard"]) == 0
    out = capsys.readouterr().out
    assert "out_r" in out


def test_gaspard_chain_with_emit(capsys):
    assert main(["gaspard", "--size", "cif", "--emit"]) == 0
    out = capsys.readouterr().out
    assert "transformation chain trace" in out
    assert "__kernel void" in out


def test_compile_sac_file(tmp_path, capsys):
    src = tmp_path / "prog.sac"
    src.write_text(
        "int[8] f(int[8] a) { b = with { (. <= iv <= .) : a[iv] * 2; } "
        ": genarray([8]); return b; }"
    )
    assert main(["compile-sac", str(src), "--entry", "f", "--emit"]) == 0
    out = capsys.readouterr().out
    assert "kernels: 1" in out
    assert "__global__" in out


@pytest.mark.parametrize("command", [["compile-sac"], ["lint", "--file"]])
@pytest.mark.parametrize(
    "source, defined",
    [("", "none"), ("int f(int a) { return a; }", "'f'")],
    ids=["empty", "no-main"],
)
def test_missing_entry_is_a_repro_error(tmp_path, capsys, command, source, defined):
    """A typed error naming the defined functions, exit 3: not a bare
    ``KeyError`` traceback, whose exit 1 reads as a lint finding."""
    src = tmp_path / "prog.sac"
    src.write_text(source)
    assert main([*command, str(src), "--entry", "main"]) == 3
    err = capsys.readouterr().err
    assert f"no function named 'main' (defined: {defined})" in err


@pytest.mark.parametrize(
    "literal", [str(2**63), "12345678901234567890123"], ids=["2**63", "23-digit"]
)
def test_int_literal_past_64_bits_exits_3(tmp_path, capsys, literal):
    """A located syntax error, not a kernel that overflows at launch."""
    src = tmp_path / "big.sac"
    src.write_text(
        "int[8] main(int[8] a) { b = with { ([0] <= iv < [8]) : a[iv] + "
        f"{literal}; }} : genarray([8], 0); return b; }}"
    )
    assert main(["compile-sac", str(src), "--entry", "main"]) == 3
    err = capsys.readouterr().err
    assert f"big.sac:1:64: integer literal {literal} is above 2**63 - 1" in err

@pytest.mark.parametrize("shape", ["parens", "sum"])
@pytest.mark.parametrize("past", [0, 1], ids=["at-limit", "past-limit"])
def test_compile_sac_nesting_limit(tmp_path, capsys, shape, past):
    """At the nesting limit a program compiles; one level past it is a
    located syntax error, exit 3, with no ``RecursionError`` traceback."""
    from repro.sac.parser import MAX_DEPTH

    # the function body and the WITH-loop are two levels, a[iv] two more
    if shape == "parens":
        count = MAX_DEPTH - 4 + past
        expr = "(" * count + "a[iv]" + ")" * count
    else:
        expr = " + ".join(["a[iv]"] * (MAX_DEPTH - 3 + past))
    src = tmp_path / "deep.sac"
    src.write_text(
        f"int[8] main(int[8] a) {{ b = with {{ ([0] <= iv < [8]) : {expr}; }} "
        ": genarray([8], 0); return b; }"
    )
    code = main(["compile-sac", str(src), "--entry", "main"])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if past:
        assert code == 3
        assert "deep.sac:1:" in captured.err
        assert f"nesting deeper than {MAX_DEPTH} levels" in captured.err
    else:
        assert code == 0
        assert "kernels: 1" in captured.out


def test_experiment_claims_small(capsys):
    assert main(["experiment", "claims", "--frames", "2", "--size", "cif"]) == 0
    out = capsys.readouterr().out
    assert "generic_over_nongeneric_h" in out


def test_experiment_table1_small(capsys):
    assert main(["experiment", "table1", "--frames", "2", "--size", "cif"]) == 0
    out = capsys.readouterr().out
    assert "H. Filter (3 kernels)" in out
    assert "memcpyHtoDasync" in out
    assert "paper values scaled" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


# -- repro lint ----------------------------------------------------------------


def test_lint_routes_clean(capsys):
    # acceptance: the shipped pipelines carry no error-severity findings
    assert main(["lint", "--size", "cif"]) == 0
    out = capsys.readouterr().out
    assert "SaC non-generic" in out
    assert "Gaspard2" in out
    assert "0 error(s)" in out


def test_lint_json_output(capsys):
    import json

    assert main(["lint", "--size", "cif", "--route", "sac", "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["counts"]["error"] == 0
    assert all("code" in d for d in out["diagnostics"])


def test_lint_baseline_suppresses(tmp_path, capsys):
    baseline = tmp_path / "lint-baseline"
    baseline.write_text("# known uncoalesced filter reads\nCOALESCE001\n")
    assert main(
        ["lint", "--size", "cif", "--baseline", str(baseline)]
    ) == 0
    out = capsys.readouterr().out
    assert "suppressed by baseline" in out
    assert "COALESCE001" not in out.split("suppressed")[0]


def test_lint_sac_file_with_errors_exits_1(tmp_path, capsys):
    src = tmp_path / "bad.sac"
    src.write_text(
        "int[8] f(int[8] a) { b = with { ([0] <= iv < [5]) : 1; "
        "([3] <= iv < [8]) : 2; } : genarray([8]); return b; }"
    )
    assert main(["lint", "--file", str(src)]) == 1
    out = capsys.readouterr().out
    assert "SAC003" in out


def test_lint_sac_file_with_entry_compiles(tmp_path, capsys):
    src = tmp_path / "ok.sac"
    src.write_text(
        "int[8] f(int[8] a) { b = with { (. <= iv <= .) : a[iv] * 2; } "
        ": genarray([8]); return b; }"
    )
    assert main(["lint", "--file", str(src), "--entry", "f"]) == 0
    out = capsys.readouterr().out
    assert "entry" in out


def test_lint_parse_error_exits_3(tmp_path, capsys):
    src = tmp_path / "broken.sac"
    src.write_text("int[8] f(int[8] a) { this is not sac }")
    assert main(["lint", "--file", str(src)]) == 3
    assert "error:" in capsys.readouterr().err


# -- repro pipeline / experiment overlap ---------------------------------------


def test_pipeline_both_routes(capsys):
    assert main(["pipeline", "--size", "cif", "--frames", "2"]) == 0
    out = capsys.readouterr().out
    assert "pipeline sac-nongeneric" in out
    assert "pipeline gaspard" in out
    assert "1 miss(es), 1 hit(s)" in out
    assert "bit-exact" in out


def test_pipeline_json(capsys):
    import json

    assert main(
        ["pipeline", "--size", "cif", "--frames", "3", "--route", "sac", "--json"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    (entry,) = doc["routes"]
    route = entry["report"]
    assert route["job"] == "sac-nongeneric"
    assert route["frames"] == 3
    assert route["cache"] == {
        "hits": 2, "misses": 1, "invalidations": 0, "hit_rate": 0.6667,
    }
    assert route["overlapped_us"] < route["serial_us"]
    assert route["engine_occupancy"]["h2d"] > 0
    # each route entry carries a metrics-registry snapshot alongside
    metrics = entry["metrics"]
    assert (
        round(metrics['repro_pipeline_frames_per_second{route="sac-nongeneric"}'], 3)
        == route["frames_per_second"]
    )
    assert metrics['repro_pipeline_frames_total{route="sac-nongeneric"}'] == 3


def test_pipeline_fleet_flags(capsys):
    assert main([
        "pipeline", "--size", "cif", "--frames", "4", "--route", "gaspard",
        "--devices", "2", "--placement", "cache-affinity",
    ]) == 0
    out = capsys.readouterr().out
    assert "fleet:      2 device(s), cache-affinity placement" in out
    assert "d0" in out and "d1" in out


def test_pipeline_fleet_json(capsys):
    import json

    assert main([
        "pipeline", "--size", "cif", "--frames", "4", "--route", "gaspard",
        "--devices", "2", "--json",
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    (entry,) = doc["routes"]
    report = entry["report"]
    assert report["devices"] == 2
    assert report["placement"] == "round-robin"
    assert sorted(report["per_device"]) == ["d0", "d1"]
    assert sum(s["frames"] for s in report["per_device"].values()) == 4


def test_serve_fleet_devices(capsys):
    assert main([
        "serve", "--route", "gaspard", "--size", "cif", "--requests", "8",
        "--devices", "2", "--no-execute", "--mode", "closed", "--clients", "4",
    ]) == 0
    out = capsys.readouterr().out
    assert "fleet:      2 device(s)" in out


def test_pipeline_lint_certifies_hazards(capsys):
    assert main(
        ["pipeline", "--size", "cif", "--frames", "2", "--route", "gaspard",
         "--lint"]
    ) == 0
    out = capsys.readouterr().out
    assert "hazards:    clean" in out


def test_pipeline_lint_checks_every_served_program(capsys):
    """``--opt --lint`` race-checks the optimised program it served as
    well as the baseline, each over its served run count."""
    import json

    assert main(
        ["pipeline", "--size", "cif", "--frames", "2", "--route", "sac", "--opt",
         "--lint", "--depth", "1", "--json"]
    ) == 0
    entries = [e["report"] for e in json.loads(capsys.readouterr().out)["routes"]]
    assert [r["job"] for r in entries] == ["sac-nongeneric", "sac-nongeneric+opt"]
    for r in entries:
        assert r["instances"] == 6
        assert r["hazards"] == {"runs": 6, "unexpected": [], "schedule_violations": []}


@pytest.mark.parametrize("finding", ["race", "schedule"])
def test_pipeline_lint_exits_1_on_any_finding(finding, monkeypatch, capsys):
    import repro.analysis.hazards
    import repro.runtime
    from repro.analysis.diagnostics import Diagnostic

    if finding == "race":
        race = Diagnostic(code="RACE002", severity="error", message="a race")
        monkeypatch.setattr(repro.analysis.hazards, "find_hazards", lambda p: [race])
    else:
        monkeypatch.setattr(repro.runtime, "schedule_violations", lambda s: ["late"])
    assert main(
        ["pipeline", "--size", "cif", "--frames", "1", "--route", "gaspard", "--lint"]
    ) == 1
    assert "hazards:    FINDINGS over 1 run(s)" in capsys.readouterr().out


def test_pipeline_serialize_ablation(capsys):
    import json

    assert main(
        ["pipeline", "--size", "cif", "--frames", "2", "--route", "gaspard",
         "--serialize", "--no-validate", "--json"]
    ) == 0
    (entry,) = json.loads(capsys.readouterr().out)["routes"]
    route = entry["report"]
    assert route["serialize"] is True
    assert route["overlapped_us"] == route["serial_us"]
    assert route["validated_instances"] == 0


def test_experiment_overlap(capsys):
    assert main(
        ["experiment", "overlap", "--frames", "3", "--size", "cif"]
    ) == 0
    out = capsys.readouterr().out
    assert "nongeneric variant, 3 frames" in out
    assert "generic variant, 3 frames" in out


#: pinned `experiment overlap --size cif --frames 3 --json` values: the
#: fused variant pipelines a little, the generic one's host output tiler
#: blocks every frame
OVERLAP_CIF_3 = {
    "nongeneric": {
        "variant": "nongeneric", "frames": 3,
        "serial_us": 3080.273, "overlapped_us": 2875.508, "speedup": 1.0712,
        "engine_busy_us": {"h2d": 250.961, "compute": 2773.126, "d2h": 56.183},
    },
    "generic": {
        "variant": "generic", "frames": 3,
        "serial_us": 2472.858, "overlapped_us": 2472.856, "speedup": 1.0,
        "engine_busy_us": {"h2d": 360.072, "compute": 1008.352, "d2h": 152.594},
    },
}


def test_experiment_overlap_json(capsys):
    import json

    assert main(
        ["experiment", "overlap", "--frames", "3", "--size", "cif", "--json"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    variants = {o["variant"]: o for o in doc["overlap"]}
    assert set(variants) == {"nongeneric", "generic"}
    non = variants["nongeneric"]
    assert non["overlapped_us"] <= non["serial_us"]
    assert set(non["engine_busy_us"]) == {"h2d", "compute", "d2h"}
    assert variants == OVERLAP_CIF_3


def test_experiment_table_json(capsys):
    """`experiment all --json` pins every paper artefact value at CIF."""
    import json

    assert main(
        ["experiment", "all", "--frames", "3", "--size", "cif", "--json"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["size"], doc["frames"]) == ("cif", 3)
    for key in ("table1", "table2"):
        assert all(
            set(r) == {"operation", "calls", "gpu_time_us", "gpu_time_pct"}
            for r in doc[key]["rows"]
        )

    def rows(table):
        return [
            (r["operation"], r["calls"], r["gpu_time_us"], r["gpu_time_pct"])
            for r in table["rows"]
        ]

    t1, t2 = doc["table1"], doc["table2"]
    assert t1["title"] == (
        "Kernel execution and data transfer times of GASPARD2 implementation"
    )
    assert t1["total_us"] == 2774.082
    assert rows(t1) == [
        ("H. Filter (3 kernels)", 3, 1031.943, 37.199),
        ("V. Filter (3 kernels)", 3, 820.707, 29.585),
        ("memcpyHtoDasync", 9, 752.884, 27.14),
        ("memcpyDtoHasync", 9, 168.549, 6.076),
    ]
    assert t2["title"] == (
        "Kernel execution and data transfer times of SAC implementation"
    )
    assert t2["total_us"] == 9240.811
    assert rows(t2) == [
        ("H. Filter (5 kernels)", 3, 3601.091, 38.969),
        ("V. Filter (7 kernels)", 3, 4718.287, 51.059),
        ("memcpyHtoDasync", 9, 752.884, 8.147),
        ("memcpyDtoHasync", 9, 168.549, 1.824),
    ]
    assert [
        (r["configuration"], r["hfilter_s"], r["vfilter_s"])
        for r in doc["figure9"]
    ] == [
        ("SAC-Seq Generic", 0.002479, 0.001104),
        ("SAC-CUDA Generic", 0.001286, 0.000826),
        ("SAC-Seq Non-Generic", 0.002102, 0.000936),
        ("SAC-CUDA Non-Generic", 0.0012, 0.001573),
    ]
    assert doc["figure12"] == {
        "operations": [
            "Horizontal Filter", "Vertical Filter", "Host2Device", "Device2Host",
        ],
        "sac_s": [0.003601, 0.004718, 0.000753, 0.000169],
        "gaspard_s": [0.001032, 0.000821, 0.000753, 0.000169],
    }
    assert doc["claims"] == {
        "generic_over_nongeneric_h": 1.0716,
        "generic_over_nongeneric_v": 0.5255,
        "speedup_gpu_vs_seq_h": 1.7515,
        "speedup_gpu_vs_seq_v": 0.5952,
        "seq_generic_over_nongeneric_h": 1.1791,
        "transfer_share_gaspard": 0.3322,
        "transfer_share_sac": 0.0997,
        "gaspard_over_sac_total": 0.3002,
    }
    assert doc["overlap"] == [OVERLAP_CIF_3["nongeneric"], OVERLAP_CIF_3["generic"]]


# -- repro opt -----------------------------------------------------------------


def test_opt_reports_both_routes(capsys):
    assert main(["opt", "--size", "cif"]) == 0
    out = capsys.readouterr().out
    assert "sac-nongeneric" in out
    assert "gaspard" in out
    assert "transferred bytes" in out
    assert "buffers eliminated by fusion" in out
    assert "certified hazard-free: yes" in out


def test_opt_json(capsys):
    import json

    assert main(["opt", "--size", "cif", "--route", "sac", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passes"] == [
        "dce",
        "transfer-elimination",
        "fusion",
        "sibling-fusion",
        "pooling",
    ]
    (entry,) = doc["routes"]
    assert entry["route"] == "sac-nongeneric"
    assert entry["bytes_saved"] > 0
    assert entry["us_saved"] > 0
    assert entry["certified"]
    assert entry["before"]["ops"] > entry["after"]["ops"]


def test_opt_pass_toggles(capsys):
    import json

    assert main(
        [
            "opt",
            "--size",
            "cif",
            "--route",
            "sac",
            "--no-fusion",
            "--no-sibling-fusion",
            "--json",
        ]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passes"] == ["dce", "transfer-elimination", "pooling"]
    (entry,) = doc["routes"]
    assert entry["buffers_eliminated"] == []


def test_lint_assert_clean(capsys):
    assert main(["lint", "--size", "cif", "--assert-clean"]) == 0
    out = capsys.readouterr().out
    assert "zero TRANSFER diagnostics" in out


def test_lint_assert_clean_rejects_file_mode(tmp_path, capsys):
    src = tmp_path / "p.sac"
    src.write_text("int f(int a) { return a; }")
    assert main(["lint", "--file", str(src), "--assert-clean"]) == 2


# -- repro trace / metrics -----------------------------------------------------


def test_trace_writes_valid_per_route_files(tmp_path, capsys):
    import json

    from repro.obs import engine_busy_from_trace, validate_chrome_trace

    out = tmp_path / "trace.json"
    assert main(
        ["trace", "--size", "cif", "--frames", "2", "--out", str(out)]
    ) == 0
    text = capsys.readouterr().out
    assert "=== trace sac-nongeneric" in text
    assert "=== trace gaspard" in text
    assert "pipeline:gaspard" in text  # the span tree is printed
    for route in ("sac", "gaspard"):
        doc = json.loads((tmp_path / f"trace.{route}.json").read_text())
        assert validate_chrome_trace(doc) == []
        busy = engine_busy_from_trace(doc)
        assert busy["compute"] > 0


def test_trace_single_route_keeps_filename(tmp_path, capsys):
    out = tmp_path / "t.json"
    assert main(
        ["trace", "--route", "sac", "--size", "cif", "--frames", "1",
         "--opt", "--out", str(out)]
    ) == 0
    assert out.exists()
    assert "opt-pass:" in capsys.readouterr().out  # optimiser spans traced


def test_metrics_text(capsys):
    assert main(
        ["metrics", "--size", "cif", "--frames", "2"]
    ) == 0
    out = capsys.readouterr().out
    assert "# TYPE repro_compile_cache_hits_total counter" in out
    assert 'repro_pipeline_frames_per_second{route="gaspard"}' in out
    assert 'route="sac-nongeneric"' in out


def test_metrics_json(capsys):
    import json

    assert main(
        ["metrics", "--route", "gaspard", "--size", "cif", "--frames", "2",
         "--format", "json"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc['repro_pipeline_frames_total{route="gaspard"}'] == 2
    assert doc['repro_compile_cache_misses_total{route="gaspard"}'] == 1


def test_pipeline_trace_flag(tmp_path, capsys):
    import json

    from repro.obs import validate_chrome_trace

    out = tmp_path / "p.json"
    assert main(
        ["pipeline", "--route", "gaspard", "--size", "cif", "--frames", "2",
         "--trace", str(out)]
    ) == 0
    assert f"trace:      wrote {out}" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert validate_chrome_trace(doc) == []
    # both time domains present: modelled schedule + host span tree
    pids = {e.get("pid") for e in doc["traceEvents"]}
    assert pids == {1, 2}


def test_pipeline_trace_json_reports_path(tmp_path, capsys):
    import json

    out = tmp_path / "p.json"
    assert main(
        ["pipeline", "--route", "sac", "--size", "cif", "--frames", "2",
         "--trace", str(out), "--json"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    (entry,) = doc["routes"]
    assert entry["report"]["trace"] == str(out)
    assert out.exists()


def test_pipeline_json_memory_metrics_are_per_job(capsys):
    """Each job's allocator counters cover its own run only, although
    all four jobs share one executor."""
    import json

    assert main(
        ["pipeline", "--size", "cif", "--frames", "4", "--opt", "--json"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    memory = {}
    for entry in doc["routes"]:
        job, metrics = entry["report"]["job"], entry["metrics"]
        memory[job] = (
            metrics[f'repro_device_allocs_total{{route="{job}"}}'],
            metrics[f'repro_device_peak_bytes{{route="{job}"}}'],
        )
    assert memory == {
        "sac-nongeneric": (3, 625152),
        "sac-nongeneric+opt": (2, 473088),
        "gaspard": (9, 1875456),
        "gaspard+opt": (6, 608256),
    }


def test_pipeline_opt_compares_baseline_and_optimised(capsys):
    import json

    assert main(
        ["pipeline", "--route", "sac", "--size", "cif", "--frames", "2",
         "--opt", "--json"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    jobs = {e["report"]["job"]: e["report"] for e in doc["routes"]}
    assert set(jobs) == {"sac-nongeneric", "sac-nongeneric+opt"}
    opt = jobs["sac-nongeneric+opt"]
    assert opt["baseline_job"] == "sac-nongeneric"
    assert opt["fps_speedup_vs_baseline"] > 1.0


# -- repro serve ---------------------------------------------------------------


def test_serve_renders_report(capsys):
    assert main(
        ["serve", "--route", "gaspard", "--requests", "8", "--rate", "300",
         "--no-execute"]
    ) == 0
    out = capsys.readouterr().out
    assert "serve gaspard: 8 request(s)" in out
    assert "goodput:" in out
    assert "rejected:   0 (none)" in out


def test_serve_json_pairs_report_and_metrics(capsys):
    import json

    assert main(
        ["serve", "--route", "both", "--requests", "6", "--rate", "300",
         "--no-execute", "--json"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["routes"]) == 2
    jobs = set()
    for entry in doc["routes"]:
        report = entry["report"]
        jobs.add(report["job"])
        assert report["offered"] == 6
        assert report["rejected"] == 0
        label = f'route="{report["job"]}"'
        assert round(
            entry["metrics"][f"repro_serving_goodput_rps{{{label}}}"], 3
        ) == report["goodput_rps"]
    assert jobs == {"sac-nongeneric", "gaspard"}


def test_serve_closed_loop_executes_bit_exact(capsys):
    assert main(
        ["serve", "--route", "gaspard", "--requests", "4", "--mode", "closed",
         "--clients", "2"]
    ) == 0
    out = capsys.readouterr().out
    assert "completed:  4 ok" in out
    assert "validated:  4 response(s) bit-exact vs golden" in out


def test_tune_convolution_both_routes(capsys):
    assert main(
        ["tune", "--app", "convolution", "--route", "both", "--budget", "12",
         "--seed", "1"]
    ) == 0
    out = capsys.readouterr().out
    assert "convolution/sac" in out
    assert "convolution/gaspard" in out
    assert "validated bit-exact: True" in out
    assert "candidates visited   12" in out


def test_tune_json_winner_never_worse(capsys):
    import json

    assert main(
        ["tune", "--app", "downscaler", "--size", "cif", "--route", "gaspard",
         "--budget", "10", "--seed", "0", "--json"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    (entry,) = doc["routes"]
    assert entry["route"] == "gaspard"
    assert entry["validated"]
    d, w = entry["default"]["cost"], entry["winner"]["cost"]
    assert (
        w["makespan_us"], w["transferred_bytes"], w["launches"]
    ) <= (
        d["makespan_us"], d["transferred_bytes"], d["launches"]
    )
    assert entry["candidates"] == 10
    assert len(entry["record_content"]) == 64


# -- the CLI surface -----------------------------------------------------------

_ROUTES = ("sac", "gaspard", "both")
_SIZES = ("hd", "cif")
_VARIANTS = ("nongeneric", "generic")

#: every subcommand's parsed defaults (``fn`` and ``command`` aside) and
#: every option's choices: the public CLI surface, which reorganising the
#: parser must leave alone
SURFACE = {
    "compile-sac": (
        {"emit": False, "entry": "f", "file": "f.sac", "target": "cuda"},
        {"target": ("cuda", "seq")},
    ),
    "downscale": (
        {"route": "sac", "size": "hd", "variant": "nongeneric"},
        {"route": ("sac", "gaspard"), "size": _SIZES, "variant": _VARIANTS},
    ),
    "experiment": (
        {"frames": 300, "json": False, "size": "hd", "which": "all"},
        {
            "size": _SIZES,
            "which": (
                "table1", "table2", "figure9", "figure12", "claims", "overlap", "all",
            ),
        },
    ),
    "gaspard": ({"emit": False, "size": "hd"}, {"size": _SIZES}),
    "lint": (
        {
            "app": "downscaler", "assert_clean": False, "baseline": None, "entry": None,
            "explain": None, "file": None, "format": "text", "route": "all", "size": "hd",
        },
        {
            "app": ("downscaler", "convolution"), "format": ("text", "json"),
            "route": ("sac", "gaspard", "all"), "size": _SIZES,
        },
    ),
    "metrics": (
        {"format": "text", "frames": 4, "route": "both", "size": "hd"},
        {"format": ("text", "json"), "route": _ROUTES, "size": _SIZES},
    ),
    "opt": (
        {
            "json": False, "no_certify": False, "no_dce": False, "no_fusion": False,
            "no_pooling": False, "no_sibling_fusion": False, "no_transfer_elim": False,
            "route": "both", "size": "hd", "transfers": "per_kernel",
            "variant": "nongeneric",
        },
        {
            "route": _ROUTES, "size": _SIZES, "transfers": ("boundary", "per_kernel"),
            "variant": _VARIANTS,
        },
    ),
    "pipeline": (
        {
            "depth": 2, "devices": 1, "frames": 300, "json": False, "lint": False,
            "no_validate": False, "opt": False, "placement": "round-robin",
            "route": "both", "serialize": False, "size": "hd", "trace": None,
            "variant": "nongeneric",
        },
        {
            "placement": ("round-robin", "least-loaded", "cache-affinity"),
            "route": _ROUTES, "size": _SIZES, "variant": _VARIANTS,
        },
    ),
    "serve": (
        {
            "clients": 8, "deadline_ms": None, "depth": 2, "devices": 1,
            "jitter_seed": None, "json": False, "max_batch": 8, "mode": "open",
            "no_execute": False, "opt": False, "queue_budget": 64, "rate": 200.0,
            "requests": 32, "route": "both", "size": "cif", "slo_ms": 50.0, "tenants": 4,
            "variant": "nongeneric",
        },
        {
            "mode": ("open", "closed"), "route": _ROUTES, "size": _SIZES,
            "variant": _VARIANTS,
        },
    ),
    "trace": (
        {
            "depth": 2, "frames": 4, "opt": False, "out": "trace.json", "route": "both",
            "serialize": False, "size": "hd", "variant": "nongeneric",
        },
        {"route": _ROUTES, "size": _SIZES, "variant": _VARIANTS},
    ),
    "tune": (
        {
            "app": "downscaler", "budget": 200, "devices": 1, "frames": 4, "json": False,
            "route": "both", "seed": 0, "size": "hd",
        },
        {"app": ("downscaler", "convolution"), "route": _ROUTES, "size": _SIZES},
    ),
}

#: the positional arguments a subcommand cannot parse without
_REQUIRED = {"compile-sac": ["f.sac", "--entry", "f"], "experiment": ["all"]}


def test_every_subcommand_keeps_its_defaults_and_choices():
    import argparse

    from repro.cli import build_parser

    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == set(SURFACE)
    for name, subparser in sub.choices.items():
        parsed = vars(parser.parse_args([name, *_REQUIRED.get(name, [])]))
        assert parsed.pop("command") == name
        parsed.pop("fn")
        choices = {
            a.dest: tuple(a.choices) for a in subparser._actions if a.choices is not None
        }
        assert (parsed, choices) == SURFACE[name], name


@pytest.mark.parametrize("argv", [
    "pipeline --size cif --frames -1",
    "metrics --size cif --frames -2",
    "pipeline --size cif --frames 2 --devices 0",
    "pipeline --size cif --frames 2 --depth -1",
    "serve --size cif --max-batch 0 --requests 2",
    "serve --size cif --rate 0 --requests 2",
    "experiment table1 --size cif --frames 0",
    "experiment overlap --size cif --frames 0",
    "tune --app convolution --route sac --budget 2 --frames 0",
    "serve --size cif --mode closed --clients 0 --requests 2",
])
def test_out_of_range_numbers_are_usage_errors(argv, capsys):
    """Rejected by argparse (exit 2), never a traceback (exit 1 would read
    as a lint finding) nor a silently empty run."""
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    assert "must be" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra", [[], ["--lint"], ["--opt"]], ids=["plain", "lint", "opt"]
)
def test_zero_frames_is_an_empty_pipeline_report(extra, capsys):
    import json

    argv = ["pipeline", "--size", "cif", "--frames", "0", "--route", "sac", "--json"]
    assert main(argv + extra) == 0
    entries = [e["report"] for e in json.loads(capsys.readouterr().out)["routes"]]
    assert len(entries) == (2 if "--opt" in extra else 1)
    assert all(r["frames"] == 0 for r in entries)
    if "--lint" in extra:
        assert entries[0]["hazards"] == {
            "runs": 0, "unexpected": [], "schedule_violations": [],
        }
    if "--opt" in extra:
        assert [r["job"] for r in entries] == ["sac-nongeneric", "sac-nongeneric+opt"]
        assert entries[1]["fps_speedup_vs_baseline"] is None
    # the text report says so too, and exits 0
    assert main(argv[:-1] + extra) == 0
    if "--opt" in extra:
        assert "frames/s (n/a)" in capsys.readouterr().out


def test_pipeline_trace_disagreeing_with_its_report_exits_3(tmp_path, monkeypatch, capsys):
    """`pipeline --trace` checks the artefact against the report, as
    `repro trace` does: a busy time that disagrees is a repro error and
    no file is written."""
    import repro.obs

    monkeypatch.setattr(
        repro.obs, "engine_busy_from_trace", lambda doc, pid=None: {"compute": 0.0}
    )
    out = tmp_path / "p.json"
    assert main(
        ["pipeline", "--route", "gaspard", "--size", "cif", "--frames", "2",
         "--trace", str(out)]
    ) == 3
    assert "disagrees with the pipeline report" in capsys.readouterr().err
    assert not out.exists()
