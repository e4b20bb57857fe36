import json

from benchmarks.e2e import common, kernel, layers, serve, trace

TWO_CELLS = [("compress", "multithreaded"), ("gcc", "perfect")]


def test_corrupted_golden_entry_counts_as_failed():
    golden = common.load_golden()["kernel"]
    bad = {**golden, "cells": dict(golden["cells"])}
    bad["cells"]["gcc/perfect"] = "0" * 64
    out = kernel.run(7, 0, bad, cells=TWO_CELLS)
    assert out.attempted == 2
    assert out.failed == 1
    assert not out.correct


def test_traced_and_untraced_digests_match(tmp_path):
    golden = common.load_golden()["kernel"]
    plain = kernel.run(7, 0, golden, cells=TWO_CELLS)
    tracer = trace.install(tmp_path)
    try:
        traced = kernel.run(7, 0, golden, tracer=tracer, cells=TWO_CELLS)
    finally:
        trace.uninstall()
    assert plain.correct and traced.correct
    assert traced.results_digest == plain.results_digest
    merged = trace.load(tmp_path)
    assert merged["totals"]["kernel.cell"][0] == 2
    assert merged["totals"]["pipeline.step"][0] > 0
    assert merged["totals"]["exceptions.on_dtlb_miss"][0] > 0
    line, _ = layers.compute(merged, {"rounds": 1, "workers": 1})
    assert sorted(name for name, _, _ in layers.PER_LAYER) == sorted(line)


def test_tiny_serve_cold_simulates_every_cell():
    golden = common.load_golden()["serve"]
    out = serve.run("serve-cold", 11, 1.0, golden, laps=2)
    assert out.correct, out.problems
    assert out.attempted >= 2
    assert out.extra["serve.simulated_frac"][0] == 1.0


def test_benchmark_json_matches_the_code():
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(common.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == common.E2E_UNITS
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == layers.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())
