"""The A/B driver's verdict rule (``benchmarks/ab.py``), on canned result
lines from a stubbed runner: no benchmark subprocess runs."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[2]
if str(_ROOT) not in sys.path:
    sys.path.insert(0, str(_ROOT))

from benchmarks import ab  # noqa: E402
from benchmarks.e2e.common import DEFAULT_SEED  # noqa: E402

BENCH = ab.load_benchmark()
BASE = {"setup_s": 0.5, "cells_per_s": 100.0, "latency_p50_ms": 10.0,
        "latency_p90_ms": 20.0, "peak_rss_mb": 80.0}
#: Per-pair host noise: about 4% between the parent's quartiles.
NOISE = [1.00, 1.03, 0.98, 1.01, 0.97, 1.02, 0.99, 1.04, 0.96, 1.00]


def line(i: int, scale: dict | None = None, add: dict | None = None,
         **fields) -> dict:
    """Pair ``i``'s result line: every metric at :data:`BASE` times the
    pair's noise, times ``scale[name]``, plus ``add[name]``."""
    scale, add = scale or {}, add or {}
    metrics = {
        name: {"value": value * NOISE[i] * scale.get(name, 1.0) + add.get(name, 0.0),
               "unit": "u"}
        for name, value in BASE.items()
    }
    return {"correct": True, "attempted": 40, "failed": 0, "metrics": metrics,
            "exit": 0, "digest": "0a252aec76a39a36", "wall_s": 1.0, **fields}


def stub(parent, change, calls: list | None = None):
    """A runner serving ``parent(i)`` / ``change(i)`` for pair ``i``
    (the untimed run gets pair 0's line)."""
    def runner(side, workload, seed, seconds):
        if calls is not None:
            calls.append((side, workload, seed, seconds))
        return (parent if side == "parent" else change)(seed - DEFAULT_SEED)
    return runner


def compare(parent, change) -> dict:
    return ab.compare(["kernel"], stub(parent, change), BENCH)


def same(i):
    return line(i)


def slower(i):
    return line(i, scale={"cells_per_s": 0.9})


def swapped(side):
    """The 10% loss's values, swapped between the sides in odd pairs."""
    return lambda i: (same, slower)[(i + side) % 2](i)


#: name -> (parent, change, verdicts the change's rows must read).
PASSING = {
    "shuffled 10% loss": (swapped(0), swapped(1), {"cells_per_s": "same"}),
    "constant +0.01 MB peak_rss_mb": (
        same, lambda i: line(i, add={"peak_rss_mb": 0.01}), {"peak_rss_mb": "same"}),
    "parent spread wider than the bound": (
        lambda i: line(i, scale={"latency_p50_ms": 1 + i % 2}),
        lambda i: line(i, scale={"latency_p50_ms": 1.3 * (1 + i % 2)}),
        {"latency_p50_ms": "unresolved"}),
    "uniform 10% throughput gain": (
        same, lambda i: line(i, scale={"cells_per_s": 1.1}), {"cells_per_s": "gain"}),
}

#: name -> (parent, change, a substring of the failure).
FAILING = {
    "uniform 10% throughput loss": (same, slower, "cells_per_s loss"),
    "30% latency_p50_ms rise": (
        same, lambda i: line(i, scale={"latency_p50_ms": 1.3}), "latency_p50_ms worse"),
    "every change run worse than every wide parent run": (
        lambda i: line(i, scale={"latency_p50_ms": 1 + i % 2}),
        lambda i: line(i, scale={"latency_p50_ms": 3}), "latency_p50_ms worse"),
    "change not correct": (same, lambda i: line(i, correct=False), "change failed"),
    "change exits non-zero": (same, lambda i: line(i, exit=1), "change failed"),
    "parent not correct": (lambda i: line(i, correct=False), same, "parent failed"),
    "higher failed share": (
        lambda i: line(i, failed=1, correct=False),
        lambda i: line(i, failed=2, correct=False), "failed share rose"),
}


@pytest.mark.parametrize("case", PASSING)
def test_passes(case):
    parent, change, verdicts = PASSING[case]
    report = compare(parent, change)
    assert report["verdict"] == "pass", report["failures"]
    rows = report["workloads"]["kernel"]["metrics"]
    assert {name: rows[name]["verdict"] for name in verdicts} == verdicts


@pytest.mark.parametrize("case", FAILING)
def test_fails(case):
    parent, change, why = FAILING[case]
    report = compare(parent, change)
    assert report["verdict"] == "fail"
    assert any(why in failure for failure in report["failures"]), report["failures"]


def test_loss_counts_the_pairs_lost():
    row = compare(same, slower)["workloads"]["kernel"]["metrics"]["cells_per_s"]
    assert (row["won"], row["lost"]) == (0, ab.PAIRS)
    assert row["worse"] == pytest.approx(0.1)


def test_pairs_alternate_and_share_a_seed():
    calls: list = []
    ab.compare(["kernel", "serve-hot"], stub(same, same, calls), BENCH)
    per_workload = 2 + 2 * ab.PAIRS
    assert len(calls) == 2 * per_workload
    for w, workload in enumerate(["kernel", "serve-hot"]):
        mine = calls[w * per_workload:(w + 1) * per_workload]
        assert {c[1] for c in mine} == {workload}
        warmup, pairs = mine[:2], mine[2:]
        assert sorted(c[0] for c in warmup) == ["change", "parent"]
        assert {c[3] for c in warmup} == {ab.WARMUP_SECONDS}
        for i in range(ab.PAIRS):
            first, second = pairs[2 * i], pairs[2 * i + 1]
            assert first[2] == second[2] == DEFAULT_SEED + i
            assert first[3] == second[3] == BENCH["run_seconds"]
            assert first[0] == ("parent" if i % 2 == 0 else "change")
            assert second[0] != first[0]


def test_unknown_revision_exits_2(capsys):
    assert ab.main(["--against", "no-such-revision-anywhere"]) == 2
    assert "does not resolve" in capsys.readouterr().err


def test_parent_tree_gets_this_checkout_s_benchmark(tmp_path, monkeypatch):
    try:
        sha = ab.resolve("HEAD")
    except ab.BuildError:
        pytest.skip("not a git checkout")
    monkeypatch.setattr(ab, "WORK", tmp_path)
    tree = ab.build_tree(sha)
    assert tree.parent == tmp_path / "ab"
    assert (tree / "src" / "repro" / "__init__.py").is_file()
    for rel in ("BENCHMARK.json", "benchmarks/e2e/run.py", "benchmarks/e2e/golden.json"):
        assert (tree / rel).read_bytes() == (_ROOT / rel).read_bytes()
