"""The service harness, ``repro-serve smoke``, on real server processes.

Every run boots real ``repro-serve serve`` nodes (tiny cells, two pool
workers each), so these are the slowest serve tests; the CI jobs run the
same command at full size.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest

from repro.serve.cli import main
from repro.serve.cluster import gate
from tests.serve.helpers import SRC_DIR

TINY = ["--workers", "2", "--insts", "300", "--warmup", "80"]


@pytest.fixture
def harness_tmp(tmp_path, monkeypatch):
    """Where the harness makes its temp root.  The harness pins
    REPRO_ENGINE/REPRO_CACHE into this process; setting them here first
    lets monkeypatch restore the caller's values afterwards."""
    monkeypatch.setenv("REPRO_ENGINE", "reference")
    monkeypatch.setenv("REPRO_CACHE", "1")
    monkeypatch.setenv("PYTHONPATH", SRC_DIR)  # the nodes import repro
    root = tmp_path / "tmp"
    root.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(root))
    return root


@pytest.mark.parametrize("nodes", [1, 2])
def test_smoke_checks_the_contract_on_real_nodes(nodes, harness_tmp, tmp_path):
    artifacts = tmp_path / "artifacts"
    argv = ["smoke", "--nodes", str(nodes), "--clients", "4", "--reps", "2",
            *TINY, "--artifacts", str(artifacts)]
    assert main(argv) == 0

    report = json.loads((artifacts / "report.json").read_text())
    assert report["failures"] == []
    assert report["job_done"] == report["job_cells"] > 0
    assert report["job_duplicate_done"] == 0
    assert report["warm_sweep_cached"] == report["protocol"]["grid_cells"]
    assert report["cells_per_sec"] > 0
    if nodes > 1:
        assert report["cells_forwarded"] > 0
        assert report["forward_fallbacks"] == 0

    # --workers reaches every node, and every node took sweeps.
    stats = json.loads((artifacts / "stats.json").read_text())
    assert len(stats) == nodes
    for node in stats:
        assert node["workers"] == 2
        assert node["requests"] >= 1

    # The temp root the harness made is gone after a passing run.
    assert Path(report["cluster_dir"]).parent == harness_tmp
    assert not list(harness_tmp.glob("repro-serve-smoke-*"))


def test_failed_run_keeps_its_temp_root(harness_tmp, capsys):
    """One sweep cannot show dedupe: a contract failure exits 1 and
    keeps the node logs."""
    assert main(["smoke", "--clients", "1", *TINY]) == 1
    (kept,) = harness_tmp.glob("repro-serve-smoke-*")
    assert (kept / "node0" / "serve.log").exists()
    err = capsys.readouterr().err
    assert "FAIL: simulated 4 cells" in err
    assert str(kept) in err


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--workload", "nosuch"], "unknown workload 'nosuch'"),
        (["--nodes", "2", "--clients", "1"], "--clients >= --nodes"),
        (["--engine", "bogus"], "unknown engine 'bogus'"),
    ],
)
def test_bad_requests_and_flags_exit_2_before_any_node_boots(
    flags, named, harness_tmp, capsys
):
    assert main(["smoke", *flags, *TINY]) == 2
    assert named in capsys.readouterr().err
    assert not list(harness_tmp.iterdir())


class TestGate:
    def test_a_drop_past_the_bound_fails(self):
        (failure,) = gate({"cells_per_sec": 70.0}, {"cells_per_sec": 100.0}, 0.2)
        assert "regressed past 20%" in failure

    def test_a_baseline_without_cells_per_sec_fails(self):
        assert gate({"cells_per_sec": 70.0}, {"p50_ms": 1.0}, 0.2) == [
            "baseline carries no usable cells_per_sec"
        ]

    def test_the_committed_baseline_passes_within_the_bound(self):
        baseline = json.loads(
            (Path(SRC_DIR).parent / "BENCH_serve.json").read_text()
        )
        fresh = {
            "cells_per_sec": baseline["cells_per_sec"] * 0.85,
            "store_hit_rate": baseline["store_hit_rate"] * 0.85,
        }
        assert gate(fresh, baseline, 0.2) == []
