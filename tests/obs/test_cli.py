"""Smoke tests for ``repro-trace`` / ``python -m repro.obs``."""

import json

import pytest

from repro.obs.cli import main


class TestCli:
    def test_run_writes_valid_trace_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "run.trace.json"
        manifest = tmp_path / "run.json"
        code = main(
            [
                "compress",
                "--mechanism",
                "traditional",
                "--insts",
                "800",
                "--warmup",
                "100",
                "--out",
                str(out),
                "--manifest",
                str(manifest),
                "--attribution",
                "--validate",
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "squash_refetch" in text  # the attribution table printed
        assert "validated 2 file(s): ok" in text
        doc = json.loads(out.read_text())
        assert doc["otherData"]["mechanism"] == "traditional"
        written = json.loads(manifest.read_text())
        assert written["workload"] == ["compress"]
        # repro-trace builds a plain Simulator: the reference kernel.
        assert written["engine_backend"] == "reference"

    def test_mix_runs_as_smt(self, tmp_path):
        out = tmp_path / "mix.trace.json"
        code = main(
            [
                "compress",
                "deltablue",
                "--mechanism",
                "multithreaded",
                "--insts",
                "500",
                "--warmup",
                "100",
                "--out",
                str(out),
                "--validate",
            ]
        )
        assert code == 0
        assert json.loads(out.read_text())["otherData"]["workload"] == [
            "compress",
            "deltablue",
        ]

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit, match="unknown workload"):
            main(["not-a-benchmark"])
