"""End-to-end HTTP: a real server, real sockets, both clients."""

from __future__ import annotations

import dataclasses
import http.client
import json
import os
import subprocess
import sys

import pytest

from repro.serve.client import (
    ServeError,
    SweepClient,
    run_cells_via_server,
    split_server_url,
    submit_job,
)
from repro.serve.service import spec_to_dict
from repro.sim.parallel import run_cell
from tests.serve.helpers import SRC_DIR, ServerThread, make_grid


class TestUrlParsing:
    @pytest.mark.parametrize(
        "url, expected",
        [
            ("http://localhost:8712", ("localhost", 8712)),
            ("localhost:9000", ("localhost", 9000)),
            ("10.0.0.7", ("10.0.0.7", 8712)),
        ],
    )
    def test_accepted_forms(self, url, expected):
        assert split_server_url(url) == expected

    def test_https_is_rejected(self):
        with pytest.raises(ServeError, match="http"):
            split_server_url("https://example.com")


class TestEndToEnd:
    def test_sweep_stats_and_cache_flags(self, tmp_path):
        """One server thread: bit-identity, /stats, warm second sweep,
        and error statuses, all over real sockets."""
        specs = make_grid()[:2]
        with ServerThread(tmp_path) as server:
            # Liveness + empty stats.
            stats = SweepClient(server.url).stats()
            assert stats["kind"] == "repro-serve-stats"
            assert stats["requests"] == 0

            # The drop-in run_cells replacement is bit-identical to the
            # serial in-process path.
            served = run_cells_via_server(server.url, specs)
            for spec, result in zip(specs, served):
                assert dataclasses.asdict(result) == dataclasses.asdict(
                    run_cell(spec)
                )

            # A second sweep of the same cells is all store hits.
            client = SweepClient(server.url)
            events = list(
                client.sweep(
                    {
                        "cells": [spec_to_dict(s) for s in specs],
                        "include_results": False,
                    }
                )
            )
            cells = [e for e in events if e["kind"] == "cell"]
            summary = next(e for e in events if e["kind"] == "summary")
            assert len(cells) == len(specs)
            assert all(c["cached"] for c in cells)
            assert all("result_b64" not in c for c in cells)
            assert summary["cached"] == len(specs)
            assert summary["simulated"] == 0

            stats = client.stats()
            assert stats["cells_simulated"] == len(specs)
            assert stats["cache"]["hits"] >= len(specs)
            assert stats["cache"]["puts"] == len(specs)

            # Malformed sweeps are a 400, not a hung stream.
            with pytest.raises(ServeError, match="400"):
                list(client.sweep({"workloads": ["doom"]}))
            with pytest.raises(ServeError, match="400"):
                list(client.sweep({"warp": 9}))

            # Unknown routes, the two deleted store routes among them,
            # and bad methods.
            store_routes = [("GET", "keys"), ("POST", "fetch")]
            for method, route in [("GET", "/nope")] + [
                (verb, f"/store/{name}") for verb, name in store_routes
            ]:
                conn = http.client.HTTPConnection(
                    "127.0.0.1", server.server.port, timeout=30
                )
                try:
                    conn.request(method, route)
                    assert conn.getresponse().status == 404
                finally:
                    conn.close()
            conn = http.client.HTTPConnection(
                "127.0.0.1", server.server.port, timeout=30
            )
            try:
                conn.request("GET", "/sweep")
                assert conn.getresponse().status == 405
            finally:
                conn.close()

    def test_grid_sweep_over_http(self, tmp_path):
        """Grid-shaped requests expand server-side."""
        with ServerThread(tmp_path) as server:
            events = list(
                SweepClient(server.url).sweep(
                    {
                        "workloads": ["compress"],
                        "mechanisms": ["traditional", "multithreaded"],
                        "user_insts": 300,
                        "warmup_insts": 80,
                        "include_results": False,
                    }
                )
            )
            summary = events[-1]
            assert summary["kind"] == "summary"
            assert summary["cells"] == 2
            mechs = {
                e["mechanism"] for e in events if e["kind"] == "cell"
            }
            assert mechs == {"traditional", "multithreaded"}

    def test_body_must_be_json(self, tmp_path):
        with ServerThread(tmp_path) as server:
            conn = http.client.HTTPConnection(
                "127.0.0.1", server.server.port, timeout=30
            )
            try:
                conn.request("POST", "/sweep", b"not json {")
                response = conn.getresponse()
                assert response.status == 400
                assert "JSON" in json.loads(response.read())["error"]
            finally:
                conn.close()

    def test_negative_content_length_is_a_400(self, tmp_path):
        """A negative Content-Length must get a clean 400, not blow up
        readexactly and drop the connection without a response."""
        with ServerThread(tmp_path) as server:
            conn = http.client.HTTPConnection(
                "127.0.0.1", server.server.port, timeout=30
            )
            try:
                conn.putrequest("POST", "/sweep")
                conn.putheader("Content-Length", "-5")
                conn.endheaders()
                response = conn.getresponse()
                assert response.status == 400
                assert "Content-Length" in json.loads(response.read())["error"]
            finally:
                conn.close()

    def test_malformed_config_is_a_400_on_sweep_and_jobs(self, tmp_path):
        """A config that is not an object is a 400 from both routes that
        expand sweeps -- not a dropped connection."""
        payload = {"workloads": ["compress"], "configs": [[1]]}
        with ServerThread(tmp_path / "store", jobs_dir=tmp_path / "jobs") as server:
            with pytest.raises(ServeError, match="400"):
                list(SweepClient(server.url).sweep(payload))
            with pytest.raises(ServeError, match="400.*must be an object"):
                submit_job(server.url, payload)


class TestCli:
    def test_commands_report_a_down_server_without_a_traceback(self, capsys):
        from repro.serve.cli import main
        from repro.serve.cluster import pick_ports

        (port,) = pick_ports(1)  # free, so nothing is listening there
        url = f"http://127.0.0.1:{port}"
        assert main(["stats", "--server", url]) == 1
        assert main(["sweep", "--server", url]) == 1
        assert "failed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, env, named",
        [
            (["--engine", "bogus"], {}, "bogus"),
            ([], {"REPRO_FAULTS": "garbage"}, "garbage"),
        ],
    )
    def test_serve_rejects_a_bad_engine_or_fault_spec_at_start(
        self, flags, env, named
    ):
        """Not "listening", then an in-stream error on every sweep."""
        proc = subprocess.run(
            [sys.executable, "-m", "repro.serve", "serve",
             "--port", "0", "--pools", "0", *flags],
            capture_output=True,
            text=True,
            timeout=30,
            env={**os.environ, "PYTHONPATH": SRC_DIR, **env},
        )
        assert proc.returncode == 2
        assert named in proc.stderr
