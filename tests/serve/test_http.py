"""End-to-end HTTP: a real server, real sockets, both clients."""

from __future__ import annotations

import base64
import dataclasses
import http.client
import json
import os
import pickle
import socket
import subprocess
import sys

import pytest

from repro.serve.client import (
    ServeError,
    SweepClient,
    decode_result,
    run_cells_via_server,
    split_server_url,
    submit_job,
)
from repro.serve.http import CHUNK_BYTES
from repro.serve.service import spec_to_dict
from repro.sim.parallel import cell_header, run_cell
from tests.serve.helpers import SRC_DIR, ServerThread, make_grid, make_spec


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


def count_transport_writes(monkeypatch) -> list[bytes]:
    """Every write any asyncio socket transport is asked to make."""
    from asyncio.selector_events import _SelectorSocketTransport

    writes: list[bytes] = []
    real = _SelectorSocketTransport.write

    def write(self, data):
        writes.append(bytes(data))
        return real(self, data)

    monkeypatch.setattr(_SelectorSocketTransport, "write", write)
    return writes


def raw_sweep(port: int, payload: dict) -> tuple[bytes, list[bytes]]:
    """POST a sweep over a bare socket; the response head and its body
    chunks as sent (the terminating chunk left out)."""
    body = json.dumps(payload).encode()
    with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
        sock.sendall(
            b"POST /sweep HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(body)
            + body
        )
        data = b""
        while block := sock.recv(1 << 16):
            data += block
    head, _, rest = data.partition(b"\r\n\r\n")
    chunks = []
    while True:
        size_line, _, rest = rest.partition(b"\r\n")
        size = int(size_line, 16)
        if not size:
            return head, chunks
        chunks.append(rest[:size])
        assert rest[size : size + 2] == b"\r\n"
        rest = rest[size + 2 :]


class TestHotPath:
    """A store hit ships the stored bytes: no decode in the node, and a
    request's ready lines leave in one socket write."""

    def test_hit_line_carries_the_stored_payload(self, tmp_path):
        spec = make_spec()
        with ServerThread(tmp_path) as server:
            run_cells_via_server(server.url, [spec])
            entry = server.server.service.store.get(spec)
            (line,) = [
                event
                for event in SweepClient(server.url).sweep(
                    {"cells": [spec_to_dict(spec)]}
                )
                if event["kind"] == "cell"
            ]
        expected = run_cell(spec)
        assert line["cached"]
        assert base64.b64decode(line["result_b64"]) == entry.payload
        assert dataclasses.asdict(decode_result(line)) == dataclasses.asdict(
            expected
        )
        assert entry.header == cell_header(expected)

    def test_all_hit_sweep_unpickles_nothing(self, tmp_path, monkeypatch):
        specs = make_grid()
        with ServerThread(tmp_path) as server:
            run_cells_via_server(server.url, specs)
            unpickled = []
            for name in ("loads", "load"):
                real = getattr(pickle, name)
                monkeypatch.setattr(
                    pickle,
                    name,
                    lambda *a, _real=real, **kw: unpickled.append(1)
                    or _real(*a, **kw),
                )
            events = list(
                SweepClient(server.url).sweep(
                    {"cells": [spec_to_dict(spec) for spec in specs]}
                )
            )
        assert unpickled == []
        cells = [event for event in events if event["kind"] == "cell"]
        assert len(cells) == len(specs)
        assert all(cell["cached"] and cell["result_b64"] for cell in cells)

    def test_all_hit_sweep_is_two_writes(self, tmp_path, monkeypatch):
        """Twenty hits: the head and the cell lines in one write, the
        summary and the terminating chunk in the other."""
        specs = [make_spec(user_insts=300 + n) for n in range(20)]
        with ServerThread(tmp_path) as server:
            result = run_cell(specs[0])
            for spec in specs:
                server.server.service.store.put(spec, result)
            writes = count_transport_writes(monkeypatch)
            head, chunks = raw_sweep(
                server.server.port,
                {"cells": [spec_to_dict(spec) for spec in specs]},
            )
        assert b" 200 " in head
        assert len(writes) == 2
        assert len(chunks) == 2
        assert chunks[0].count(b"\n") == 20
        assert json.loads(chunks[1])["kind"] == "summary"
        assert writes[-1].endswith(b"\r\n0\r\n\r\n")

    def test_big_response_is_split_into_bounded_chunks(
        self, tmp_path, monkeypatch
    ):
        """A 4,096-cell response: each chunk stops at the first line
        that takes it to CHUNK_BYTES, and each is one write."""
        spec = make_spec()
        with ServerThread(tmp_path) as server:
            server.server.service.store.put(spec, run_cell(spec))
            writes = count_transport_writes(monkeypatch)
            head, chunks = raw_sweep(
                server.server.port, {"cells": [spec_to_dict(spec)] * 4096}
            )
        lines = [line for chunk in chunks for line in chunk.splitlines()]
        assert len(lines) == 4097
        assert json.loads(lines[-1])["cells"] == 4096
        for chunk in chunks:
            before_last = chunk[: chunk.rstrip(b"\n").rfind(b"\n") + 1]
            assert len(before_last) < CHUNK_BYTES
        # Full chunks, bar the batch's last one and the summary's.
        assert all(len(chunk) >= CHUNK_BYTES for chunk in chunks[:-2])
        assert len(writes) == len(chunks)


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
