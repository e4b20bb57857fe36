"""Cluster mode in-process: forwarding, handoff endpoints, HTTP jobs.

Two real servers on background loops (:class:`ServerThread` with
pre-picked ports, since ring membership needs every URL up front), so
the peer-forwarding path runs over actual sockets -- the full-fat
multi-process version of this lives in ``repro-serve smoke --nodes 3``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import time

import pytest

from repro.serve.client import (
    ServeError,
    decode_result,
    fetch_store_entries,
    fetch_store_keys,
    forward_cell,
    job_results,
    job_status,
    run_cells_via_server,
    submit_job,
)
from repro.serve.cluster import pick_ports
from repro.serve.service import spec_to_dict
from repro.sim.parallel import derive_warm_cells, run_cell
from tests.serve.helpers import ServerThread, make_grid


@pytest.fixture
def pair(tmp_path):
    """Two peered servers over separate stores."""
    ports = pick_ports(2)
    urls = [f"http://127.0.0.1:{port}" for port in ports]
    with ServerThread(
        tmp_path / "store-a",
        port=ports[0],
        node_url=urls[0],
        peers=(urls[1],),
        jobs_dir=tmp_path / "jobs-a",
    ) as a, ServerThread(
        tmp_path / "store-b",
        port=ports[1],
        node_url=urls[1],
        peers=(urls[0],),
        jobs_dir=tmp_path / "jobs-b",
    ) as b:
        yield a, b


class TestForwarding:
    def test_sweep_spans_the_ring_bit_identically(self, pair):
        a, b = pair
        specs = make_grid()
        served = run_cells_via_server(a.url, specs)
        for spec, result in zip(specs, served):
            assert dataclasses.asdict(result) == dataclasses.asdict(
                run_cell(spec)
            )
        ring = a.server.service.ring
        assert ring is not None
        owned_by_b = [
            spec
            for spec in specs
            if ring.owner(a.server.service.store.key(spec)) != a.url.rstrip()
        ]
        stats_a = a.server.service.stats_dict()
        node_a = stats_a["node"]
        # Every cell node A does not own went over the wire; none fell
        # back (B was healthy throughout).
        assert node_a["forwarded"] == len(owned_by_b)
        assert node_a["fallbacks"] == 0
        assert node_a["owned"] + node_a["forwarded"] == len(specs)
        # A forwarded result is also stored locally, so the whole grid
        # is now a local hit on A.
        keys = {a.server.service.store.key(spec) for spec in specs}
        assert keys <= set(a.server.service.store.keys())

    def test_owner_stores_what_it_resolved(self, pair):
        a, b = pair
        specs = make_grid()
        run_cells_via_server(a.url, specs)
        ring = a.server.service.ring
        store_b = b.server.service.store
        for spec in specs:
            key = a.server.service.store.key(spec)
            if ring.owner(key) == b.url:
                assert key in set(store_b.keys())

    def test_forward_cell_rejects_key_mismatch_clean_path(self, pair):
        """The forwarding client verifies the peer resolved the *same*
        content address -- here the honest case: keys agree."""
        a, b = pair
        spec = make_grid()[0]
        key, result = forward_cell(b.url, spec_to_dict(spec))
        assert key == a.server.service.store.key(spec)
        assert dataclasses.asdict(result) == dataclasses.asdict(
            run_cell(spec)
        )

    def test_wire_warm_cell_is_a_400(self, pair):
        """POST /cell with a non-null ``warm_hash``: warm cells never
        cross the wire, so the peer refuses the cell outright."""
        a, b = pair
        cell = {**spec_to_dict(make_grid()[0]), "warm_hash": "ab" * 8}
        with pytest.raises(ServeError, match="400"):
            forward_cell(b.url, cell)

    def test_warm_sweep_spans_the_ring_bit_identically(
        self, pair, tmp_path, monkeypatch
    ):
        """A ``"warm": true`` sweep submitted to one node: warm cells
        are pinned to the node that derived their checkpoint -- nothing
        is forwarded -- and come back bit-identical to local warm
        runs."""
        monkeypatch.setenv("REPRO_CKPT_DIR", str(tmp_path / "ckpt"))
        a, b = pair
        # 12 distinct cells, so the ring essentially never gives node A
        # all of them and the pin is exercised.
        specs = [
            dataclasses.replace(spec, user_insts=spec.user_insts + delta)
            for delta in (0, 17, 34)
            for spec in make_grid()
        ]
        warm_specs = derive_warm_cells(specs)
        ring, store_a = a.server.service.ring, a.server.service.store
        assert any(ring.owner(store_a.key(ws)) == b.url for ws in warm_specs)
        served = run_cells_via_server(a.url, specs, warm=True)
        for warm_spec, result in zip(warm_specs, served):
            assert dataclasses.asdict(result) == dataclasses.asdict(
                run_cell(warm_spec)
            )
        node_a = a.server.service.stats_dict()["node"]
        assert node_a["fallbacks"] == 0
        assert node_a["forwarded"] == 0
        assert node_a["owned"] == len(specs)

    def test_warm_handoff_pulls_exactly_the_owned_keys(self, pair, tmp_path):
        """A restarted member with an empty store pulls from a peer
        precisely the entries the ring assigns to it -- nothing more."""
        a, b = pair
        specs = make_grid()
        # 12 distinct cells so the ring essentially never assigns the
        # rebuilt node an empty share.
        specs = specs + [
            dataclasses.replace(spec, user_insts=spec.user_insts + delta)
            for delta in (17, 34)
            for spec in specs
        ]
        run_cells_via_server(a.url, specs)

        # A "rebuilt" node with B's ring identity but a fresh store; A
        # holds every key (owner or forwarding replica), so the joiner
        # can pull its share from A alone.
        from tests.serve.helpers import make_service

        joiner = make_service(
            tmp_path / "store-rebuilt", node_url=b.url, peers=(a.url,)
        )
        try:
            pulled = asyncio.run(joiner.warm_handoff())
            keys_a = {a.server.service.store.key(spec) for spec in specs}
            expected = {
                key for key in keys_a if joiner.ring.owner(key) == b.url
            }
            assert pulled == len(expected) > 0
            assert set(joiner.store.keys()) == expected
            assert joiner.handoff_pulled == pulled
        finally:
            joiner.close()

    def test_store_endpoints_serve_raw_entries(self, pair):
        a, b = pair
        specs = make_grid()
        run_cells_via_server(a.url, specs)
        keys = fetch_store_keys(a.url)
        assert set(keys) == {
            a.server.service.store.key(spec) for spec in specs
        }
        entries = fetch_store_entries(a.url, keys[:2])
        assert set(entries) == set(keys[:2])
        for key, (blob, digest) in entries.items():
            assert blob == a.server.service.store.read_raw(key)
            assert digest == hashlib.sha256(blob).hexdigest()


class TestJobsOverHTTP:
    def test_submit_poll_fetch(self, pair):
        a, _ = pair
        specs = make_grid()
        submitted = submit_job(
            a.url,
            {
                "cells": [spec_to_dict(spec) for spec in specs],
                "include_results": False,
            },
        )
        job_id = submitted["job_id"]
        assert submitted["cells"] == len(specs)

        deadline = time.monotonic() + 60
        status = None
        while time.monotonic() < deadline:
            status = job_status(a.url, job_id)
            if status["complete"]:
                break
            time.sleep(0.05)
        assert status and status["complete"], f"job stuck: {status}"
        assert status["done"] == len(specs)
        assert status["duplicate_done"] == 0

        lines = job_results(a.url, job_id, include_results=False)
        cells = [line for line in lines if line["kind"] == "cell"]
        summaries = [line for line in lines if line["kind"] == "job-summary"]
        assert len(cells) == len(specs)
        assert len(summaries) == 1
        assert summaries[0]["complete"] is True
        served = {line["index"]: line["key"] for line in cells}
        for index, spec in enumerate(specs):
            assert served[index] == a.server.service.store.key(spec)

    def test_warm_job_streams_its_results(self, pair, tmp_path, monkeypatch):
        """A job submitted with ``"warm": true`` journals warm-derived
        keys; the results stream must fetch by those journaled keys --
        recomputing cold addresses from the submitted cells would
        miscount every finished cell as evicted."""
        monkeypatch.setenv("REPRO_CKPT_DIR", str(tmp_path / "ckpt"))
        a, _ = pair
        specs = make_grid()[:2]
        submitted = submit_job(
            a.url,
            {"cells": [spec_to_dict(spec) for spec in specs], "warm": True},
        )
        job_id = submitted["job_id"]
        deadline = time.monotonic() + 120
        status = None
        while time.monotonic() < deadline:
            status = job_status(a.url, job_id)
            if status["complete"]:
                break
            time.sleep(0.05)
        assert status and status["complete"], f"warm job stuck: {status}"

        lines = job_results(a.url, job_id)
        cells = [line for line in lines if line["kind"] == "cell"]
        summary = next(l for l in lines if l["kind"] == "job-summary")
        assert len(cells) == len(specs)
        assert summary["streamed"] == len(specs)
        assert summary["evicted"] == 0
        warm_keys = {
            a.server.service.store.key(spec)
            for spec in derive_warm_cells(specs)
        }
        assert {line["key"] for line in cells} == warm_keys
        for line in cells:
            decode_result(line)  # the payload rides along and unpickles

    def test_unknown_job_is_a_clean_error(self, pair):
        a, _ = pair
        with pytest.raises(ServeError, match="404"):
            job_status(a.url, "0" * 16)
