"""Clients for the sweep service.

Two transports over the same wire format (``POST /sweep`` returning
chunked NDJSON, see :mod:`repro.serve.http`):

* :class:`SweepClient` -- blocking, ``http.client``-based; what the
  experiment CLIs use (``repro-experiments --server URL``), one
  connection per sweep, lines surfaced as they arrive.
* :func:`async_sweep` -- asyncio streams with a hand-rolled chunked
  reader; lets one process hold hundreds of concurrent sweeps open
  (the CI smoke drives 100 clients through it).

:func:`run_cells_via_server` is the drop-in
:func:`~repro.sim.parallel.run_cells` replacement: it ships
:class:`~repro.sim.parallel.CellSpec` cells to the server and rebuilds
full :class:`~repro.sim.simulator.SimResult` objects from the pickled
payload in each cell line, so callers see bit-identical results whether
cells ran locally or were served.  Only point it at a server you trust:
reconstructing results means unpickling what the server sent.
"""

from __future__ import annotations

import base64
import http.client
import json
import pickle
from typing import Iterator
from urllib.parse import urlsplit

from repro.sim.parallel import CellSpec
from repro.sim.simulator import SimResult


class ServeError(RuntimeError):
    """The server rejected a request or broke the response contract."""


def split_server_url(url: str) -> tuple[str, int]:
    """``(host, port)`` from ``http://host:port``, ``host:port``, or
    ``host`` (default port 8712)."""
    raw = url.strip()
    if "//" not in raw:
        raw = f"//{raw}"
    parts = urlsplit(raw, scheme="http")
    if parts.scheme != "http":
        raise ServeError(f"only http:// servers are supported, got {url!r}")
    if not parts.hostname:
        raise ServeError(f"cannot parse server url {url!r}")
    return parts.hostname, parts.port or 8712


class SweepClient:
    """Blocking client for one sweep server."""

    def __init__(self, url: str, timeout: float = 600.0) -> None:
        self.host, self.port = split_server_url(url)
        self.timeout = timeout

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )

    def stats(self) -> dict:
        conn = self._connect()
        try:
            conn.request("GET", "/stats")
            response = conn.getresponse()
            body = response.read()
            if response.status != 200:
                raise ServeError(
                    f"/stats returned {response.status}: {body.decode()!r}"
                )
            return json.loads(body)
        finally:
            conn.close()

    def sweep(self, payload: dict) -> Iterator[dict]:
        """POST a sweep spec; yield each NDJSON line as a dict.

        Raises :class:`ServeError` on a non-200 status, on an in-stream
        ``error`` line, or if the stream ends without a ``summary``.
        """
        body = json.dumps(payload).encode("utf-8")
        conn = self._connect()
        try:
            conn.request(
                "POST",
                "/sweep",
                body,
                {"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            if response.status != 200:
                detail = response.read().decode("utf-8", "replace").strip()
                raise ServeError(
                    f"/sweep returned {response.status}: {detail}"
                )
            saw_summary = False
            for raw in response:  # http.client de-chunks for us
                line = raw.strip()
                if not line:
                    continue
                event = json.loads(line)
                if event.get("kind") == "error":
                    raise ServeError(f"server error: {event.get('error')}")
                saw_summary = saw_summary or event.get("kind") == "summary"
                yield event
            if not saw_summary:
                raise ServeError("response stream ended without a summary")
        finally:
            conn.close()


def decode_result(event: dict) -> SimResult:
    """Rebuild the full result pickled into a ``cell`` line."""
    try:
        payload = base64.b64decode(event["result_b64"])
    except (KeyError, ValueError) as exc:
        raise ServeError(f"cell line carries no result payload: {exc}") from None
    result = pickle.loads(payload)
    if not isinstance(result, SimResult):
        raise ServeError(f"server returned a {type(result).__name__}")
    return result


def run_cells_via_server(
    url: str, specs: list[CellSpec], warm: bool = False
) -> list[SimResult]:
    """Resolve ``specs`` against a sweep server, in spec order.

    The bit-for-bit equivalent of
    :func:`repro.sim.parallel.run_cells` -- the server runs the same
    cells against the same content-addressed cache keys -- just
    with the simulation happening wherever the server is.
    """
    from repro.serve.service import spec_to_dict

    payload = {
        "cells": [spec_to_dict(spec) for spec in specs],
        "include_results": True,
        "warm": warm,
    }
    results: list[SimResult | None] = [None] * len(specs)
    for event in SweepClient(url).sweep(payload):
        if event.get("kind") != "cell":
            continue
        index = event.get("index")
        if not isinstance(index, int) or not 0 <= index < len(specs):
            raise ServeError(f"cell line has bad index {index!r}")
        results[index] = decode_result(event)
    missing = [i for i, r in enumerate(results) if r is None]
    if missing:
        raise ServeError(f"server never resolved cell(s) {missing}")
    return results  # type: ignore[return-value]


# ----------------------------------------------------------------------
# Peer-to-peer calls (cluster mode: forwarding, warm handoff, jobs).
# All blocking; the service runs them on its thread executor.

def _peer_request(
    url: str,
    method: str,
    path: str,
    payload: dict | None = None,
    headers: dict[str, str] | None = None,
    timeout: float = 600.0,
) -> bytes:
    """One JSON request against a peer; raises :class:`ServeError` on
    any non-200 so callers treat every failure mode as 'owner down'."""
    host, port = split_server_url(url)
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        body = None if payload is None else json.dumps(payload).encode()
        conn.request(
            method,
            path,
            body,
            {"Content-Type": "application/json", **(headers or {})},
        )
        response = conn.getresponse()
        data = response.read()
        if response.status != 200:
            raise ServeError(
                f"{method} {path} on {url} returned {response.status}: "
                f"{data.decode('utf-8', 'replace').strip()}"
            )
        return data
    except (OSError, http.client.HTTPException) as exc:
        raise ServeError(f"{method} {path} on {url} failed: {exc}") from exc
    finally:
        conn.close()


def forward_cell(url: str, cell: dict, hops: int = 1) -> tuple[str, SimResult]:
    """Resolve one cell on its ring owner (``POST /cell``).

    The ``X-Repro-Hops`` header tells the owner this request already
    travelled a hop, so it must resolve locally -- the loop-prevention
    contract that bounds any cell to one forward no matter how
    inconsistent two nodes' peer lists get.
    """
    data = _peer_request(
        url,
        "POST",
        "/cell",
        payload=cell,
        headers={"X-Repro-Hops": str(hops)},
    )
    event = json.loads(data)
    key = event.get("key")
    if not isinstance(key, str):
        raise ServeError(f"peer cell response carries no key: {event!r}")
    return key, decode_result(event)


def fetch_store_keys(url: str) -> list[str]:
    """A peer's published content addresses (``GET /store/keys``)."""
    event = json.loads(_peer_request(url, "GET", "/store/keys"))
    keys = event.get("keys")
    if not isinstance(keys, list):
        raise ServeError(f"bad /store/keys response: {event!r}")
    return [k for k in keys if isinstance(k, str)]


def fetch_store_entries(url: str, keys: list[str]) -> dict[str, tuple[bytes, str]]:
    """Batched raw-entry fetch for warm handoff (``POST /store/fetch``).

    Entries come back as opaque base64 pickle bytes plus a sha-256 of
    those bytes.  The content address hashes the *spec*, not the bytes,
    so the digest rides along to :meth:`ContentStore.put_raw`, which
    verifies the payload before publishing it.  Returns
    ``key -> (bytes, sha256)``; malformed entries are dropped.
    """
    event = json.loads(
        _peer_request(url, "POST", "/store/fetch", payload={"keys": keys})
    )
    entries = event.get("entries")
    if not isinstance(entries, dict):
        raise ServeError(f"bad /store/fetch response: {event!r}")
    out: dict[str, tuple[bytes, str]] = {}
    for key, value in entries.items():
        if not isinstance(value, dict):
            continue
        data, digest = value.get("data"), value.get("sha256")
        if isinstance(data, str) and isinstance(digest, str):
            out[key] = (base64.b64decode(data), digest)
    return out


def submit_job(url: str, payload: dict) -> dict:
    """Durably enqueue a sweep on a node (``POST /jobs``)."""
    return json.loads(_peer_request(url, "POST", "/jobs", payload=payload))


def job_status(url: str, job_id: str) -> dict:
    """Poll one job (``GET /jobs/<id>``)."""
    return json.loads(_peer_request(url, "GET", f"/jobs/{job_id}"))


def job_results(
    url: str, job_id: str, include_results: bool = True
) -> list[dict]:
    """Fetch a job's finished cells (``GET /jobs/<id>/results``) as
    parsed NDJSON lines, ending with the ``job-summary`` line."""
    suffix = "" if include_results else "?results=0"
    data = _peer_request(url, "GET", f"/jobs/{job_id}/results{suffix}")
    return [json.loads(line) for line in data.splitlines() if line.strip()]


# ----------------------------------------------------------------------
# Asyncio transport (used by `repro-serve smoke` for mass concurrency).

async def async_sweep(host: str, port: int, payload: dict) -> list[dict]:
    """One sweep over raw asyncio streams; returns every NDJSON line.

    Hand-rolls the chunked-transfer decode so hundreds of these can run
    concurrently on one loop without threads.
    """
    import asyncio

    body = json.dumps(payload).encode("utf-8")
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            (
                f"POST /sweep HTTP/1.1\r\nHost: {host}:{port}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode("latin-1")
            + body
        )
        await writer.drain()

        status_line = await reader.readline()
        parts = status_line.decode("latin-1").split(maxsplit=2)
        if len(parts) < 2 or parts[1] != "200":
            rest = await reader.read()
            raise ServeError(
                f"/sweep returned {status_line.decode().strip()!r}: "
                f"{rest.decode('utf-8', 'replace').strip()}"
            )
        chunked = False
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if (
                name.strip().lower() == "transfer-encoding"
                and "chunked" in value.lower()
            ):
                chunked = True

        if chunked:
            data = bytearray()
            while True:
                size_line = await reader.readline()
                size = int(size_line.strip().split(b";")[0], 16)
                if size == 0:
                    await reader.readline()  # trailing CRLF
                    break
                data += await reader.readexactly(size)
                await reader.readexactly(2)  # chunk CRLF
        else:
            data = bytearray(await reader.read())

        events = [
            json.loads(line)
            for line in bytes(data).splitlines()
            if line.strip()
        ]
        for event in events:
            if event.get("kind") == "error":
                raise ServeError(f"server error: {event.get('error')}")
        return events
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
