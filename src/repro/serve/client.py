"""Clients for the sweep service.

:class:`SweepClient` is the one transport: blocking and
``http.client``-based, one connection per sweep, NDJSON lines
(``POST /sweep``, see :mod:`repro.serve.http`) surfaced as they arrive.
The experiment CLIs (``repro-experiments --server URL``) and every
client thread of the ``repro-serve smoke`` storm use it.

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
        self.url = url
        self.host, self.port = split_server_url(url)
        self.timeout = timeout

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )

    def stats(self) -> dict:
        return json.loads(
            _peer_request(self.url, "GET", "/stats", timeout=self.timeout)
        )

    def sweep(self, payload: dict) -> Iterator[dict]:
        """POST a sweep spec; yield each NDJSON line as a dict.

        Raises :class:`ServeError` on a non-200 status, on an in-stream
        ``error`` line, if the stream ends without a ``summary``, or if
        the server cannot be reached or drops the connection.
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
        except (OSError, http.client.HTTPException) as exc:
            raise ServeError(f"POST /sweep on {self.url} failed: {exc}") from exc
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
# Peer-to-peer calls (cluster mode: forwarding and jobs).
# All blocking; the service runs them on its thread executor.

def _peer_request(
    url: str,
    method: str,
    path: str,
    payload: dict | None = None,
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
            {"Content-Type": "application/json"},
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


def forward_cell(url: str, cell: dict) -> tuple[str, SimResult]:
    """Resolve one cell on its ring owner (``POST /cell``).

    The owner always resolves a ``/cell`` request locally and never
    forwards it again, so a cell travels at most one hop.
    """
    data = _peer_request(url, "POST", "/cell", payload=cell)
    event = json.loads(data)
    key = event.get("key")
    if not isinstance(key, str):
        raise ServeError(f"peer cell response carries no key: {event!r}")
    return key, decode_result(event)


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
