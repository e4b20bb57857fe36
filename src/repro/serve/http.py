"""Asyncio HTTP/1.1 front end for the sweep service (stdlib only).

A deliberately small server -- request line, headers, Content-Length
body -- because its job is narrow: accept sweep specs as JSON, stream
newline-delimited JSON back, and expose counters.  Routes:

``POST /sweep``
    Body: a sweep spec (see :func:`repro.serve.service.expand_sweep`).
    Response: ``application/x-ndjson``, chunked -- one ``cell`` line per
    resolved cell *as it completes* (ragged order, ``index`` gives the
    spec position), then one ``summary`` line.  Cell lines carry
    headline metrics plus, unless the request set
    ``"include_results": false``, the full pickled
    :class:`~repro.sim.simulator.SimResult` (base64) so clients
    reconstruct bit-identical results.  The lines of cells that resolve
    together -- a request's store hits, or a set of simulations that
    finish at once -- leave in one chunk and one socket write.
``GET /stats``
    Service + store counters as JSON (hits/misses/evictions/in-flight
    dedupes, pool shape, uptime; cluster nodes add ring + queue blocks).
``GET /healthz``
    Liveness probe.

Cluster-mode routes (docs/SERVICE.md "Cluster mode"):

``POST /cell``
    One cell in wire format; resolved *on this node* and returned as a
    single JSON object with its content ``key`` and pickled result.
    This is the peer-forwarding hop: ``/cell`` never forwards, so a
    cell travels at most one hop and routing loops are impossible.
``POST /jobs`` / ``GET /jobs/<id>`` / ``GET /jobs/<id>/results``
    The persistent job queue (:mod:`repro.serve.queue`): submit a sweep
    durably, poll its progress, stream its finished cells as NDJSON out
    of the content store (``?results=0`` drops payloads).

Malformed specs get a 400 with a JSON error body; an internal failure
mid-stream becomes a terminal ``{"kind": "error"}`` line (the status
line may already have been sent).  One connection handles one request
(``Connection: close``), which keeps the protocol state machine
trivial -- concurrency comes from asyncio, not keep-alive.
"""

from __future__ import annotations

import asyncio
import json
from typing import Iterable

from repro.serve.queue import JobError
from repro.serve.service import (
    CellOutcome,
    SweepRequestError,
    SweepService,
    cell_line,
    expand_sweep,
    spec_from_dict,
    summarize,
)

#: Largest accepted request body (sweep specs are small; 8 MiB leaves
#: room for huge explicit cell lists without inviting memory abuse).
MAX_BODY = 8 * 1024 * 1024

#: A chunk of an NDJSON response is written once it holds this many
#: bytes, so a 4,096-cell response never sits whole in memory.
CHUNK_BYTES = 64 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
}


class SweepHTTPServer:
    """Bind a :class:`SweepService` to a TCP port."""

    def __init__(
        self,
        service: SweepService | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service if service is not None else SweepService()
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        # Crash recovery: any job left incomplete by the previous
        # incarnation starts draining again before we take traffic.
        self.service.resume_jobs()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.service.close()

    # -- one connection, one request ------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                method, target, body = await self._read_request(reader)
            except _HTTPError as exc:
                await self._respond_json(
                    writer, exc.status, {"error": exc.message}
                )
                return
            target, _, query = target.partition("?")
            if target == "/healthz" and method == "GET":
                await self._respond_json(writer, 200, {"ok": True})
            elif target == "/stats" and method == "GET":
                await self._respond_json(
                    writer, 200, self.service.stats_dict()
                )
            elif target == "/sweep":
                if method != "POST":
                    await self._respond_json(
                        writer, 405, {"error": "POST /sweep"}
                    )
                else:
                    await self._handle_sweep(writer, body)
            elif target == "/cell" and method == "POST":
                await self._handle_cell(writer, body)
            elif target == "/jobs" and method == "POST":
                await self._handle_job_submit(writer, body)
            elif target.startswith("/jobs/"):
                await self._handle_job_get(writer, method, target, query)
            else:
                await self._respond_json(
                    writer, 404, {"error": f"no route {method} {target}"}
                )
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-stream; nothing to salvage
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, bytes]:
        try:
            request_line = await reader.readline()
        except (ValueError, asyncio.LimitOverrunError):
            raise _HTTPError(400, "request line too long") from None
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise _HTTPError(400, "malformed request line")
        method, target, _version = parts
        content_length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    raise _HTTPError(400, "bad Content-Length") from None
                if content_length < 0:
                    # A negative length would blow up readexactly below,
                    # dropping the connection with no response.
                    raise _HTTPError(400, "bad Content-Length")
        if content_length > MAX_BODY:
            raise _HTTPError(413, f"body over {MAX_BODY} bytes")
        body = (
            await reader.readexactly(content_length)
            if content_length
            else b""
        )
        return method, target, body

    async def _handle_sweep(
        self, writer: asyncio.StreamWriter, body: bytes
    ) -> None:
        try:
            payload = json.loads(body.decode("utf-8") or "null")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            await self._respond_json(
                writer, 400, {"error": f"body is not JSON: {exc}"}
            )
            return
        try:
            specs, options = expand_sweep(payload)
        except SweepRequestError as exc:
            await self._respond_json(writer, 400, {"error": str(exc)})
            return

        out = _LineStream(writer)
        include = options["include_results"]
        outcomes: list[CellOutcome | None] = [None] * len(specs)
        try:
            async for batch in self.service.stream_cells(
                specs, warm=options["warm"]
            ):
                for index, outcome in batch:
                    outcomes[index] = outcome
                await out.send(
                    cell_line(index, outcome, include)
                    for index, outcome in batch
                )
            last = summarize([o for o in outcomes if o is not None])
        except Exception as exc:  # noqa: BLE001 - stream must terminate
            last = {"kind": "error", "error": f"{type(exc).__name__}: {exc}"}
        await out.finish(last)

    # -- cluster routes --------------------------------------------------
    async def _handle_cell(
        self, writer: asyncio.StreamWriter, body: bytes
    ) -> None:
        """The peer-forwarding hop: resolve one cell locally.

        ``forward=False`` always -- a /cell request *is* the forwarded
        hop, so re-forwarding is what the hop bound forbids.  The full
        pickled result always rides back: the caller exists to hand it
        to its own waiters.
        """
        try:
            payload = json.loads(body.decode("utf-8") or "null")
            spec = spec_from_dict(payload)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            await self._respond_json(
                writer, 400, {"error": f"body is not JSON: {exc}"}
            )
            return
        except SweepRequestError as exc:
            await self._respond_json(writer, 400, {"error": str(exc)})
            return
        try:
            outcome = None
            async for batch in self.service.stream_cells(
                [spec], forward=False
            ):
                [(_, outcome)] = batch
            assert outcome is not None
        except Exception as exc:  # noqa: BLE001 - peer must get an answer
            await self._respond_json(
                writer,
                500,
                {"error": f"{type(exc).__name__}: {exc}"},
            )
            return
        await self._respond_json(writer, 200, cell_line(0, outcome, True))

    async def _handle_job_submit(
        self, writer: asyncio.StreamWriter, body: bytes
    ) -> None:
        try:
            payload = json.loads(body.decode("utf-8") or "null")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            await self._respond_json(
                writer, 400, {"error": f"body is not JSON: {exc}"}
            )
            return
        try:
            await self._respond_json(
                writer, 200, self.service.submit_job(payload)
            )
        except SweepRequestError as exc:
            await self._respond_json(writer, 400, {"error": str(exc)})

    async def _handle_job_get(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        target: str,
        query: str,
    ) -> None:
        if method != "GET":
            await self._respond_json(writer, 405, {"error": "GET /jobs/..."})
            return
        parts = target.split("/")  # ["", "jobs", "<id>"(, "results")]
        job_id = parts[2] if len(parts) > 2 else ""
        want_results = len(parts) == 4 and parts[3] == "results"
        if not job_id or len(parts) > 4 or (len(parts) == 4 and not want_results):
            await self._respond_json(
                writer, 404, {"error": f"no route GET {target}"}
            )
            return
        try:
            if not want_results:
                await self._respond_json(
                    writer, 200, self.service.job_status(job_id)
                )
                return
            include = "results=0" not in query
            # Read before the stream starts, so an unknown id is a clean
            # 404, not a broken chunk stream.
            found, last = await self.service.job_results(job_id)
            out = _LineStream(writer)
            try:
                await out.send(
                    cell_line(index, outcome, include)
                    for index, outcome in found
                )
            except Exception as exc:  # noqa: BLE001 - stream must terminate
                last = {"kind": "error", "error": f"{type(exc).__name__}: {exc}"}
            await out.finish(last)
        except (JobError, KeyError):
            await self._respond_json(
                writer, 404, {"error": f"no job {job_id!r}"}
            )
        except SweepRequestError as exc:
            await self._respond_json(writer, 400, {"error": str(exc)})

    # -- wire helpers ----------------------------------------------------
    @staticmethod
    async def _respond_json(
        writer: asyncio.StreamWriter, status: int, obj: dict
    ) -> None:
        """Headers and body in one write."""
        data = _line(obj)
        writer.write(
            _head(
                status,
                {
                    "Content-Type": "application/json",
                    "Content-Length": str(len(data)),
                },
            )
            + data
        )
        await writer.drain()


def _head(status: int, headers: dict[str, str]) -> bytes:
    """The status line and headers of a response."""
    lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}"]
    lines += [f"{k}: {v}" for k, v in headers.items()]
    lines.append("Connection: close")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def _line(obj: dict) -> bytes:
    """One NDJSON line."""
    return (json.dumps(obj, sort_keys=True) + "\n").encode("utf-8")


class _LineStream:
    """A 200 NDJSON response, chunked, in which every write is whole
    chunks: the status line and headers ride on the first write, the
    lines of one :meth:`send` form one chunk (a new one each time it
    reaches :data:`CHUNK_BYTES`), and the last line and the terminating
    chunk share the final write."""

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.head = _head(
            200,
            {
                "Content-Type": "application/x-ndjson",
                "Transfer-Encoding": "chunked",
            },
        )
        self.chunk = bytearray()

    async def send(self, lines: Iterable[dict]) -> None:
        for line in lines:
            self.chunk += _line(line)
            if len(self.chunk) >= CHUNK_BYTES:
                await self._write()
        if self.chunk:
            await self._write()

    async def finish(self, last: dict) -> None:
        self.chunk += _line(last)
        await self._write(b"0\r\n\r\n")

    async def _write(self, tail: bytes = b"") -> None:
        data = b"%s%x\r\n%s\r\n%s" % (self.head, len(self.chunk), self.chunk, tail)
        self.head = b""
        self.chunk = bytearray()
        self.writer.write(data)
        await self.writer.drain()


class _HTTPError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
