"""Shared helpers for the sweep-service tests (imported, not a conftest).

Cells are kept tiny (a few hundred instructions) so the suites stay
fast, and services run with ``pools=0`` -- the inline thread-executor
mode -- so no worker processes are spawned.  The HTTP tests get a real
server on an ephemeral port via :class:`ServerThread`, which runs the
asyncio loop on a background thread so the blocking client can be
exercised from test code.
"""

from __future__ import annotations

import asyncio
import threading
from pathlib import Path

import repro
from repro.serve.http import SweepHTTPServer
from repro.serve.service import SweepService
from repro.serve.store import ContentStore
from repro.sim.config import MachineConfig
from repro.sim.parallel import CellSpec

#: The ``src`` directory, for the PYTHONPATH of ``repro.serve`` subprocesses.
SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


def make_spec(
    workload: str = "compress",
    mechanism: str = "traditional",
    user_insts: int = 300,
    warmup_insts: int = 80,
) -> CellSpec:
    return CellSpec(
        workload=workload,
        config=MachineConfig(mechanism=mechanism, idle_threads=1),
        user_insts=user_insts,
        warmup_insts=warmup_insts,
        max_cycles=2_000_000,
    )


def make_grid() -> list[CellSpec]:
    """2 benchmarks x 2 mechanisms, all tiny."""
    return [
        make_spec(bench, mech)
        for bench in ("compress", "murphi")
        for mech in ("traditional", "multithreaded")
    ]


def make_service(
    cache_dir,
    node_url: str | None = None,
    peers: tuple[str, ...] = (),
    jobs_dir=None,
) -> SweepService:
    """An inline (pools=0) service over a store in ``cache_dir``.

    ``node_url`` + ``peers`` put the service in cluster mode (ring
    placement and forwarding); ``jobs_dir`` enables the persistent job
    queue -- the same wiring ``repro-serve serve`` does from its flags.
    """
    from repro.serve.queue import JobQueue

    return SweepService(
        store=ContentStore(cache_dir),
        pools=0,
        node_id=node_url,
        peers=peers,
        queue=JobQueue(jobs_dir) if jobs_dir else None,
    )


class ServerThread:
    """A real :class:`SweepHTTPServer` on a background event loop."""

    def __init__(
        self,
        cache_dir,
        port: int = 0,
        node_url: str | None = None,
        peers: tuple[str, ...] = (),
        jobs_dir=None,
    ) -> None:
        self.server = SweepHTTPServer(
            make_service(
                cache_dir, node_url=node_url, peers=peers, jobs_dir=jobs_dir
            ),
            port=port,
        )
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._started = threading.Event()

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self.server.start())
        self._started.set()
        self.loop.run_forever()

    def __enter__(self) -> "ServerThread":
        self._thread.start()
        assert self._started.wait(timeout=30), "server failed to start"
        return self

    def __exit__(self, *exc_info) -> None:
        future = asyncio.run_coroutine_threadsafe(
            self.server.close(), self.loop
        )
        future.result(timeout=30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=30)
        self.loop.close()

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server.port}"
