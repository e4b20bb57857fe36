"""Simulation-as-a-service: the sweep server (docs/SERVICE.md).

``repro.serve`` promotes the one-shot process-pool runner
(:mod:`repro.sim.parallel`) into a long-running service: an asyncio
HTTP front end (:mod:`repro.serve.http`) accepts sweep specs as JSON,
validates and expands them (:func:`~repro.serve.service.expand_sweep`),
runs cells on one persistent worker pool with in-flight dedupe
(:class:`~repro.serve.service.SweepService`), and serves results from a
size-bounded content-addressed store with LRU eviction and counters
(:class:`~repro.serve.store.ContentStore`).  The blocking client lives
in :mod:`repro.serve.client` and the harness that boots and storms a
local cluster (``repro-serve smoke``) in :mod:`repro.serve.cluster`;
the experiment CLIs reach the service through
``repro-experiments --server URL``.

Layering: ``serve`` sits at the top of the runtime stack (above
``sim``/``engine``/``checkpoint``), beside ``experiments``; nothing
below it may import it (enforced by archlint).
"""

from __future__ import annotations

from repro.serve.client import ServeError, SweepClient, run_cells_via_server
from repro.serve.http import SweepHTTPServer
from repro.serve.service import (
    CellOutcome,
    SweepRequestError,
    SweepService,
    expand_sweep,
)
from repro.serve.store import ContentStore, StoreStats

__all__ = [
    "CellOutcome",
    "ContentStore",
    "ServeError",
    "StoreStats",
    "SweepClient",
    "SweepHTTPServer",
    "SweepRequestError",
    "SweepService",
    "expand_sweep",
    "run_cells_via_server",
]
