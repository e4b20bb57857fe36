"""The sweep service: one cell executor, in-flight dedupe, warm lineage.

:class:`SweepService` is the long-running heart of ``repro-serve``.  It
accepts sweep specs (a suite x mechanism x config grid, or an explicit
cell list), expands and validates them into
:class:`~repro.sim.parallel.CellSpec` cells, and resolves every cell
through three layers, cheapest first:

1. the **content-addressed store** (:mod:`repro.serve.store`) -- a warm
   cell costs one file read and no decode (its line is built from the
   entry's header and carries the stored payload as read), and a
   request reads all its cells in one call off the event loop;
2. the **in-flight table** -- a cell some other request is already
   simulating is awaited, not re-run, so N clients asking for the same
   cell cost one simulation (the ``inflight_hits`` counter);
3. in cluster mode, the **ring** -- a cold cell whose consistent-hash
   owner (:mod:`repro.serve.ring`) is another node is proxied there
   over one hop and the result verified against its content address;
   an unreachable owner degrades to local execution;
4. the **cell executor** -- remaining cells go to one persistent
   :class:`~repro.sim.parallel.CellPool`, the same executor (and
   recovery ladder) the one-shot runner uses, so results are
   bit-identical to ``run_cells`` by construction.

Sweeps bigger than one connection's patience become persistent *jobs*
(:mod:`repro.serve.queue`): submitted durably, drained in the
background through the same resolution layers, resumable after
``kill -9`` with zero lost or duplicated cells.

Warm-checkpoint lineage rides along: a sweep submitted with
``"warm": true`` is rewritten through
:func:`~repro.sim.parallel.derive_warm_cells`, so a grid sharing a
workload-family prefix with anything previously simulated (served or
local) starts from the saved warm snapshot instead of re-warming, and
the checkpoint hash keys the cell's content address.  Warm cells never
leave the node that derived their checkpoint.

Results are deterministic simulations, so every layer is transparent:
*where* a cell's result came from (store, another request's in-flight
run, a pool worker, or the serial fallback) never changes *what* it is.
"""

from __future__ import annotations

import asyncio
import base64
import dataclasses
import os
import time
from dataclasses import dataclass
from typing import AsyncIterator

from repro.engine import resolve_engine
from repro.serve.queue import JobQueue, JobState
from repro.serve.ring import HashRing
from repro.serve.store import ContentStore, _env_int
from repro.sim.config import MECHANISMS, FUPool, MachineConfig
from repro.sim.parallel import CellEntry, CellPool, CellSpec, derive_warm_cells
from repro.sim.simulator import SimResult
from repro.workloads.suite import BENCHMARK_NAMES


class SweepRequestError(ValueError):
    """A malformed or oversized sweep spec (an HTTP 400, not a crash)."""


# ----------------------------------------------------------------------
# Sweep-spec codec: JSON <-> CellSpec, validated for the trust boundary.

def _build_dataclass(cls, data: dict, where: str):
    """``cls(**data)``, rejecting unknown keys and scalars whose JSON type
    differs from their field's default (``bool`` and ``int`` apart)."""
    if not isinstance(data, dict):
        raise SweepRequestError(f"{where} must be an object, got {data!r}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - set(fields))
    if unknown:
        raise SweepRequestError(
            f"unknown {where} key(s) {', '.join(unknown)}; "
            f"known: {', '.join(sorted(fields))}"
        )
    for name, value in data.items():
        default = fields[name].default
        if default is dataclasses.MISSING and isinstance(value, (bool, int, str)):
            default = fields[name].default_factory()  # faults: REPRO_FAULTS
        if isinstance(default, (bool, int, str)) and type(value) is not type(default):
            raise SweepRequestError(
                f"{where}.{name} must be a {type(default).__name__}, "
                f"got {value!r}"
            )
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        raise SweepRequestError(f"bad {where}: {exc}") from None


def config_to_dict(config: MachineConfig) -> dict:
    """JSON-able form of a machine configuration (asdict, recursively)."""
    return dataclasses.asdict(config)


def config_from_dict(data: dict) -> MachineConfig:
    """Rebuild a :class:`MachineConfig` from JSON, rejecting unknown
    keys and bad values with :class:`SweepRequestError`."""
    from repro.exceptions.limits import LimitKnobs
    from repro.memory.hierarchy import HierarchyConfig

    if not isinstance(data, dict):
        raise SweepRequestError(f"config must be an object, got {data!r}")
    data = dict(data)
    if data.get("fu_pool") is not None:  # null: derive it from the width
        data["fu_pool"] = _build_dataclass(FUPool, data["fu_pool"], "fu_pool")
    for name, cls in (("hierarchy", HierarchyConfig), ("limits", LimitKnobs)):
        if name in data:
            data[name] = _build_dataclass(cls, data[name], name)
    return _build_dataclass(MachineConfig, data, "config")


def _check_workload(workload) -> str | tuple[str, ...]:
    names = (workload,) if isinstance(workload, str) else workload
    if not isinstance(names, (list, tuple)) or not names:
        raise SweepRequestError("workload must be a name or list of names")
    for name in names:
        if name not in BENCHMARK_NAMES:
            raise SweepRequestError(
                f"unknown workload {name!r}; known: "
                f"{', '.join(BENCHMARK_NAMES)}"
            )
    return workload if isinstance(workload, str) else tuple(names)


def _check_length(value, name: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise SweepRequestError(
            f"{name} must be a non-negative integer, got {value!r}"
        )
    return value


def spec_to_dict(spec: CellSpec) -> dict:
    """JSON-able form of one cold cell (the client's wire format; warm
    cells have none, see :func:`spec_from_dict`).

    The config carries the cell's fault plan, so the server runs the
    client's plan, never its own.  The kernel is not sent: the cell runs
    on the server's kernel (the kernels are bit-identical)."""
    if spec.warm_from is not None or spec.warm_hash is not None:
        raise ValueError(
            "warm cells never cross the wire; send the cold cell with "
            '"warm": true'
        )
    return {
        "workload": list(spec.workload)
        if isinstance(spec.workload, tuple)
        else spec.workload,
        "config": config_to_dict(spec.config),
        "user_insts": spec.user_insts,
        "warmup_insts": spec.warmup_insts,
        "max_cycles": spec.max_cycles,
    }


def spec_from_dict(data: dict) -> CellSpec:
    """Rebuild one validated :class:`CellSpec` from its wire format.

    Warm cells are refused: a checkpoint *location* (``warm_from``) is
    meaningless (and unsafe to trust) across the HTTP boundary, and a
    ``warm_hash`` names a checkpoint this node never derived.  A client
    that wants warm sharing sets the sweep-level ``warm`` flag and lets
    the service derive its own checkpoints.  ``"warm_hash": null``,
    which older job files carry, is accepted.
    """
    if not isinstance(data, dict):
        raise SweepRequestError(f"cell must be an object, got {data!r}")
    allowed = {
        "workload", "config", "user_insts", "warmup_insts", "max_cycles",
        "warm_hash",
    }
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise SweepRequestError(f"unknown cell key(s) {', '.join(unknown)}")
    if "workload" not in data:
        raise SweepRequestError("cell is missing its workload")
    if data.get("warm_hash") is not None:
        raise SweepRequestError(
            "warm_hash must be null: warm cells never cross the wire; "
            'send the cold cell with "warm": true'
        )
    return CellSpec(
        workload=_check_workload(data["workload"]),
        config=config_from_dict(data.get("config") or {}),
        user_insts=_check_length(data.get("user_insts", 12_000), "user_insts"),
        warmup_insts=_check_length(
            data.get("warmup_insts", 3_000), "warmup_insts"
        ),
        max_cycles=_check_length(
            data.get("max_cycles", 8_000_000), "max_cycles"
        ),
    )


def max_request_cells() -> int:
    """Largest grid one request may expand to (``REPRO_SERVE_MAX_CELLS``,
    default 4096; 0 = unlimited)."""
    return _env_int("REPRO_SERVE_MAX_CELLS", 4096)


def expand_sweep(payload: dict) -> tuple[list[CellSpec], dict]:
    """Validate a sweep request and expand it into cells.

    Two shapes are accepted: a *grid* (``workloads`` x ``mechanisms`` x
    ``configs`` with shared run lengths) and an explicit ``cells`` list
    (the experiment clients' shape).  Returns ``(specs, options)`` where
    options carries the request-level flags (``warm``,
    ``include_results``).
    """
    if not isinstance(payload, dict):
        raise SweepRequestError("sweep spec must be a JSON object")
    allowed = {
        "cells", "workloads", "mechanisms", "configs",
        "user_insts", "warmup_insts", "max_cycles",
        "warm", "include_results",
    }
    unknown = sorted(set(payload) - allowed)
    if unknown:
        raise SweepRequestError(
            f"unknown sweep key(s) {', '.join(unknown)}; "
            f"known: {', '.join(sorted(allowed))}"
        )
    options = {
        "warm": payload.get("warm", False),
        "include_results": payload.get("include_results", True),
    }
    for flag, value in options.items():
        if not isinstance(value, bool):
            raise SweepRequestError(f"{flag} must be true or false, got {value!r}")

    if "cells" in payload:
        cells = payload["cells"]
        if not isinstance(cells, list) or not cells:
            raise SweepRequestError("cells must be a non-empty list")
        specs = [spec_from_dict(cell) for cell in cells]
    else:
        workloads = payload.get("workloads")
        if not isinstance(workloads, list) or not workloads:
            raise SweepRequestError(
                "a grid sweep needs a non-empty workloads list"
            )
        mechanisms = payload.get("mechanisms", ["multithreaded"])
        if not isinstance(mechanisms, list) or not mechanisms:
            raise SweepRequestError("mechanisms must be a non-empty list")
        for mech in mechanisms:
            if mech not in MECHANISMS:
                raise SweepRequestError(
                    f"unknown mechanism {mech!r}; known: "
                    f"{', '.join(MECHANISMS)}"
                )
        configs = payload.get("configs", [{}])
        if not isinstance(configs, list) or not configs:
            raise SweepRequestError("configs must be a non-empty list")
        for overrides in configs:
            if not isinstance(overrides, dict):
                raise SweepRequestError(
                    f"each config must be an object, got {overrides!r}"
                )
        user_insts = _check_length(payload.get("user_insts", 12_000), "user_insts")
        warmup = _check_length(payload.get("warmup_insts", 3_000), "warmup_insts")
        max_cycles = _check_length(
            payload.get("max_cycles", 8_000_000), "max_cycles"
        )
        checked = [_check_workload(workload) for workload in workloads]
        # One config per (override, mechanism), shared by every workload:
        # nothing mutates a config in place.
        grid = [
            config_from_dict({**overrides, "mechanism": mech})
            for overrides in configs
            for mech in mechanisms
        ]
        specs = [
            CellSpec(
                workload=workload,
                config=config,
                user_insts=user_insts,
                warmup_insts=warmup,
                max_cycles=max_cycles,
            )
            for workload in checked
            for config in grid
        ]
    limit = max_request_cells()
    if limit and len(specs) > limit:
        raise SweepRequestError(
            f"sweep expands to {len(specs)} cells, over the "
            f"REPRO_SERVE_MAX_CELLS limit of {limit}"
        )
    return specs, options


# ----------------------------------------------------------------------

@dataclass
class CellOutcome:
    """One resolved cell and how it was resolved.

    Lines and summaries read only ``entry``: its header and its pickled
    payload as stored.
    """

    spec: CellSpec
    key: str
    entry: CellEntry
    #: Served straight from the content-addressed store.
    cached: bool = False
    #: Shared a simulation another request (or an earlier duplicate in
    #: this one) already had in flight.
    deduped: bool = False

    @property
    def result(self) -> SimResult | None:
        """The payload decoded (see :meth:`CellEntry.decode`)."""
        return self.entry.decode()


def default_pools() -> int:
    """``REPRO_SERVE_POOLS``: 1 (the default) runs cells in a worker
    pool, 0 in process (tests and tiny deployments)."""
    return _env_int("REPRO_SERVE_POOLS", 1)


def default_workers() -> int:
    """Pool processes from ``REPRO_SERVE_WORKERS`` (0/unset = CPU
    count)."""
    return _env_int("REPRO_SERVE_WORKERS", 0)


class SweepService:
    """Long-running sweep resolver over one persistent cell executor.

    Single-event-loop object: every public coroutine must run on the
    loop the service was started on.  Simulation and store I/O are
    pushed off the loop (the :class:`~repro.sim.parallel.CellPool` and
    the default thread pool), so the loop itself only routes cells and
    streams results.
    """

    def __init__(
        self,
        store: ContentStore | None = None,
        pools: int | None = None,
        workers: int | None = None,
        node_id: str | None = None,
        peers: list[str] | tuple[str, ...] = (),
        queue: JobQueue | None = None,
    ) -> None:
        self.store = store if store is not None else ContentStore()
        self.pools = default_pools() if pools is None else pools
        if self.pools not in (0, 1):
            raise ValueError(
                f"pools must be 0 (in process) or 1 (one worker pool), "
                f"got {self.pools}"
            )
        self.workers = default_workers() if workers is None else workers
        # REPRO_ENGINE and REPRO_FAULTS are the defaults of every spec
        # and config this node builds (grid sweeps); check them now, at
        # start, rather than in every such cell.
        resolve_engine()
        MachineConfig()
        #: The one cell executor (it validates its knobs now, at start).
        self.pool = CellPool(
            (self.workers or os.cpu_count() or 1) if self.pools else 0
        )
        self.started = time.time()
        self.requests = 0
        self.cells_requested = 0
        self.cells_simulated = 0
        #: content address -> future resolving to the cell's entry.
        self._inflight: dict[str, asyncio.Future] = {}
        # -- cluster membership (docs/SERVICE.md "Cluster mode") --------
        #: This node's advertised base URL; None = single-host mode.
        self.node_id = node_id
        self.peers = [p for p in peers if p and p != node_id]
        #: Placement is pure ring arithmetic over the member list, so
        #: every node routes identically with zero coordination.
        self.ring: HashRing | None = (
            HashRing([node_id, *self.peers])
            if node_id and self.peers
            else None
        )
        self.cells_owned = 0
        self.cells_forwarded = 0
        self.forward_fallbacks = 0
        if self.node_id:
            # Manifests published by this store now carry the node's
            # identity + routing counters (obs.manifest "node" block).
            self.store.node_info = self.node_info
        #: Persistent job queue (None = /jobs disabled).
        self.queue = queue
        self._job_tasks: dict[str, asyncio.Task] = {}

    def close(self) -> None:
        """Tear down the cell executor and job drains (idempotent).

        Job *state* survives closing by construction -- everything
        durable is already on disk -- so cancelled drains resume on the
        next start (:meth:`resume_jobs`).
        """
        for task in self._job_tasks.values():
            if not task.done():
                task.cancel()
        self._job_tasks = {}
        self.pool.close()

    # -- resolution -----------------------------------------------------
    async def stream_cells(
        self,
        specs: list[CellSpec],
        warm: bool = False,
        forward: bool = True,
    ) -> AsyncIterator[list[tuple[int, CellOutcome]]]:
        """Resolve ``specs``, yielding batches of ``(index, outcome)``:
        first every store hit of the request, then each set of cells
        that complete together (ragged order; indices are spec
        positions).

        In cluster mode, cold cells whose ring owner is another node are
        proxied there (``forward=False`` pins everything local -- the
        handler for already-forwarded requests, which is what bounds
        every cell to at most one hop).  A warm cell always runs here,
        where its checkpoint was derived.
        """
        loop = asyncio.get_running_loop()
        if warm:
            # Warm derivation builds checkpoints (serial simulations);
            # off the loop.  Existing checkpoints make this a hash probe.
            specs = await loop.run_in_executor(None, derive_warm_cells, specs)
        self.requests += 1
        self.cells_requested += len(specs)

        keys = [self.store.key(spec) for spec in specs]
        # One executor call reads every entry of the request: a hot
        # sweep pays one thread round trip, not one per cell.
        hits = await loop.run_in_executor(
            None, lambda: [self.store.get(spec) for spec in specs]
        )
        ready: list[tuple[int, CellOutcome]] = []
        waiting: list[tuple[int, CellSpec, str, bool, asyncio.Future]] = []
        to_start: list[tuple[str, CellSpec]] = []
        to_forward: list[tuple[str, CellSpec, str]] = []
        # No await from here on: misses are registered in flight in the
        # same pass that sorts them from the hits.
        for index, (spec, key, hit) in enumerate(zip(specs, keys, hits)):
            if hit is not None:
                ready.append(
                    (index, CellOutcome(spec, key, hit, cached=True))
                )
                continue
            future = self._inflight.get(key)
            if future is not None:
                # Someone (another request, or an earlier duplicate in
                # this one) is already simulating this exact cell.
                self.store.stats.inflight_hits += 1
                waiting.append((index, spec, key, True, future))
                continue
            future = loop.create_future()
            self._inflight[key] = future
            owner = self._owner_of(key) if forward and spec.warm_from is None else None
            if owner is not None:
                to_forward.append((key, spec, owner))
            else:
                if self.ring is not None:
                    self.cells_owned += 1
                to_start.append((key, spec))
            waiting.append((index, spec, key, False, future))

        for key, spec in to_start:
            asyncio.ensure_future(self._simulate(key, spec))
        for key, spec, owner in to_forward:
            asyncio.ensure_future(self._forward_cell(key, spec, owner))

        if ready:
            yield ready
        pending = {
            asyncio.ensure_future(self._await_cell(*entry)): None
            for entry in waiting
        }
        while pending:
            done, _ = await asyncio.wait(
                pending, return_when=asyncio.FIRST_COMPLETED
            )
            for task in done:
                del pending[task]
            yield [task.result() for task in done]

    async def run_cells(
        self, specs: list[CellSpec], warm: bool = False
    ) -> list[CellOutcome]:
        """Resolve ``specs`` and return outcomes in spec order."""
        outcomes: list[CellOutcome | None] = [None] * len(specs)
        async for batch in self.stream_cells(specs, warm=warm):
            for index, outcome in batch:
                outcomes[index] = outcome
        return outcomes  # type: ignore[return-value]

    # -- cluster routing ------------------------------------------------
    def _owner_of(self, key: str) -> str | None:
        """The peer that owns ``key``, or None when this node does (or
        when there is no cluster)."""
        if self.ring is None:
            return None
        owner = self.ring.owner(key)
        return None if owner == self.node_id else owner

    async def _forward_cell(
        self, key: str, spec: CellSpec, owner: str
    ) -> None:
        """Proxy one cell to its ring owner; fall back to local
        execution if the owner is unreachable or misbehaves.

        The returned result must file under the *same* content address
        we computed -- that equality is the proof the owner simulated
        the identical cell under identical sources, and what makes
        forwarding transparent to every waiter.
        """
        from repro.serve.client import ServeError, forward_cell

        loop = asyncio.get_running_loop()
        try:
            remote_key, result = await loop.run_in_executor(
                None, forward_cell, owner, spec_to_dict(spec)
            )
            if remote_key != key:
                raise ServeError(
                    f"owner {owner} returned key {remote_key}, wanted {key}"
                )
        except Exception:
            # Owner death (or disagreement) degrades to local execution:
            # any node can resolve any cell, the ring is only the fast
            # path that keeps stores disjoint-ish.
            self.forward_fallbacks += 1
            if self.ring is not None:
                self.cells_owned += 1
            await self._simulate(key, spec)
            return
        self.cells_forwarded += 1
        # Keep a local copy: the forwarding node becomes a replica, so
        # repeat sweeps here are store hits and the cell survives the
        # owner's death.
        entry = await loop.run_in_executor(None, self._file_result, spec, result)
        self._publish(key, entry)

    def node_info(self) -> dict:
        """This node's identity + routing counters (manifest ``node``
        block and the ``node`` section of ``/stats``)."""
        return {
            "node_id": self.node_id or "",
            "peers": len(self.peers),
            "owned": self.cells_owned,
            "forwarded": self.cells_forwarded,
            "fallbacks": self.forward_fallbacks,
        }

    @staticmethod
    async def _await_cell(
        index: int,
        spec: CellSpec,
        key: str,
        deduped: bool,
        future: asyncio.Future,
    ) -> tuple[int, CellOutcome]:
        entry = await asyncio.shield(future)
        return index, CellOutcome(spec, key, entry, deduped=deduped)

    # -- persistent jobs ------------------------------------------------
    def submit_job(self, payload: dict) -> dict:
        """Validate a sweep spec, durably enqueue it, and start its
        background drain; returns the ``POST /jobs`` response body."""
        if self.queue is None:
            raise SweepRequestError("this node has no job queue enabled")
        specs, options = expand_sweep(payload)
        job_id = self.queue.submit(
            [spec_to_dict(spec) for spec in specs], options
        )
        self._start_drain(job_id)
        return {"kind": "repro-serve-job", "job_id": job_id,
                "cells": len(specs)}

    def job_state(self, job_id: str) -> JobState:
        if self.queue is None:
            raise SweepRequestError("this node has no job queue enabled")
        return self.queue.load(job_id)

    def job_status(self, job_id: str) -> dict:
        task = self._job_tasks.get(job_id)
        return {
            **self.job_state(job_id).status_dict(),
            "draining": task is not None and not task.done(),
        }

    def resume_jobs(self) -> list[str]:
        """Restart the drain of every incomplete job on disk (called at
        service start; this is the ``kill -9`` resume path)."""
        if self.queue is None:
            return []
        resumed = []
        for job_id in self.queue.jobs():
            if not self.queue.load(job_id).complete:
                self._start_drain(job_id)
                resumed.append(job_id)
        return resumed

    def _start_drain(self, job_id: str) -> None:
        task = self._job_tasks.get(job_id)
        if task is not None and not task.done():
            return  # already draining in this process
        self._job_tasks[job_id] = asyncio.ensure_future(
            self._drain_job(job_id)
        )

    async def _drain_job(self, job_id: str) -> None:
        """Resolve every pending cell of one job, journaling each
        completion durably before anything else observes it.

        Claims make concurrent drains (two incarnations racing around a
        restart) mutually exclusive per cell; the journal makes every
        completion exactly-once; the content-addressed store makes the
        rare claimed-but-unjournaled replay a cache read, not a second
        simulation.
        """
        assert self.queue is not None
        loop = asyncio.get_running_loop()
        state = await loop.run_in_executor(None, self.queue.load, job_id)
        # Decode before claiming, so a bad cell strands no live claims.
        specs = {index: spec_from_dict(state.cells[index]) for index in state.pending}
        claimed = [
            index
            for index in state.pending
            if await loop.run_in_executor(
                None, self.queue.claim, job_id, index
            )
        ]
        if not claimed:
            return
        finished: set[int] = set()
        try:
            async for batch in self.stream_cells(
                [specs[index] for index in claimed],
                warm=bool(state.options.get("warm", False)),
            ):
                for pos, outcome in batch:
                    index = claimed[pos]
                    await loop.run_in_executor(
                        None, self.queue.mark_done, job_id, index, outcome.key
                    )
                    finished.add(index)
        finally:
            # A failed drain (a deterministically-erroring cell, or
            # shutdown) must not wedge its unfinished claims: release
            # them so the next drain -- ours or a restarted node's --
            # can take over.
            for index in claimed:
                if index not in finished:
                    await loop.run_in_executor(
                        None, self.queue.release, job_id, index
                    )

    async def job_results(
        self, job_id: str
    ) -> tuple[list[tuple[int, CellOutcome]], dict]:
        """What ``GET /jobs/<id>/results`` streams: every finished cell
        still in the content store, in index order, read in one
        executor call with no decode, and the job-summary line."""
        loop = asyncio.get_running_loop()
        state = self.job_state(job_id)
        # Fetch by the *journaled* key: a warm drain resolves cells
        # under warm-derived addresses, so recomputing the address from
        # the cold wire spec would miss every one of them.
        done = sorted(state.done.items())
        entries = await loop.run_in_executor(
            None, lambda: [self.store.read(key) for _, key in done]
        )
        found = [
            (index, CellOutcome(
                spec_from_dict(state.cells[index]), key, entry, cached=True
            ))
            for (index, key), entry in zip(done, entries)
            if entry is not None  # evicted (or damaged) since completion
        ]
        return found, {
            "kind": "job-summary",
            "job_id": job_id,
            "cells": state.total,
            "done": len(state.done),
            "streamed": len(found),
            "evicted": len(done) - len(found),
            "duplicate_done": state.duplicate_done,
            "complete": state.complete,
        }

    # -- simulation -----------------------------------------------------
    async def _simulate(self, key: str, spec: CellSpec) -> None:
        """Run one cell on the executor and publish it to its waiters.

        How a cell runs and recovers is the executor's business (see
        :class:`~repro.sim.parallel.CellPool`).  A cell that still fails
        resolves every waiter with its error (re-running it could only
        fail identically), never hangs them.
        """
        try:
            result = await asyncio.wrap_future(self.pool.submit(spec))
        except Exception as exc:
            self._publish(key, error=exc)
            return
        loop = asyncio.get_running_loop()
        entry = await loop.run_in_executor(None, self._file_result, spec, result)
        self.cells_simulated += 1
        self._publish(key, entry)

    def _file_result(self, spec: CellSpec, result: SimResult) -> CellEntry:
        """(Executor thread.)  Store a result this node holds; the
        entry's payload is the one pickle of it, made even when the
        store is disabled."""
        return self.store.put(spec, result) or CellEntry.of(result)

    def _publish(
        self,
        key: str,
        entry: CellEntry | None = None,
        error: Exception | None = None,
    ) -> None:
        """Hand an in-flight cell's entry (or error) to its waiters."""
        future = self._inflight.pop(key, None)
        if future is None or future.done():
            return
        if error is None:
            future.set_result(entry)
        else:
            future.set_exception(error)

    # -- stats ----------------------------------------------------------
    def stats_dict(self) -> dict:
        stats = {
            "kind": "repro-serve-stats",
            "uptime_s": round(time.time() - self.started, 3),
            "pools": self.pools,
            "workers": self.workers,
            "requests": self.requests,
            "cells_requested": self.cells_requested,
            "cells_simulated": self.cells_simulated,
            "inflight": len(self._inflight),
            "cache": self.store.stats_dict(),
        }
        if self.node_id:
            stats["node"] = {**self.node_info(), "peer_urls": self.peers}
        if self.queue is not None:
            jobs = self.queue.jobs()
            stats["jobs"] = {
                "total": len(jobs),
                "draining": sum(
                    1 for t in self._job_tasks.values() if not t.done()
                ),
            }
        return stats


def cell_line(
    index: int, outcome: CellOutcome, include_results: bool
) -> dict:
    """The NDJSON line for one resolved cell (sweeps, ``/cell`` and job
    results all stream this one format), built from the entry's header;
    ``result_b64`` is the stored payload, not a fresh pickle."""
    header = outcome.entry.header
    line = {
        "kind": "cell",
        "index": index,
        "key": outcome.key,
        "workload": list(outcome.spec.workload)
        if isinstance(outcome.spec.workload, tuple)
        else outcome.spec.workload,
        "mechanism": outcome.spec.config.mechanism,
        "cycles": header["cycles"],
        "retired_user": header["retired_user"],
        "committed_fills": header["committed_fills"],
        "ipc": header["ipc"],
        "cached": outcome.cached,
        "deduped": outcome.deduped,
    }
    if include_results:
        line["result_b64"] = base64.b64encode(outcome.entry.payload).decode(
            "ascii"
        )
    return line


def summarize(outcomes: list[CellOutcome]) -> dict:
    """The final Table-3-style summary line of a sweep response: one row
    per cell with its header (headline metrics and per-cause exception
    counts), plus resolution totals."""
    rows = [
        {
            "workload": list(o.spec.workload)
            if isinstance(o.spec.workload, tuple)
            else o.spec.workload,
            "mechanism": o.spec.config.mechanism,
            **o.entry.header,
        }
        for o in outcomes
    ]
    return {
        "kind": "summary",
        "cells": len(outcomes),
        "cached": sum(o.cached for o in outcomes),
        "deduped": sum(o.deduped for o in outcomes),
        "simulated": sum(
            not o.cached and not o.deduped for o in outcomes
        ),
        "table": rows,
    }
