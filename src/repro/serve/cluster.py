"""The service harness: a real local cluster, one storm, one report.

``repro-serve smoke`` (:func:`run_smoke`) is the executable form of the
sweep service's contract, for any N >= 1 nodes.  It boots N real
``repro-serve serve`` processes under :class:`LocalCluster` and then:

1. **storm** -- ``clients`` threads each send ``reps`` sweeps of one
   overlapping grid, client ``i``'s sweep ``r`` to node ``(i + r) % N``.
   With at least N clients every node receives the whole grid in the
   first round, so with N >= 2 every cell reaches a node that does not
   own it and must forward it to its ring owner;
2. **stats** -- every node's ``/stats``; the throughput, dedupe and
   hit-rate numbers of the report come from this read;
3. **contract** -- every sweep saw the whole grid and one summary; the
   grid was simulated once-ish (``grid <= simulated < requested``); the
   store reported hits; identical cells gave identical cycles; with
   N >= 2, cells were forwarded and none fell back to local execution;
4. **bit-identity** -- a follow-up sweep to node 0 is served entirely
   from its store, and every payload equals a serial in-process
   :func:`~repro.sim.parallel.run_cell`, field by field;
5. **kill -9 resume** -- a persistent job's node is SIGKILLed mid-drain
   and restarted; the job finishes with zero lost and zero duplicated
   cells, each under the locally computed content address.

The report can be gated against a committed one (``BENCH_serve.json``)
with :func:`gate`, the ``--baseline/--max-drop`` pattern perfbench uses.

Every run is hermetic: the engine backend is resolved once
(``--engine``, else ``REPRO_ENGINE``, else the fused kernel) and
pinned, with ``REPRO_CACHE=1``, into this process and every node before
anything starts, so a stray parent variable cannot change what a run
measures and the in-process oracle runs the kernel the nodes did.

Ports are pre-picked (bound to 0, then released) because consistent
hashing needs every member's advertised URL *before* any member starts;
the bind-release race is real but vanishing on a CI host, and
:meth:`LocalCluster.start` fails loudly if a node never turns healthy.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path

from repro.engine import resolve_engine
from repro.serve.client import (
    ServeError,
    SweepClient,
    decode_result,
    job_results,
    job_status,
    submit_job,
)
from repro.serve.service import expand_sweep, spec_to_dict
from repro.serve.store import ContentStore
from repro.sim.parallel import CellSpec, run_cell


class ClusterError(RuntimeError):
    """A node failed to boot, respond, or die on request."""


def pick_ports(count: int) -> list[int]:
    """``count`` distinct free TCP ports, all held until chosen."""
    sockets = []
    try:
        for _ in range(count):
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind(("127.0.0.1", 0))
            sockets.append(sock)
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


def _stats(url: str, timeout: float) -> dict | None:
    """A node's ``/stats``, or None when it does not answer."""
    try:
        return SweepClient(url, timeout=timeout).stats()
    except ServeError:
        return None


@dataclass
class ClusterNode:
    """One member process and everything needed to restart it."""

    index: int
    url: str
    port: int
    cache_dir: Path
    jobs_dir: Path
    log_path: Path
    process: subprocess.Popen | None = None

    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None


class LocalCluster:
    """N real server processes on localhost, each with its own store,
    job queue and log, and every other node in its ``--peer`` list --
    the full cluster stack, with all the "machines" on one host."""

    def __init__(
        self,
        root: str | Path,
        nodes: int = 3,
        workers: int = 1,
        env: dict[str, str] | None = None,
    ) -> None:
        if nodes < 1:
            raise ValueError(f"need at least one node, got {nodes}")
        self.root = Path(root)
        self.workers = workers
        #: Extra environment for every node (the hermetic pins).
        self.env = dict(env or {})
        self.nodes: list[ClusterNode] = []
        for index, port in enumerate(pick_ports(nodes)):
            node_dir = self.root / f"node{index}"
            self.nodes.append(
                ClusterNode(
                    index=index,
                    url=f"http://127.0.0.1:{port}",
                    port=port,
                    cache_dir=node_dir / "store",
                    jobs_dir=node_dir / "jobs",
                    log_path=node_dir / "serve.log",
                )
            )

    @property
    def urls(self) -> list[str]:
        return [node.url for node in self.nodes]

    # ------------------------------------------------------------------
    def _argv(self, node: ClusterNode) -> list[str]:
        argv = [
            sys.executable, "-m", "repro.serve", "serve",
            "--host", "127.0.0.1",
            "--port", str(node.port),
            "--node-url", node.url,
            "--cache-dir", str(node.cache_dir),
            "--jobs-dir", str(node.jobs_dir),
            "--pools", "1",
            "--workers", str(self.workers),
        ]
        for peer in self.nodes:
            if peer.index != node.index:
                argv += ["--peer", peer.url]
        return argv

    def launch(self, node: ClusterNode) -> None:
        node.cache_dir.mkdir(parents=True, exist_ok=True)
        node.jobs_dir.mkdir(parents=True, exist_ok=True)
        log = node.log_path.open("ab")
        try:
            # Own session => own process group: killing the node kills
            # its forked pool workers too, which otherwise outlive a
            # SIGKILLed parent and keep its port bound against restart.
            node.process = subprocess.Popen(
                self._argv(node),
                stdout=log,
                stderr=subprocess.STDOUT,
                env={**os.environ, **self.env},
                start_new_session=True,
            )
        finally:
            log.close()  # the child holds its own descriptor

    def start(self, timeout: float = 60.0) -> "LocalCluster":
        for node in self.nodes:
            self.launch(node)
        try:
            self.wait_healthy(timeout=timeout)
        except ClusterError:
            self.stop()  # the nodes that did boot must not outlive us
            raise
        return self

    def wait_healthy(
        self, timeout: float = 60.0, indices: list[int] | None = None
    ) -> None:
        deadline = time.monotonic() + timeout
        todo = list(self.nodes if indices is None else
                    (self.nodes[i] for i in indices))
        for node in todo:
            while _stats(node.url, timeout=2.0) is None:
                if not node.alive():
                    raise ClusterError(
                        f"node {node.index} exited with "
                        f"{node.process.returncode if node.process else '?'} "
                        f"(log: {node.log_path})"
                    )
                if time.monotonic() > deadline:
                    raise ClusterError(
                        f"node {node.index} never became healthy "
                        f"(log: {node.log_path})"
                    )
                time.sleep(0.05)

    # ------------------------------------------------------------------
    @staticmethod
    def _killpg(node: ClusterNode, sig: int) -> None:
        if node.process is None:
            return
        try:
            os.killpg(node.process.pid, sig)  # session leader: pgid == pid
        except ProcessLookupError:
            pass

    def kill(self, index: int) -> None:
        """SIGKILL one node (and its worker group) -- no shutdown hooks
        run, by design: this is the crash the job queue must survive."""
        node = self.nodes[index]
        if node.process is not None and node.process.poll() is None:
            self._killpg(node, signal.SIGKILL)
            node.process.wait(timeout=30)

    def restart(self, index: int, timeout: float = 60.0) -> None:
        """Relaunch a (dead) node with its exact identity: same URL,
        same store, same job queue.  Resume happens in its start path."""
        node = self.nodes[index]
        if node.alive():
            raise ClusterError(f"node {index} is still running")
        self.launch(node)
        self.wait_healthy(timeout=timeout, indices=[index])

    def stats(self) -> list[dict | None]:
        """Every node's ``/stats`` (None for dead nodes)."""
        return [_stats(node.url, timeout=10.0) for node in self.nodes]

    def stop(self) -> None:
        for node in self.nodes:
            if node.process is not None and node.process.poll() is None:
                node.process.terminate()
        for node in self.nodes:
            if node.process is not None:
                try:
                    node.process.wait(timeout=15)
                except subprocess.TimeoutExpired:
                    node.process.kill()
                    node.process.wait(timeout=15)
                finally:
                    # Reap stragglers: pool workers whose parent died
                    # without unwinding its executors.
                    self._killpg(node, signal.SIGKILL)

    # ------------------------------------------------------------------
    def __enter__(self) -> "LocalCluster":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


# ----------------------------------------------------------------------
# The harness run.

def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile of ``samples`` (q in [0, 1])."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def hermetic_env(engine: str | None) -> dict[str, str]:
    """The environment every node runs under.

    The engine backend is resolved *here* (``--engine``, else
    ``REPRO_ENGINE``, else fused; an unknown name is a
    :class:`ValueError` before any node boots) and pinned, so a stray
    parent variable can never silently change what a run measures
    (docs/SERVICE.md "Hermetic smoke runs").  The cache is pinned on:
    the harness exists to exercise the store.
    """
    return {"REPRO_ENGINE": resolve_engine(engine), "REPRO_CACHE": "1"}


@dataclass
class SmokeReport:
    """What one harness run saw; ``BENCH_serve.json`` is a committed one."""

    kind: str = "repro-serve-smoke"
    engine_backend: str = ""
    protocol: dict = field(default_factory=dict)
    #: Node stores, job queues and logs; a temp root the harness made
    #: is removed after a passing run.
    cluster_dir: str = ""
    # The storm, as its clients saw it.
    cells_resolved: int = 0
    wall_s: float = 0.0
    cells_per_sec: float = 0.0
    p50_ms: float = 0.0
    p99_ms: float = 0.0
    deduped_total: int = 0
    # Every node's /stats after the storm, summed.
    cells_requested: int = 0
    cells_simulated: int = 0
    cache_hits: int = 0
    inflight_hits: int = 0
    dedupe_ratio: float = 0.0
    store_hit_rate: float = 0.0
    cells_owned: int = 0
    cells_forwarded: int = 0
    forward_fallbacks: int = 0
    # The follow-up sweep and the kill -9 job.
    warm_sweep_cached: int = 0
    job_cells: int = 0
    job_done_before_kill: int = 0
    job_done: int = 0
    job_duplicate_done: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)


def run_smoke(args) -> SmokeReport:
    """One harness run (the five steps in the module docstring) over the
    ``repro-serve smoke`` flags in ``args``; ``failures`` lists every
    failed check, and the ``--baseline`` gate's.

    A bad engine, grid or baseline file raises :class:`ValueError` or
    :class:`OSError` before any node boots; a node that never boots
    raises :class:`ClusterError`.
    """
    env = hermetic_env(args.engine)
    os.environ.update(env)  # the in-process oracle runs the nodes' kernel
    payload = {
        "workloads": args.workload,
        "mechanisms": args.mechanism,
        "user_insts": args.insts,
        "warmup_insts": args.warmup,
        "max_cycles": 2_000_000,
        "include_results": False,
    }
    specs, _ = expand_sweep(payload)
    baseline = (
        json.loads(Path(args.baseline).read_text()) if args.baseline else None
    )
    root = Path(args.cluster_dir or tempfile.mkdtemp(prefix="repro-serve-smoke-"))
    report = SmokeReport(
        engine_backend=env["REPRO_ENGINE"],
        cluster_dir=str(root),
        protocol={
            "nodes": args.nodes,
            "workers_per_node": args.workers,
            "clients": args.clients,
            "reps_per_client": args.reps,
            "grid_cells": len(specs),
            "workloads": list(args.workload),
            "mechanisms": list(args.mechanism),
            "user_insts": args.insts,
            "warmup_insts": args.warmup,
        },
    )
    job_trace: dict = {}
    with LocalCluster(root, args.nodes, args.workers, env) as cluster:
        streams = _storm(report, cluster.urls, payload, args.clients, args.reps)
        stats = cluster.stats()
        _check_stats(report, stats, len(specs))
        try:
            _check_warm_sweep(report, cluster.urls[0], payload, specs)
            job_trace = _kill_and_resume(report, cluster, specs, root)
        except ServeError as exc:
            report.check(False, str(exc))
    if baseline is not None:
        report.failures += gate(dataclasses.asdict(report), baseline, args.max_drop)
    if args.artifacts:
        _write_artifacts(
            Path(args.artifacts),
            streams,
            {"report": dataclasses.asdict(report), "stats": stats, "job": job_trace},
        )
    if args.cluster_dir is None and not report.failures:
        shutil.rmtree(root, ignore_errors=True)
    return report


def _client(
    index: int, urls: list[str], payload: dict, reps: int
) -> list[tuple[float, list[dict]]]:
    """One storm client: its sweep ``r`` goes to ``urls[(index + r) % N]``.
    Returns each sweep's latency in seconds and its NDJSON lines."""
    sweeps = []
    for rep in range(reps):
        client = SweepClient(urls[(index + rep) % len(urls)])
        begin = time.perf_counter()
        events = list(client.sweep(payload))
        sweeps.append((time.perf_counter() - begin, events))
    return sweeps


def _storm(
    report: SmokeReport, urls: list[str], payload: dict, clients: int, reps: int
) -> list[list[dict]]:
    """Step 1: run the storm, check every sweep, fill the storm fields;
    returns each client's lines, sweep after sweep."""
    with ThreadPoolExecutor(max_workers=clients) as pool:
        begin = time.perf_counter()
        futures = [
            pool.submit(_client, i, urls, payload, reps) for i in range(clients)
        ]
        wait(futures)
        wall = time.perf_counter() - begin
    grid = report.protocol["grid_cells"]
    streams: list[list[dict]] = []
    latencies: list[float] = []
    cycles: dict[tuple, set[int]] = {}
    for i, future in enumerate(futures):
        try:
            sweeps = future.result()
        except ServeError as exc:
            report.check(False, f"client {i}: {exc}")
            sweeps = []
        streams.append([event for _, events in sweeps for event in events])
        for latency, events in sweeps:
            latencies.append(latency)
            cells = [e for e in events if e["kind"] == "cell"]
            summaries = sum(e["kind"] == "summary" for e in events)
            report.check(
                len(cells) == grid and summaries == 1,
                f"client {i} saw {len(cells)} cells / {summaries} summaries "
                f"in one sweep (wanted {grid}/1)",
            )
            report.cells_resolved += len(cells)
            report.deduped_total += sum(c["deduped"] for c in cells)
            for cell in cells:
                key = (str(cell["workload"]), cell["mechanism"])
                cycles.setdefault(key, set()).add(cell["cycles"])
    for key, seen in sorted(cycles.items()):
        report.check(
            len(seen) == 1, f"cell {key} resolved to differing cycles {sorted(seen)}"
        )
    report.wall_s = round(wall, 3)
    report.cells_per_sec = round(report.cells_resolved / wall, 2)
    report.p50_ms = round(percentile(latencies, 0.50) * 1000, 2)
    report.p99_ms = round(percentile(latencies, 0.99) * 1000, 2)
    return streams


def _check_stats(report: SmokeReport, stats: list[dict | None], grid: int) -> None:
    """Steps 2-3: sum every node's ``/stats`` into the report and check
    the cluster-wide contract."""
    report.check(None not in stats, "a node died during the storm")
    live = [s for s in stats if s is not None]
    report.cells_requested = sum(s["cells_requested"] for s in live)
    report.cells_simulated = sum(s["cells_simulated"] for s in live)
    report.cache_hits = sum(s["cache"]["hits"] for s in live)
    report.inflight_hits = sum(s["cache"]["inflight_hits"] for s in live)
    misses = sum(s["cache"]["misses"] for s in live)
    report.cells_owned = sum(s["node"]["owned"] for s in live)
    report.cells_forwarded = sum(s["node"]["forwarded"] for s in live)
    report.forward_fallbacks = sum(s["node"]["fallbacks"] for s in live)
    if report.cells_requested:
        report.dedupe_ratio = round(
            1 - report.cells_simulated / report.cells_requested, 4
        )
    if report.cache_hits + misses:
        report.store_hit_rate = round(
            report.cache_hits / (report.cache_hits + misses), 4
        )

    # Dedupe collapsed the storm: the grid was simulated once-ish.
    report.check(
        grid <= report.cells_simulated < report.cells_requested,
        f"simulated {report.cells_simulated} cells for a {grid}-cell grid "
        f"and {report.cells_requested} requested",
    )
    report.check(
        report.cache_hits + report.inflight_hits > 0,
        "store reported neither cache hits nor in-flight dedupes",
    )
    if len(stats) >= 2:
        # Every node received the grid, so non-owners had to forward;
        # a fallback means a peer looked dead while provably healthy.
        report.check(
            report.cells_forwarded > 0, "no node forwarded a cell it does not own"
        )
        report.check(
            report.forward_fallbacks == 0,
            f"{report.forward_fallbacks} forwards fell back to local "
            f"execution with all peers healthy",
        )


def _check_warm_sweep(
    report: SmokeReport, url: str, payload: dict, specs: list[CellSpec]
) -> None:
    """Step 4: the storm left node 0's store warm, and what it serves is
    bit-identical to a serial in-process run."""
    events = SweepClient(url).sweep({**payload, "include_results": True})
    cells = {e["index"]: e for e in events if e["kind"] == "cell"}
    report.warm_sweep_cached = sum(c["cached"] for c in cells.values())
    report.check(
        report.warm_sweep_cached == len(specs),
        f"follow-up sweep hit the store on {report.warm_sweep_cached}/"
        f"{len(specs)} cells",
    )
    for index, spec in enumerate(specs):
        served = cells.get(index)
        report.check(
            served is not None
            and dataclasses.asdict(decode_result(served))
            == dataclasses.asdict(run_cell(spec)),
            f"cell {index} served result differs from serial run_cell",
        )


def _kill_and_resume(
    report: SmokeReport, cluster: LocalCluster, specs: list[CellSpec], root: Path
) -> dict:
    """Step 5: a persistent job on node 0 survives SIGKILL mid-drain.

    Its cells are fresh (new run lengths, so new content addresses) so
    the drain does real work.  Returns the job trace for the artifacts.
    """
    target = cluster.urls[0]
    job_specs = [
        dataclasses.replace(spec, user_insts=spec.user_insts + 101 + 13 * i)
        for i in range(3)
        for spec in specs
    ]
    submitted = submit_job(
        target,
        {"cells": [spec_to_dict(s) for s in job_specs], "include_results": False},
    )
    job_id = submitted["job_id"]
    report.job_cells = submitted["cells"]
    trace: dict = {"submitted": submitted}

    status = job_status(target, job_id)
    deadline = time.monotonic() + 120
    while (
        status["done"] < 2 and not status["complete"]
        and time.monotonic() < deadline
    ):
        time.sleep(0.02)
        status = job_status(target, job_id)
    report.job_done_before_kill = status["done"]
    trace["at_kill"] = status

    cluster.kill(0)
    report.check(not cluster.nodes[0].alive(), "node 0 survived SIGKILL")
    cluster.restart(0)

    status = job_status(target, job_id)
    deadline = time.monotonic() + 240
    while not status["complete"] and time.monotonic() < deadline:
        time.sleep(0.1)
        status = job_status(target, job_id)
    trace["final"] = status
    report.job_done = status["done"]
    report.job_duplicate_done = status["duplicate_done"]
    report.check(status["complete"], f"job never completed after restart: {status}")
    report.check(
        status["done"] == len(job_specs),
        f"job lost cells: {status['done']} done of {len(job_specs)}",
    )
    report.check(
        status["duplicate_done"] == 0,
        f"job journalled {status['duplicate_done']} duplicate completions",
    )

    # Every key is the content address this process computes.
    lines = job_results(target, job_id, include_results=False)
    trace["results"] = lines
    served = {line["index"]: line["key"] for line in lines if line["kind"] == "cell"}
    oracle = ContentStore(root / "oracle")
    for index, spec in enumerate(job_specs):
        report.check(
            served.get(index) == oracle.key(spec),
            f"job cell {index} finished under key {served.get(index)!r}, "
            f"expected the locally computed content address",
        )
    return trace


def _write_artifacts(
    directory: Path, streams: list[list[dict]], blobs: dict[str, object]
) -> None:
    """Each client's NDJSON lines plus named JSON blobs (CI uploads them)."""
    directory.mkdir(parents=True, exist_ok=True)
    for index, events in enumerate(streams):
        (directory / f"client{index:03d}.ndjson").write_text(
            "".join(json.dumps(event, sort_keys=True) + "\n" for event in events)
        )
    for name, blob in blobs.items():
        (directory / f"{name}.json").write_text(
            json.dumps(blob, indent=2, sort_keys=True) + "\n"
        )


def gate(report: dict, baseline: dict, max_drop: float) -> list[str]:
    """Regression check vs a committed baseline (perfbench's
    ``--baseline/--max-drop`` pattern); returns failure messages."""
    failures = []
    base = baseline.get("cells_per_sec")
    fresh = report.get("cells_per_sec")
    if not isinstance(base, (int, float)) or base <= 0:
        failures.append("baseline carries no usable cells_per_sec")
    elif fresh < base * (1 - max_drop):
        failures.append(
            f"cells/sec regressed past {max_drop:.0%}: "
            f"{fresh:.1f} vs baseline {base:.1f}"
        )
    base_hit = baseline.get("store_hit_rate")
    if isinstance(base_hit, (int, float)) and base_hit > 0:
        if report.get("store_hit_rate", 0) < base_hit * (1 - max_drop):
            failures.append(
                f"store hit-rate regressed past {max_drop:.0%}: "
                f"{report.get('store_hit_rate')} vs baseline {base_hit}"
            )
    return failures
