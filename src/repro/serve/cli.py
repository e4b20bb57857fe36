"""``repro-serve`` / ``python -m repro.serve``: the sweep service CLI.

Subcommands:

``serve``
    Run the HTTP sweep service in the foreground until interrupted.
``sweep``
    Submit one sweep (grid flags or a JSON spec file) to a running
    server and print its NDJSON stream.
``stats``
    Print a running server's ``/stats``.
``smoke``
    The service harness (the CI jobs): boot ``--nodes`` real server
    processes, storm them with ``--clients`` concurrent sweeps of one
    overlapping grid, and assert the service contract -- in-flight
    dedupe collapsed the grid (simulated < requested), the store
    reports hits, every client saw identical cycles, forwarding carried
    cells with zero fallbacks (two or more nodes), a follow-up sweep is
    served entirely warm with payloads bit-identical to serial
    in-process runs, and a persistent job survives SIGKILL of its node
    with zero lost and zero duplicated cells.  It reports cells/sec,
    dedupe ratio, store hit-rate and p50/p99 sweep latency, and with
    ``--baseline BENCH_serve.json --max-drop 0.2`` fails on a
    regression (the nightly ``loadgen-bench`` CI job).

Ops knobs (``REPRO_SERVE_*``) are documented in ``docs/SERVICE.md``;
flags override the environment.  ``--engine`` pins ``REPRO_ENGINE``
for the server, so it is the kernel of every cell the server decodes or
builds -- without it the kernel is inherited from the caller's
environment (see "Hermetic smoke runs" in docs/SERVICE.md for why the
smoke resolves it explicitly).
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import os
import sys


def _add_server_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8712,
        help="TCP port (0 picks an ephemeral one)",
    )
    parser.add_argument(
        "--pools", type=int, default=None, choices=(0, 1),
        help="1 runs cells in a worker pool, 0 in process (default "
        "REPRO_SERVE_POOLS or 1)",
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="pool processes (default REPRO_SERVE_WORKERS or the CPU "
        "count)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="content store location (default REPRO_CACHE_DIR or "
        "~/.cache/repro-sim)",
    )
    parser.add_argument(
        "--cache-entries", type=int, default=None, metavar="N",
        help="LRU-evict above N cached cells (default "
        "REPRO_SERVE_CACHE_ENTRIES; 0 = unlimited)",
    )
    parser.add_argument(
        "--cache-mb", type=int, default=None, metavar="MB",
        help="LRU-evict above MB of pickles (default "
        "REPRO_SERVE_CACHE_MB; 0 = unlimited)",
    )
    parser.add_argument(
        "--engine", default=None, metavar="BACKEND",
        help="pin the engine backend (sets REPRO_ENGINE, the kernel of "
        "every cell this server runs; default: inherit environment)",
    )


def _add_cluster_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--node-url", default=None, metavar="URL",
        help="this node's advertised URL; enables cluster mode when "
        "--peer is also given",
    )
    parser.add_argument(
        "--peer", action="append", default=[], metavar="URL",
        help="a peer node's URL (repeatable); with --node-url, cells "
        "are routed to their consistent-hash owner",
    )
    parser.add_argument(
        "--jobs-dir", default=None, metavar="DIR",
        help="persistent job-queue directory (enables POST /jobs; "
        "jobs resume after a crash)",
    )


def _build_server(args: argparse.Namespace):
    from repro.serve.http import SweepHTTPServer
    from repro.serve.queue import JobQueue
    from repro.serve.service import SweepService
    from repro.serve.store import ContentStore

    if args.engine:
        # Pin REPRO_ENGINE before the service starts: it checks the pin
        # and every spec it decodes or builds takes its kernel from it.
        os.environ["REPRO_ENGINE"] = args.engine
    store = ContentStore(
        directory=args.cache_dir,
        max_entries=args.cache_entries,
        max_bytes=None if args.cache_mb is None else args.cache_mb * 1024 * 1024,
    )
    service = SweepService(
        store=store,
        pools=args.pools,
        workers=args.workers,
        node_id=args.node_url,
        peers=tuple(args.peer),
        queue=JobQueue(args.jobs_dir) if args.jobs_dir else None,
    )
    return SweepHTTPServer(service, host=args.host, port=args.port)


def _cmd_serve(args: argparse.Namespace) -> int:
    try:
        server = _build_server(args)
    except ValueError as exc:  # a bad REPRO_* knob: fail at start
        print(f"repro-serve serve: {exc}", file=sys.stderr)
        return 2

    async def main() -> int:
        await server.start()
        cluster = (
            f", peers={len(server.service.peers)}"
            if server.service.peers
            else ""
        )
        print(
            f"repro-serve: listening on http://{server.host}:{server.port} "
            f"(pools={server.service.pools}, workers={server.service.workers}, "
            f"store={server.service.store.directory}{cluster})",
            flush=True,
        )
        try:
            await server.serve_forever()
        finally:
            await server.close()
        return 0

    try:
        return asyncio.run(main())
    except KeyboardInterrupt:
        print("repro-serve: interrupted, shutting down")
        return 0


def _sweep_payload(args: argparse.Namespace) -> dict:
    if args.spec:
        with open(args.spec) as fh:
            return json.load(fh)
    return {
        "workloads": args.workload,
        "mechanisms": args.mechanism,
        "user_insts": args.insts,
        "warmup_insts": args.warmup,
        "warm": args.warm,
        "include_results": False,
    }


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.serve.client import ServeError, SweepClient

    try:
        for event in SweepClient(args.server).sweep(_sweep_payload(args)):
            print(json.dumps(event, sort_keys=True), flush=True)
    except ServeError as exc:
        print(f"repro-serve sweep: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.serve.client import ServeError, SweepClient

    try:
        print(json.dumps(SweepClient(args.server).stats(), indent=2))
    except ServeError as exc:
        print(f"repro-serve stats: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_smoke(args: argparse.Namespace) -> int:
    from repro.serve.cluster import ClusterError, run_smoke

    if args.nodes < 1 or args.reps < 1 or args.clients < args.nodes:
        print(
            "repro-serve smoke: need --nodes >= 1, --reps >= 1 and "
            "--clients >= --nodes",
            file=sys.stderr,
        )
        return 2
    try:
        report = run_smoke(args)
    except (ClusterError, OSError, ValueError) as exc:
        print(f"repro-serve smoke: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(dataclasses.asdict(report), indent=2, sort_keys=True))
    if report.failures:
        for failure in report.failures:
            print(f"repro-serve smoke: FAIL: {failure}", file=sys.stderr)
        print(
            f"repro-serve smoke: node logs are in {report.cluster_dir}",
            file=sys.stderr,
        )
        return 1
    gated = f", within {args.max_drop:.0%} of {args.baseline}" if args.baseline else ""
    print(
        f"repro-serve smoke: OK ({args.clients} clients x {args.reps} sweeps "
        f"on {args.nodes} node(s), {report.cells_per_sec} cells/sec, "
        f"{report.cells_simulated} of {report.cells_requested} cells "
        f"simulated{gated})"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Sweep service over the content-addressed "
        "result store (docs/SERVICE.md).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the HTTP service")
    _add_server_args(serve)
    _add_cluster_args(serve)
    serve.set_defaults(func=_cmd_serve)

    sweep = sub.add_parser("sweep", help="submit one sweep to a server")
    sweep.add_argument("--server", required=True, metavar="URL")
    sweep.add_argument("--spec", metavar="FILE", help="JSON sweep spec")
    sweep.add_argument(
        "--workload", action="append", default=None,
        help="grid workload (repeatable; default compress)",
    )
    sweep.add_argument(
        "--mechanism", action="append", default=None,
        help="grid mechanism (repeatable; default multithreaded)",
    )
    sweep.add_argument("--insts", type=int, default=12_000)
    sweep.add_argument("--warmup", type=int, default=3_000)
    sweep.add_argument(
        "--warm", action="store_true",
        help="share warm checkpoints across the grid's workload families",
    )
    sweep.set_defaults(func=_cmd_sweep)

    stats = sub.add_parser("stats", help="print a server's /stats")
    stats.add_argument("--server", required=True, metavar="URL")
    stats.set_defaults(func=_cmd_stats)

    smoke = sub.add_parser(
        "smoke",
        help="boot a local cluster, storm it, and check the service "
        "contract (CI)",
    )
    smoke.add_argument(
        "--nodes", type=int, default=1,
        help="real server processes to boot (default 1)",
    )
    smoke.add_argument(
        "--clients", type=int, default=100,
        help="concurrent sweep clients, at least --nodes (default 100)",
    )
    smoke.add_argument(
        "--reps", type=int, default=1,
        help="sweeps per client; client i sends sweep r to node "
        "(i + r) mod N (default 1)",
    )
    smoke.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="pool processes per node (default 1)",
    )
    smoke.add_argument(
        "--workload", action="append", default=None,
        help="grid workload (repeatable; default compress+murphi)",
    )
    smoke.add_argument(
        "--mechanism", action="append", default=None,
        help="grid mechanism (repeatable; default "
        "traditional+multithreaded)",
    )
    smoke.add_argument("--insts", type=int, default=500)
    smoke.add_argument("--warmup", type=int, default=120)
    smoke.add_argument(
        "--engine", default=None, metavar="BACKEND",
        help="pin the engine backend for every node and the in-process "
        "oracle (default: REPRO_ENGINE, else fused)",
    )
    smoke.add_argument(
        "--cluster-dir", default=None, metavar="DIR",
        help="node stores, job queues and logs (default: a temp dir, "
        "removed after a passing run)",
    )
    smoke.add_argument(
        "--artifacts", default=None, metavar="DIR",
        help="write report.json, the nodes' stats, the job trace and "
        "each client's NDJSON lines here",
    )
    smoke.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="committed report to gate cells/sec and store hit-rate "
        "against (e.g. BENCH_serve.json)",
    )
    smoke.add_argument(
        "--max-drop", type=float, default=0.2,
        help="max tolerated drop vs --baseline (default 0.2)",
    )
    smoke.set_defaults(func=_cmd_smoke)

    args = parser.parse_args(argv)
    if args.command == "sweep":
        args.workload = args.workload or ["compress"]
        args.mechanism = args.mechanism or ["multithreaded"]
    if args.command == "smoke":
        args.workload = args.workload or ["compress", "murphi"]
        args.mechanism = args.mechanism or ["traditional", "multithreaded"]
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
